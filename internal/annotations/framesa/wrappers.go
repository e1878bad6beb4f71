package framesa

import (
	"mozart/internal/core"
	"mozart/internal/frame"
)

func retExpr(t core.TypeExpr) *core.TypeExpr { return &t }

// The element-wise series functions are registered through CallInto: each has
// a destination-taking form in the library (frame.XInto), so inside a stage
// the runtime hands a call the Series it returned for the previous batch as
// soon as that piece is dead, and a batch's intermediates are rewritten in
// cache instead of allocated anew.

// dest is the destination the runtime offered, as the library wants it: nil
// when there is none or it is not a Series (frame.XInto checks the rest:
// dtype, room, mask).
func dest(out any) *frame.Series {
	dst, _ := out.(*frame.Series)
	return dst
}

// seriesSA is @splittable(<params>) -> S.
func seriesSA(name string, params ...core.Param) *core.Annotation {
	return &core.Annotation{FuncName: name, Params: params, Ret: retExpr(core.Generic("S"))}
}

// split is a parameter of split type S, whole one of the missing type "_".
func split(name string) core.Param { return core.Param{Name: name, Type: core.Generic("S")} }
func whole(name string) core.Param { return core.Param{Name: name, Type: core.Missing()} }

// makeSeriesBinary wraps f(dst, a, b) -> Series as @splittable(a: S, b: S) -> S.
func makeSeriesBinary(name string, f func(dst, a, b *frame.Series) *frame.Series) (core.FuncInto, *core.Annotation) {
	fn := func(args []any, out any) (any, error) {
		return f(dest(out), args[0].(*frame.Series), args[1].(*frame.Series)), nil
	}
	return fn, seriesSA(name, split("a"), split("b"))
}

// makeSeriesUnary wraps f(dst, a) -> Series as @splittable(a: S) -> S.
func makeSeriesUnary(name string, f func(dst, a *frame.Series) *frame.Series) (core.FuncInto, *core.Annotation) {
	fn := func(args []any, out any) (any, error) {
		return f(dest(out), args[0].(*frame.Series)), nil
	}
	return fn, seriesSA(name, split("a"))
}

// makeSeriesScalar wraps f(dst, a, c) -> Series, c of any one type, as
// @splittable(a: S, <param>: _) -> S.
func makeSeriesScalar[C any](name, param string, f func(dst, a *frame.Series, c C) *frame.Series) (core.FuncInto, *core.Annotation) {
	fn := func(args []any, out any) (any, error) {
		return f(dest(out), args[0].(*frame.Series), args[1].(C)), nil
	}
	return fn, seriesSA(name, split("a"), whole(param))
}

var (
	addFn, addSA = makeSeriesBinary("sr.add", frame.AddSeriesInto)
	subFn, subSA = makeSeriesBinary("sr.sub", frame.SubSeriesInto)
	mulFn, mulSA = makeSeriesBinary("sr.mul", frame.MulSeriesInto)
	divFn, divSA = makeSeriesBinary("sr.div", frame.DivSeriesInto)
	andFn, andSA = makeSeriesBinary("sr.and", frame.AndInto)
	orFn, orSA   = makeSeriesBinary("sr.or", frame.OrInto)
	m2nFn, m2nSA = makeSeriesBinary("sr.maskToNull", frame.MaskToNullInto)

	notFn, notSA       = makeSeriesUnary("sr.not", frame.NotInto)
	isNullFn, isNullSA = makeSeriesUnary("sr.isnull", frame.IsNullInto)

	addSclFn, addSclSA = makeSeriesScalar("sr.add.s", "c", frame.AddScalarInto)
	subSclFn, subSclSA = makeSeriesScalar("sr.sub.s", "c", frame.SubScalarInto)
	mulSclFn, mulSclSA = makeSeriesScalar("sr.mul.s", "c", frame.MulScalarInto)
	divSclFn, divSclSA = makeSeriesScalar("sr.div.s", "c", frame.DivScalarInto)
	gtFn, gtSA         = makeSeriesScalar("sr.gt", "c", frame.GtScalarInto)
	ltFn, ltSA         = makeSeriesScalar("sr.lt", "c", frame.LtScalarInto)
	geFn, geSA         = makeSeriesScalar("sr.ge", "c", frame.GeScalarInto)
	fillNaFn, fillNaSA = makeSeriesScalar("sr.fillna", "c", frame.FillNullFloatInto)

	eqStrFn, eqStrSA             = makeSeriesScalar("sr.eq", "v", frame.EqStringInto)
	strStartsFn, strStartsSA     = makeSeriesScalar("sr.str.startswith", "prefix", frame.StrStartsWithInto)
	strContainsFn, strContainsSA = makeSeriesScalar("sr.str.contains", "sub", frame.StrContainsInto)
	strLenGtFn, strLenGtSA       = makeSeriesScalar("sr.str.len.gt", "n", frame.StrLenGtInto)
	inStrFn, inStrSA             = makeSeriesScalar("sr.isin", "vals", func(dst, a *frame.Series, vals []string) *frame.Series {
		return frame.InStringsInto(dst, a, vals...)
	})
)

// AddSeries registers a + b.
func AddSeries(s *core.Session, a, b any) *core.Future { return s.CallInto(addFn, addSA, a, b) }

// SubSeries registers a - b.
func SubSeries(s *core.Session, a, b any) *core.Future { return s.CallInto(subFn, subSA, a, b) }

// MulSeries registers a * b.
func MulSeries(s *core.Session, a, b any) *core.Future { return s.CallInto(mulFn, mulSA, a, b) }

// DivSeries registers a / b.
func DivSeries(s *core.Session, a, b any) *core.Future { return s.CallInto(divFn, divSA, a, b) }

// And registers the conjunction of two masks.
func And(s *core.Session, a, b any) *core.Future { return s.CallInto(andFn, andSA, a, b) }

// Or registers the disjunction of two masks.
func Or(s *core.Session, a, b any) *core.Future { return s.CallInto(orFn, orSA, a, b) }

// Not registers the negation of a mask.
func Not(s *core.Session, a any) *core.Future { return s.CallInto(notFn, notSA, a) }

// IsNull registers the null mask of a series.
func IsNull(s *core.Session, a any) *core.Future { return s.CallInto(isNullFn, isNullSA, a) }

// MaskToNull registers nulling of rows selected by mask.
func MaskToNull(s *core.Session, a, mask any) *core.Future {
	return s.CallInto(m2nFn, m2nSA, a, mask)
}

// AddScalar registers a + c.
func AddScalar(s *core.Session, a any, c float64) *core.Future {
	return s.CallInto(addSclFn, addSclSA, a, c)
}

// SubScalar registers a - c.
func SubScalar(s *core.Session, a any, c float64) *core.Future {
	return s.CallInto(subSclFn, subSclSA, a, c)
}

// MulScalar registers a * c.
func MulScalar(s *core.Session, a any, c float64) *core.Future {
	return s.CallInto(mulSclFn, mulSclSA, a, c)
}

// DivScalar registers a / c.
func DivScalar(s *core.Session, a any, c float64) *core.Future {
	return s.CallInto(divSclFn, divSclSA, a, c)
}

// GtScalar registers the a > c mask.
func GtScalar(s *core.Session, a any, c float64) *core.Future { return s.CallInto(gtFn, gtSA, a, c) }

// LtScalar registers the a < c mask.
func LtScalar(s *core.Session, a any, c float64) *core.Future { return s.CallInto(ltFn, ltSA, a, c) }

// GeScalar registers the a >= c mask.
func GeScalar(s *core.Session, a any, c float64) *core.Future { return s.CallInto(geFn, geSA, a, c) }

// FillNullFloat registers fillna(c).
func FillNullFloat(s *core.Session, a any, c float64) *core.Future {
	return s.CallInto(fillNaFn, fillNaSA, a, c)
}

// EqString registers the a == v mask.
func EqString(s *core.Session, a any, v string) *core.Future {
	return s.CallInto(eqStrFn, eqStrSA, a, v)
}

// InStrings registers the membership mask for vals.
func InStrings(s *core.Session, a any, vals ...string) *core.Future {
	return s.CallInto(inStrFn, inStrSA, a, vals)
}

// StrSlice registers str.slice(from, to).
func StrSlice(s *core.Session, a any, from, to int) *core.Future {
	return s.CallInto(strSliceFn, strSliceSA, a, from, to)
}

var strSliceFn core.FuncInto = func(args []any, out any) (any, error) {
	return frame.StrSliceInto(dest(out), args[0].(*frame.Series), args[1].(int), args[2].(int)), nil
}

var strSliceSA = seriesSA("sr.str.slice", split("a"), whole("from"), whole("to"))

// StrStartsWith registers the str.startswith mask.
func StrStartsWith(s *core.Session, a any, prefix string) *core.Future {
	return s.CallInto(strStartsFn, strStartsSA, a, prefix)
}

// StrContains registers the str.contains mask.
func StrContains(s *core.Session, a any, sub string) *core.Future {
	return s.CallInto(strContainsFn, strContainsSA, a, sub)
}

// StrLenGt registers the len(a) > n mask.
func StrLenGt(s *core.Session, a any, n int) *core.Future {
	return s.CallInto(strLenGtFn, strLenGtSA, a, n)
}

// Filter registers boolean-mask filtering of a frame; its output split is
// unknown (§3.2).
func Filter(s *core.Session, df, mask any) *core.Future {
	return s.Call(filterFn, filterSA, df, mask)
}

var filterFn core.Func = func(args []any) (any, error) {
	return frame.Filter(args[0].(*frame.DataFrame), args[1].(*frame.Series)), nil
}

var filterSA = &core.Annotation{FuncName: "df.filter", Params: []core.Param{
	{Name: "df", Type: core.Generic("S")},
	{Name: "mask", Type: core.Generic("T")},
}, Ret: retExpr(core.Unknown())}

// FilterSeries registers boolean-mask filtering of a series.
func FilterSeries(s *core.Session, a, mask any) *core.Future {
	return s.Call(filterSeriesFn, filterSeriesSA, a, mask)
}

var filterSeriesFn core.Func = func(args []any) (any, error) {
	return frame.FilterSeries(args[0].(*frame.Series), args[1].(*frame.Series)), nil
}

var filterSeriesSA = &core.Annotation{FuncName: "sr.filter", Params: []core.Param{
	{Name: "a", Type: core.Generic("S")},
	{Name: "mask", Type: core.Generic("T")},
}, Ret: retExpr(core.Unknown())}

// Col registers column extraction df[name]; row-aligned with the frame, so
// both sides share a pipeline.
func Col(s *core.Session, df any, name string) *core.Future {
	return s.Call(colFn, colSA, df, name)
}

var colFn core.Func = func(args []any) (any, error) {
	return args[0].(*frame.DataFrame).Col(args[1].(string)), nil
}

var colSA = &core.Annotation{FuncName: "df.col", Params: []core.Param{
	{Name: "df", Type: core.Generic("S")},
	{Name: "name", Type: core.Missing()},
}, Ret: retExpr(core.Generic("S"))}

// WithColumn registers df.withColumn(s): the frame and the new column must
// be row-aligned.
func WithColumn(s *core.Session, df, col any) *core.Future {
	return s.Call(withColFn, withColSA, df, col)
}

var withColFn core.Func = func(args []any) (any, error) {
	return args[0].(*frame.DataFrame).WithColumn(args[1].(*frame.Series)), nil
}

var withColSA = &core.Annotation{FuncName: "df.withColumn", Params: []core.Param{
	{Name: "df", Type: core.Generic("S")},
	{Name: "col", Type: core.Generic("T")},
}, Ret: retExpr(core.Generic("S"))}

// SumFloat registers the sum reduction of a float series.
func SumFloat(s *core.Session, a any) *core.Future { return s.CallInto(sumFn, sumSA, a) }

// The reductions return a scalar, so they have no use for a destination; they
// are registered through CallInto for what it promises about their argument —
// no view of it is returned or kept — which lets the call that produced the
// argument reuse its piece.
var sumFn core.FuncInto = func(args []any, _ any) (any, error) {
	return frame.SumFloat(args[0].(*frame.Series)), nil
}

var sumSA = &core.Annotation{FuncName: "sr.sum", Params: []core.Param{
	{Name: "a", Type: core.Generic("S")},
}, Ret: retExpr(core.Concrete("AddReduce", AddReduceSplitter{}, core.FixedCtor(core.NewSplitType("AddReduce"))))}

// CountValid registers the non-null count reduction.
func CountValid(s *core.Session, a any) *core.Future { return s.CallInto(countFn, countSA, a) }

var countFn core.FuncInto = func(args []any, _ any) (any, error) {
	return frame.CountValid(args[0].(*frame.Series)), nil
}

var countSA = &core.Annotation{FuncName: "sr.count", Params: []core.Param{
	{Name: "a", Type: core.Generic("S")},
}, Ret: retExpr(core.Concrete("AddReduce", AddReduceSplitter{}, core.FixedCtor(core.NewSplitType("AddReduce"))))}

// Mean registers the mean reduction; the result future holds a
// frame.MeanPartial — use MeanValue to read it as a float64.
func Mean(s *core.Session, a any) *core.Future { return s.CallInto(meanFn, meanSA, a) }

var meanFn core.FuncInto = func(args []any, _ any) (any, error) {
	return frame.Mean(args[0].(*frame.Series)), nil
}

var meanSA = &core.Annotation{FuncName: "sr.mean", Params: []core.Param{
	{Name: "a", Type: core.Generic("S")},
}, Ret: retExpr(core.Concrete("MeanReduce", MeanReduceSplitter{}, core.FixedCtor(core.NewSplitType("MeanReduce"))))}

// MeanValue forces evaluation and unwraps a Mean future.
func MeanValue(f *core.Future) (float64, error) {
	v, err := f.Get()
	if err != nil {
		return 0, err
	}
	return v.(frame.MeanPartial).Value(), nil
}

// GroupByAgg registers a grouped aggregation: chunks aggregate
// independently and the GroupSplit merge re-aggregates the partials. The
// future holds a *frame.Grouped; finalize it with ToDataFrame.
func GroupByAgg(s *core.Session, df any, keys []string, specs []frame.AggSpec) *core.Future {
	return s.Call(groupByFn, groupBySA, df, keys, specs)
}

var groupByFn core.Func = func(args []any) (any, error) {
	return frame.GroupByAgg(args[0].(*frame.DataFrame), args[1].([]string), args[2].([]frame.AggSpec)), nil
}

var groupBySA = &core.Annotation{FuncName: "df.groupby.agg", Params: []core.Param{
	{Name: "df", Type: core.Generic("S")},
	{Name: "keys", Type: core.Missing()},
	{Name: "specs", Type: core.Missing()},
}, Ret: retExpr(core.Concrete("GroupSplit", GroupSplitter{}, core.FixedCtor(core.NewSplitType("GroupSplit"))))}

// ToDataFrame registers finalization of a grouped aggregation (whole call).
func ToDataFrame(s *core.Session, g any) *core.Future {
	return s.Call(toDfFn, toDfSA, g)
}

var toDfFn core.Func = func(args []any) (any, error) {
	return args[0].(*frame.Grouped).ToDataFrame(), nil
}

var toDfSA = &core.Annotation{FuncName: "grouped.toDataFrame", Params: []core.Param{
	{Name: "g", Type: core.Missing()},
}, Ret: retExpr(core.Unknown())}

// JoinIndexed registers a join: the probe frame splits, the index
// broadcasts (§7: "joins split one table and broadcast the other"). The
// output split is unknown.
func JoinIndexed(s *core.Session, left any, ix *frame.Index, leftKey string, how frame.JoinHow) *core.Future {
	return s.Call(joinFn, joinSA, left, ix, leftKey, how)
}

var joinFn core.Func = func(args []any) (any, error) {
	return frame.JoinIndexed(args[0].(*frame.DataFrame), args[1].(*frame.Index), args[2].(string), args[3].(frame.JoinHow)), nil
}

var joinSA = &core.Annotation{FuncName: "df.join", Params: []core.Param{
	{Name: "left", Type: core.Generic("S")},
	{Name: "index", Type: core.Missing()},
	{Name: "leftKey", Type: core.Missing()},
	{Name: "how", Type: core.Missing()},
}, Ret: retExpr(core.Unknown())}

// SortByFloat registers a whole-frame sort (not splittable).
func SortByFloat(s *core.Session, df any, col string, ascending bool) *core.Future {
	return s.Call(sortFn, sortSA, df, col, ascending)
}

var sortFn core.Func = func(args []any) (any, error) {
	return frame.SortByFloat(args[0].(*frame.DataFrame), args[1].(string), args[2].(bool)), nil
}

var sortSA = &core.Annotation{FuncName: "df.sort", Params: []core.Param{
	{Name: "df", Type: core.Missing()},
	{Name: "col", Type: core.Missing()},
	{Name: "asc", Type: core.Missing()},
}, Ret: retExpr(core.Unknown())}

// UniqueStrings registers a whole-series distinct (not splittable: result
// order depends on all rows).
func UniqueStrings(s *core.Session, a any) *core.Future {
	return s.Call(uniqueFn, uniqueSA, a)
}

var uniqueFn core.Func = func(args []any) (any, error) {
	return frame.UniqueStrings(args[0].(*frame.Series)), nil
}

var uniqueSA = &core.Annotation{FuncName: "sr.unique", Params: []core.Param{
	{Name: "a", Type: core.Missing()},
}, Ret: retExpr(core.Unknown())}
