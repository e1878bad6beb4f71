package frame

import (
	"math"
	"reflect"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	f := NewFloat("x", []float64{1, 2, 3})
	i := NewInt("y", []int64{4, 5, 6})
	s := NewString("z", []string{"a", "b", "c"})
	b := NewBool("m", []bool{true, false, true})
	if f.Len() != 3 || i.Len() != 3 || s.Len() != 3 || b.Len() != 3 {
		t.Fatal("Len")
	}
	if f.Dtype.String() != "float64" || i.Dtype.String() != "int64" || s.Dtype.String() != "string" || b.Dtype.String() != "bool" {
		t.Fatal("DType strings")
	}
	if f.ElemBytes() != 8 || s.ElemBytes() != 24 || b.ElemBytes() != 1 {
		t.Fatal("ElemBytes")
	}
	sl := f.Slice(1, 3)
	if sl.Len() != 2 || sl.F[0] != 2 {
		t.Fatal("Slice")
	}
	sl.F[0] = 20
	if f.F[1] != 20 {
		t.Fatal("Slice must share storage")
	}
	c := f.Clone()
	c.F[0] = 100
	if f.F[0] == 100 {
		t.Fatal("Clone must copy")
	}
}

func TestSeriesNulls(t *testing.T) {
	f := &Series{Name: "x", Dtype: Float, F: []float64{1, 2, 3}, Valid: []bool{true, false, true}}
	if f.IsValid(1) || !f.IsValid(0) {
		t.Fatal("IsValid")
	}
	n := IsNull(f)
	if !n.B[1] || n.B[0] {
		t.Fatal("IsNull mask")
	}
	filled := FillNullFloat(f, 9)
	if filled.F[1] != 9 || filled.F[0] != 1 {
		t.Fatal("FillNullFloat")
	}
	nan := NewFloat("y", []float64{1, math.NaN()})
	if !IsNull(nan).B[1] {
		t.Fatal("NaN should be null")
	}
	if CountValid(f) != 2 {
		t.Fatal("CountValid")
	}
}

func TestSeriesArith(t *testing.T) {
	a := NewFloat("a", []float64{1, 2, 3})
	b := NewFloat("b", []float64{4, 5, 6})
	if AddSeries(a, b).F[0] != 5 || SubSeries(a, b).F[1] != -3 ||
		MulSeries(a, b).F[2] != 18 || DivSeries(b, a).F[1] != 2.5 {
		t.Fatal("binary arith")
	}
	if AddScalar(a, 1).F[0] != 2 || SubScalar(a, 1).F[0] != 0 ||
		MulScalar(a, 2).F[2] != 6 || DivScalar(b, 2).F[0] != 2 {
		t.Fatal("scalar arith")
	}
	// Null propagation through binary ops.
	av := &Series{Name: "a", Dtype: Float, F: []float64{1, 2}, Valid: []bool{true, false}}
	bv := NewFloat("b", []float64{1, 1})
	sum := AddSeries(av, bv)
	if sum.IsValid(1) || !sum.IsValid(0) {
		t.Fatal("null propagation")
	}
}

func TestMasksAndLogic(t *testing.T) {
	a := NewFloat("a", []float64{1, 5, 3})
	g, l, ge := GtScalar(a, 2), LtScalar(a, 2), GeScalar(a, 3)
	if !g.B[1] || g.B[0] || !l.B[0] || l.B[1] || !ge.B[1] || !ge.B[2] || ge.B[0] {
		t.Fatal("comparisons")
	}
	if x := And(g, ge); !x.B[1] || x.B[0] {
		t.Fatal("And")
	}
	if x := Or(g, l); !x.B[0] || !x.B[1] || x.B[2] == true && a.F[2] != 3 {
		t.Fatal("Or")
	}
	if x := Not(g); x.B[1] || !x.B[0] {
		t.Fatal("Not")
	}
	s := NewString("s", []string{"NYC", "SF", "NYC"})
	if x := EqString(s, "NYC"); !x.B[0] || x.B[1] {
		t.Fatal("EqString")
	}
	if x := InStrings(s, "SF", "LA"); !x.B[1] || x.B[0] {
		t.Fatal("InStrings")
	}
}

func TestStringOps(t *testing.T) {
	s := NewString("zip", []string{"10001-1234", "9021", "NO CLUE"})
	sl := StrSlice(s, 0, 5)
	if sl.S[0] != "10001" || sl.S[1] != "9021" {
		t.Fatalf("StrSlice: %v", sl.S)
	}
	if x := StrStartsWith(s, "100"); !x.B[0] || x.B[1] {
		t.Fatal("StrStartsWith")
	}
	if x := StrContains(s, "CLUE"); !x.B[2] || x.B[0] {
		t.Fatal("StrContains")
	}
	if x := StrLenGt(s, 5); !x.B[0] || x.B[1] {
		t.Fatal("StrLenGt")
	}
}

func TestMaskToNull(t *testing.T) {
	s := NewFloat("x", []float64{1, 2, 3})
	m := NewBool("m", []bool{false, true, false})
	out := MaskToNull(s, m)
	if out.IsValid(1) || !out.IsValid(0) || !math.IsNaN(out.F[1]) {
		t.Fatal("MaskToNull")
	}
	if !s.IsValid(1) {
		t.Fatal("MaskToNull must not mutate input")
	}
}

func TestReductionsAndMean(t *testing.T) {
	s := &Series{Name: "x", Dtype: Float, F: []float64{1, 2, math.NaN(), 4}, Valid: []bool{true, true, true, true}}
	if SumFloat(s) != 7 {
		t.Fatal("SumFloat skips NaN")
	}
	m := Mean(s)
	if m.Count != 3 || math.Abs(m.Value()-7.0/3) > 1e-12 {
		t.Fatal("Mean partial")
	}
	var empty MeanPartial
	if !math.IsNaN(empty.Value()) {
		t.Fatal("empty mean should be NaN")
	}
}

func TestDataFrameBasics(t *testing.T) {
	df := NewDataFrame(
		NewString("city", []string{"a", "b", "c"}),
		NewFloat("pop", []float64{1, 2, 3}),
	)
	if df.NRows() != 3 || df.NCols() != 2 {
		t.Fatal("shape")
	}
	if df.Col("pop").F[1] != 2 || !df.HasCol("city") || df.HasCol("nope") {
		t.Fatal("Col/HasCol")
	}
	df2 := df.WithColumn(NewFloat("crime", []float64{7, 8, 9}))
	if df2.NCols() != 3 || df.NCols() != 2 {
		t.Fatal("WithColumn should not mutate")
	}
	df3 := df2.WithColumn(NewFloat("pop", []float64{0, 0, 0}))
	if df3.Col("pop").F[0] != 0 || df3.NCols() != 3 {
		t.Fatal("WithColumn replace")
	}
	sel := df2.Select("crime", "city")
	if sel.Cols[0].Name != "crime" || sel.NCols() != 2 {
		t.Fatal("Select")
	}
	ren := df.Rename("pop", "population")
	if !ren.HasCol("population") || ren.HasCol("pop") {
		t.Fatal("Rename")
	}
	if df.String() == "" {
		t.Fatal("String")
	}
	sl := df.Slice(1, 3)
	if sl.NRows() != 2 || sl.Col("city").S[0] != "b" {
		t.Fatal("Slice")
	}
	back := ConcatDF(df.Slice(0, 1), df.Slice(1, 3))
	if back.NRows() != 3 || back.Col("city").S[2] != "c" {
		t.Fatal("ConcatDF")
	}
}

func TestDataFramePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("dup col", func() { NewDataFrame(NewFloat("x", nil), NewFloat("x", nil)) })
	mustPanic("len mismatch", func() { NewDataFrame(NewFloat("x", []float64{1}), NewFloat("y", nil)) })
	mustPanic("missing col", func() { NewDataFrame(NewFloat("x", nil)).Col("y") })
	mustPanic("filter mask", func() {
		Filter(NewDataFrame(NewFloat("x", []float64{1})), NewFloat("m", []float64{1}))
	})
	mustPanic("groupby float key", func() {
		GroupByAgg(NewDataFrame(NewFloat("x", []float64{1})), []string{"x"}, nil)
	})
}

func TestFilter(t *testing.T) {
	df := NewDataFrame(
		NewString("name", []string{"a", "b", "c", "d"}),
		NewFloat("v", []float64{1, 2, 3, 4}),
	)
	out := Filter(df, NewBool("m", []bool{true, false, true, false}))
	if out.NRows() != 2 || out.Col("name").S[1] != "c" || out.Col("v").F[1] != 3 {
		t.Fatal("Filter")
	}
	fs := FilterSeries(df.Col("v"), NewBool("m", []bool{false, true, true, false}))
	if fs.Len() != 2 || fs.F[0] != 2 {
		t.Fatal("FilterSeries")
	}
}

func TestGroupByAgg(t *testing.T) {
	df := NewDataFrame(
		NewString("sex", []string{"F", "M", "F", "M", "F"}),
		NewInt("year", []int64{2000, 2000, 2000, 2001, 2001}),
		NewFloat("births", []float64{10, 20, 30, 40, 50}),
	)
	g := GroupByAgg(df, []string{"sex", "year"}, []AggSpec{
		{Col: "births", Kind: AggSum, As: "total"},
		{Col: "births", Kind: AggMean, As: "avg"},
		{Col: "births", Kind: AggCount, As: "n"},
		{Col: "births", Kind: AggMin, As: "lo"},
		{Col: "births", Kind: AggMax, As: "hi"},
	})
	if g.NumGroups() != 4 {
		t.Fatalf("groups = %d", g.NumGroups())
	}
	out := g.ToDataFrame()
	if out.NRows() != 4 {
		t.Fatal("ToDataFrame rows")
	}
	// Find F/2000.
	found := false
	for r := 0; r < out.NRows(); r++ {
		if out.Col("sex").S[r] == "F" && out.Col("year").I[r] == 2000 {
			found = true
			if out.Col("total").F[r] != 40 || out.Col("avg").F[r] != 20 ||
				out.Col("n").I[r] != 2 || out.Col("lo").F[r] != 10 || out.Col("hi").F[r] != 30 {
				t.Fatal("F/2000 aggregates wrong")
			}
		}
	}
	if !found {
		t.Fatal("missing group")
	}
}

// TestGroupCombineEqualsWhole: chunked partial aggregation combined equals
// aggregating the whole frame — the GroupSplit merge property.
func TestGroupCombineEqualsWhole(t *testing.T) {
	n := 200
	sex := make([]string, n)
	year := make([]int64, n)
	births := make([]float64, n)
	for i := 0; i < n; i++ {
		sex[i] = []string{"F", "M"}[i%2]
		year[i] = int64(2000 + i%7)
		births[i] = float64(i%13) + 1
	}
	df := NewDataFrame(NewString("sex", sex), NewInt("year", year), NewFloat("births", births))
	specs := []AggSpec{{Col: "births", Kind: AggSum, As: "s"}, {Col: "births", Kind: AggMean, As: "m"}}

	whole := GroupByAgg(df, []string{"sex", "year"}, specs).ToDataFrame()

	var combined *Grouped
	for lo := 0; lo < n; lo += 37 {
		hi := lo + 37
		if hi > n {
			hi = n
		}
		part := GroupByAgg(df.Slice(lo, hi), []string{"sex", "year"}, specs)
		if combined == nil {
			combined = part
		} else {
			combined.Combine(part)
		}
	}
	got := combined.ToDataFrame()
	if got.NRows() != whole.NRows() {
		t.Fatalf("rows %d vs %d", got.NRows(), whole.NRows())
	}
	for r := 0; r < got.NRows(); r++ {
		if got.Col("sex").S[r] != whole.Col("sex").S[r] ||
			got.Col("year").I[r] != whole.Col("year").I[r] ||
			math.Abs(got.Col("s").F[r]-whole.Col("s").F[r]) > 1e-9 ||
			math.Abs(got.Col("m").F[r]-whole.Col("m").F[r]) > 1e-9 {
			t.Fatalf("row %d differs", r)
		}
	}
}

func TestJoin(t *testing.T) {
	users := NewDataFrame(
		NewInt("userId", []int64{1, 2, 3}),
		NewString("gender", []string{"F", "M", "F"}),
	)
	ratings := NewDataFrame(
		NewInt("userId", []int64{2, 1, 2, 9}),
		NewFloat("rating", []float64{3, 4, 5, 1}),
	)
	ix := NewIndex(users, "userId")
	if ix.Frame() != users || ix.Key() != "userId" {
		t.Fatal("index accessors")
	}
	inner := JoinIndexed(ratings, ix, "userId", Inner)
	if inner.NRows() != 3 {
		t.Fatalf("inner rows = %d", inner.NRows())
	}
	if inner.Col("gender").S[0] != "M" || inner.Col("gender").S[1] != "F" {
		t.Fatal("inner join genders")
	}
	left := JoinIndexed(ratings, ix, "userId", Left)
	if left.NRows() != 4 {
		t.Fatalf("left rows = %d", left.NRows())
	}
	g := left.Col("gender")
	if g.IsValid(3) {
		t.Fatal("unmatched left row should be null")
	}
	// Duplicate right keys fan out.
	dup := NewDataFrame(
		NewInt("userId", []int64{1, 1}),
		NewString("tag", []string{"a", "b"}),
	)
	fan := JoinIndexed(ratings, NewIndex(dup, "userId"), "userId", Inner)
	if fan.NRows() != 2 {
		t.Fatalf("fan-out rows = %d", fan.NRows())
	}
	// String join and collision suffix.
	l := NewDataFrame(NewString("k", []string{"x", "y"}), NewFloat("v", []float64{1, 2}))
	r := NewDataFrame(NewString("k", []string{"y"}), NewFloat("v", []float64{9}))
	j := JoinIndexed(l, NewIndex(r, "k"), "k", Inner)
	if !j.HasCol("v_right") || j.Col("v_right").F[0] != 9 {
		t.Fatal("collision suffix")
	}
}

func TestSortHeadUnique(t *testing.T) {
	df := NewDataFrame(
		NewString("name", []string{"a", "b", "c"}),
		NewFloat("v", []float64{2, 3, 1}),
	)
	asc := SortByFloat(df, "v", true)
	if asc.Col("name").S[0] != "c" || asc.Col("name").S[2] != "b" {
		t.Fatal("SortByFloat asc")
	}
	desc := SortByFloat(df, "v", false)
	if desc.Col("name").S[0] != "b" {
		t.Fatal("SortByFloat desc")
	}
	h := Head(desc, 2)
	if h.NRows() != 2 || Head(df, 10).NRows() != 3 {
		t.Fatal("Head")
	}
	u := UniqueStrings(NewString("s", []string{"a", "b", "a", "c", "b"}))
	if len(u) != 3 || u[0] != "a" || u[2] != "c" {
		t.Fatal("UniqueStrings")
	}
}

func TestGather(t *testing.T) {
	s := NewFloat("x", []float64{10, 20, 30})
	g := s.Gather([]int{2, -1, 0})
	if g.F[0] != 30 || !math.IsNaN(g.F[1]) || g.IsValid(1) || g.F[2] != 10 {
		t.Fatal("Gather with nulls")
	}
	i := NewInt("y", []int64{1, 2, 3}).Gather([]int{1})
	if i.I[0] != 2 {
		t.Fatal("Gather int")
	}
	b := NewBool("b", []bool{true, false}).Gather([]int{1, 0})
	if b.B[0] || !b.B[1] {
		t.Fatal("Gather bool")
	}
}

// ConcatSeries and ConcatDF size every result buffer once, exactly: the
// merge path filters, joins and streaming folds take must not grow buffers
// by append. One allocation per non-empty buffer, plus the headers.
func TestConcatAllocatesExactly(t *testing.T) {
	strs := NewString("s", []string{"a", "b", "c", "d", "e"})
	masked := strs.Slice(3, 5)
	masked.Valid = []bool{true, false}
	parts := []*Series{strs.Slice(0, 1), strs.Slice(1, 3), masked}

	got := ConcatSeries(parts...)
	if len(got.S) != 5 || cap(got.S) != 5 || len(got.Valid) != 5 || cap(got.Valid) != 5 {
		t.Fatalf("len/cap S %d/%d Valid %d/%d, want 5/5 5/5", len(got.S), cap(got.S), len(got.Valid), cap(got.Valid))
	}
	if got.F != nil || got.I != nil || got.B != nil {
		t.Fatalf("unused dtype buffers must stay nil: %+v", got)
	}
	if want := []bool{true, true, true, true, false}; !reflect.DeepEqual(got.Valid, want) {
		t.Fatalf("Valid = %v, want %v (mask-less parts fill all-valid)", got.Valid, want)
	}
	if plain := ConcatSeries(parts[:2]...); plain.Valid != nil || cap(plain.S) != 3 {
		t.Fatalf("no part had a mask: Valid = %v, cap(S) = %d", plain.Valid, cap(plain.S))
	}
	// Series header + S + Valid.
	if n := testing.AllocsPerRun(50, func() { ConcatSeries(parts...) }); n > 3 {
		t.Fatalf("ConcatSeries allocated %v times, want <= 3", n)
	}

	df := NewDataFrame(NewFloat("x", []float64{1, 2, 3, 4}), NewInt("y", []int64{5, 6, 7, 8}))
	dfs := []*DataFrame{df.Slice(0, 1), df.Slice(1, 4)}
	back := ConcatDF(dfs...)
	if cap(back.Cols) != 2 || cap(back.Cols[0].F) != 4 || cap(back.Cols[1].I) != 4 {
		t.Fatalf("ConcatDF caps: cols %d x %d y %d", cap(back.Cols), cap(back.Cols[0].F), cap(back.Cols[1].I))
	}
	// Frame header + Cols + the parts scratch + per column (header + buffer).
	if n := testing.AllocsPerRun(50, func() { ConcatDF(dfs...) }); n > 7 {
		t.Fatalf("ConcatDF allocated %v times, want <= 7", n)
	}
}
