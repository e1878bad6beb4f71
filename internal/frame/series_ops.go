package frame

import (
	"fmt"
	"math"
	"strings"
)

func checkFloat(s *Series, op string) {
	if s.Dtype != Float {
		panic(fmt.Sprintf("frame: %s needs a float series, got %v", op, s.Dtype))
	}
}

func checkString(s *Series, op string) {
	if s.Dtype != String {
		panic(fmt.Sprintf("frame: %s needs a string series, got %v", op, s.Dtype))
	}
}

// The element-wise functions below come in two forms. XInto(dst, a, …) is the
// implementation: it writes its result into dst when dst is an earlier result
// with room for it (see shape) and into fresh storage otherwise, so a caller
// that no longer needs an old result hands it back instead of sending the
// allocator and the cache to new memory (NumPy's out=). dst's contents are
// overwritten; it must not share storage with the arguments, and neither does
// the result. X(a, …) is XInto(nil, a, …), the out-of-place form.

func floatBinary(dst, a, b *Series, name string, f func(x, y float64) float64) *Series {
	checkFloat(a, name)
	checkFloat(b, name)
	if a.Len() != b.Len() {
		panic("frame: series length mismatch")
	}
	res := shape(dst, a.Name, Float, a.Len(), a.Valid != nil || b.Valid != nil)
	out := res.F
	for i := range out {
		out[i] = f(a.F[i], b.F[i])
	}
	for i := range res.Valid {
		res.Valid[i] = a.IsValid(i) && b.IsValid(i)
	}
	return res
}

// AddSeries returns a + b.
func AddSeries(a, b *Series) *Series { return AddSeriesInto(nil, a, b) }

// AddSeriesInto is AddSeries into dst.
func AddSeriesInto(dst, a, b *Series) *Series {
	return floatBinary(dst, a, b, "AddSeries", func(x, y float64) float64 { return x + y })
}

// SubSeries returns a - b.
func SubSeries(a, b *Series) *Series { return SubSeriesInto(nil, a, b) }

// SubSeriesInto is SubSeries into dst.
func SubSeriesInto(dst, a, b *Series) *Series {
	return floatBinary(dst, a, b, "SubSeries", func(x, y float64) float64 { return x - y })
}

// MulSeries returns a * b.
func MulSeries(a, b *Series) *Series { return MulSeriesInto(nil, a, b) }

// MulSeriesInto is MulSeries into dst.
func MulSeriesInto(dst, a, b *Series) *Series {
	return floatBinary(dst, a, b, "MulSeries", func(x, y float64) float64 { return x * y })
}

// DivSeries returns a / b.
func DivSeries(a, b *Series) *Series { return DivSeriesInto(nil, a, b) }

// DivSeriesInto is DivSeries into dst.
func DivSeriesInto(dst, a, b *Series) *Series {
	return floatBinary(dst, a, b, "DivSeries", func(x, y float64) float64 { return x / y })
}

func floatScalar(dst, a *Series, c float64, name string, f func(x, c float64) float64) *Series {
	checkFloat(a, name)
	res := shape(dst, a.Name, Float, a.Len(), a.Valid != nil)
	out := res.F
	for i := range out {
		out[i] = f(a.F[i], c)
	}
	copy(res.Valid, a.Valid)
	return res
}

// AddScalar returns a + c.
func AddScalar(a *Series, c float64) *Series { return AddScalarInto(nil, a, c) }

// AddScalarInto is AddScalar into dst.
func AddScalarInto(dst, a *Series, c float64) *Series {
	return floatScalar(dst, a, c, "AddScalar", func(x, c float64) float64 { return x + c })
}

// SubScalar returns a - c.
func SubScalar(a *Series, c float64) *Series { return SubScalarInto(nil, a, c) }

// SubScalarInto is SubScalar into dst.
func SubScalarInto(dst, a *Series, c float64) *Series {
	return floatScalar(dst, a, c, "SubScalar", func(x, c float64) float64 { return x - c })
}

// MulScalar returns a * c.
func MulScalar(a *Series, c float64) *Series { return MulScalarInto(nil, a, c) }

// MulScalarInto is MulScalar into dst.
func MulScalarInto(dst, a *Series, c float64) *Series {
	return floatScalar(dst, a, c, "MulScalar", func(x, c float64) float64 { return x * c })
}

// DivScalar returns a / c.
func DivScalar(a *Series, c float64) *Series { return DivScalarInto(nil, a, c) }

// DivScalarInto is DivScalar into dst.
func DivScalarInto(dst, a *Series, c float64) *Series {
	return floatScalar(dst, a, c, "DivScalar", func(x, c float64) float64 { return x / c })
}

// maskOf shapes dst as a mask over a's rows: a bool series with a's name and
// no null mask of its own, and its rows for the caller to fill.
func maskOf(dst, a *Series) (res *Series, out []bool) {
	res = shape(dst, a.Name, Bool, a.Len(), false)
	return res, res.B
}

// GtScalar returns the a > c mask.
func GtScalar(a *Series, c float64) *Series { return GtScalarInto(nil, a, c) }

// GtScalarInto is GtScalar into dst.
func GtScalarInto(dst, a *Series, c float64) *Series {
	checkFloat(a, "GtScalar")
	res, out := maskOf(dst, a)
	for i := range out {
		out[i] = a.IsValid(i) && a.F[i] > c
	}
	return res
}

// LtScalar returns the a < c mask.
func LtScalar(a *Series, c float64) *Series { return LtScalarInto(nil, a, c) }

// LtScalarInto is LtScalar into dst.
func LtScalarInto(dst, a *Series, c float64) *Series {
	checkFloat(a, "LtScalar")
	res, out := maskOf(dst, a)
	for i := range out {
		out[i] = a.IsValid(i) && a.F[i] < c
	}
	return res
}

// GeScalar returns the a >= c mask.
func GeScalar(a *Series, c float64) *Series { return GeScalarInto(nil, a, c) }

// GeScalarInto is GeScalar into dst.
func GeScalarInto(dst, a *Series, c float64) *Series {
	checkFloat(a, "GeScalar")
	res, out := maskOf(dst, a)
	for i := range out {
		out[i] = a.IsValid(i) && a.F[i] >= c
	}
	return res
}

// EqString returns the a == v mask for string series.
func EqString(a *Series, v string) *Series { return EqStringInto(nil, a, v) }

// EqStringInto is EqString into dst.
func EqStringInto(dst, a *Series, v string) *Series {
	checkString(a, "EqString")
	res, out := maskOf(dst, a)
	for i := range out {
		out[i] = a.IsValid(i) && a.S[i] == v
	}
	return res
}

// InStrings returns a mask of rows whose value is any of vals.
func InStrings(a *Series, vals ...string) *Series { return InStringsInto(nil, a, vals...) }

// InStringsInto is InStrings into dst.
func InStringsInto(dst, a *Series, vals ...string) *Series {
	checkString(a, "InStrings")
	set := make(map[string]bool, len(vals))
	for _, v := range vals {
		set[v] = true
	}
	res, out := maskOf(dst, a)
	for i := range out {
		out[i] = a.IsValid(i) && set[a.S[i]]
	}
	return res
}

// And returns the elementwise conjunction of two bool series.
func And(a, b *Series) *Series { return AndInto(nil, a, b) }

// AndInto is And into dst.
func AndInto(dst, a, b *Series) *Series {
	res, out := maskOf(dst, a)
	for i := range out {
		out[i] = a.B[i] && b.B[i]
	}
	return res
}

// Or returns the elementwise disjunction of two bool series.
func Or(a, b *Series) *Series { return OrInto(nil, a, b) }

// OrInto is Or into dst.
func OrInto(dst, a, b *Series) *Series {
	res, out := maskOf(dst, a)
	for i := range out {
		out[i] = a.B[i] || b.B[i]
	}
	return res
}

// Not returns the elementwise negation of a bool series.
func Not(a *Series) *Series { return NotInto(nil, a) }

// NotInto is Not into dst.
func NotInto(dst, a *Series) *Series {
	res, out := maskOf(dst, a)
	for i := range out {
		out[i] = !a.B[i]
	}
	return res
}

// IsNull returns the mask of null rows (Pandas isna; NaN counts as null for
// float series).
func IsNull(a *Series) *Series { return IsNullInto(nil, a) }

// IsNullInto is IsNull into dst.
func IsNullInto(dst, a *Series) *Series {
	res, out := maskOf(dst, a)
	for i := range out {
		out[i] = !a.IsValid(i) || (a.Dtype == Float && math.IsNaN(a.F[i]))
	}
	return res
}

// FillNullFloat replaces null rows of a float series with v (fillna).
func FillNullFloat(a *Series, v float64) *Series { return FillNullFloatInto(nil, a, v) }

// FillNullFloatInto is FillNullFloat into dst.
func FillNullFloatInto(dst, a *Series, v float64) *Series {
	checkFloat(a, "FillNullFloat")
	res := shape(dst, a.Name, Float, a.Len(), false)
	out := res.F
	copy(out, a.F)
	for i := range out {
		if !a.IsValid(i) || math.IsNaN(out[i]) {
			out[i] = v
		}
	}
	return res
}

// MaskToNull marks rows where mask is true as null (Pandas
// where/mask-with-NaN).
func MaskToNull(a *Series, mask *Series) *Series { return MaskToNullInto(nil, a, mask) }

// MaskToNullInto is MaskToNull into dst.
func MaskToNullInto(dst, a *Series, mask *Series) *Series {
	out := shape(dst, a.Name, a.Dtype, a.Len(), true)
	out.copyRows(a)
	for i := range out.Valid {
		if mask.B[i] {
			out.Valid[i] = false
			if out.Dtype == Float {
				out.F[i] = math.NaN()
			}
		}
	}
	return out
}

// StrSlice returns the [from, to) substring of each row (str.slice); short
// strings are truncated, null rows stay null.
func StrSlice(a *Series, from, to int) *Series { return StrSliceInto(nil, a, from, to) }

// StrSliceInto is StrSlice into dst.
func StrSliceInto(dst, a *Series, from, to int) *Series {
	checkString(a, "StrSlice")
	res := shape(dst, a.Name, String, a.Len(), a.Valid != nil)
	out := res.S
	for i, v := range a.S {
		sub := ""
		if a.IsValid(i) {
			f, t := from, to
			if f > len(v) {
				f = len(v)
			}
			if t > len(v) {
				t = len(v)
			}
			if f < t {
				sub = v[f:t]
			}
		}
		out[i] = sub
	}
	copy(res.Valid, a.Valid)
	return res
}

// StrStartsWith returns the mask of rows starting with prefix.
func StrStartsWith(a *Series, prefix string) *Series { return StrStartsWithInto(nil, a, prefix) }

// StrStartsWithInto is StrStartsWith into dst.
func StrStartsWithInto(dst, a *Series, prefix string) *Series {
	checkString(a, "StrStartsWith")
	res, out := maskOf(dst, a)
	for i, v := range a.S {
		out[i] = a.IsValid(i) && strings.HasPrefix(v, prefix)
	}
	return res
}

// StrContains returns the mask of rows containing sub.
func StrContains(a *Series, sub string) *Series { return StrContainsInto(nil, a, sub) }

// StrContainsInto is StrContains into dst.
func StrContainsInto(dst, a *Series, sub string) *Series {
	checkString(a, "StrContains")
	res, out := maskOf(dst, a)
	for i, v := range a.S {
		out[i] = a.IsValid(i) && strings.Contains(v, sub)
	}
	return res
}

// StrLenGt returns the mask of rows longer than n.
func StrLenGt(a *Series, n int) *Series { return StrLenGtInto(nil, a, n) }

// StrLenGtInto is StrLenGt into dst.
func StrLenGtInto(dst, a *Series, n int) *Series {
	checkString(a, "StrLenGt")
	res, out := maskOf(dst, a)
	for i, v := range a.S {
		out[i] = a.IsValid(i) && len(v) > n
	}
	return res
}

// SumFloat returns the sum of valid rows.
func SumFloat(a *Series) float64 {
	checkFloat(a, "SumFloat")
	s := 0.0
	for i, x := range a.F {
		if a.IsValid(i) && !math.IsNaN(x) {
			s += x
		}
	}
	return s
}

// CountValid returns the number of non-null rows.
func CountValid(a *Series) int64 {
	n := int64(0)
	for i := 0; i < a.Len(); i++ {
		if a.IsValid(i) && !(a.Dtype == Float && math.IsNaN(a.F[i])) {
			n++
		}
	}
	return n
}

// MeanPartial carries a partial (sum, count) pair; partials from row chunks
// add, and the quotient is the mean.
type MeanPartial struct {
	Sum   float64
	Count int64
}

// Mean returns the (sum, count) partial of valid rows.
func Mean(a *Series) MeanPartial {
	return MeanPartial{Sum: SumFloat(a), Count: CountValid(a)}
}

// Value returns the mean, or NaN for an empty partial.
func (m MeanPartial) Value() float64 {
	if m.Count == 0 {
		return math.NaN()
	}
	return m.Sum / float64(m.Count)
}

// UniqueStrings returns the distinct values of a string series in first-seen
// order (whole-series operation).
func UniqueStrings(a *Series) []string {
	checkString(a, "UniqueStrings")
	seen := map[string]bool{}
	var out []string
	for i, v := range a.S {
		if a.IsValid(i) && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
