package framesa

import (
	"fmt"
	"math"
	"math/rand"

	"mozart/internal/annotations/checksuite"
	"mozart/internal/core"
	"mozart/internal/frame"
)

// CheckCases exposes representative annotation/function pairs — binary,
// unary, and scalar series shapes, including null handling, every call of the
// data-cleaning chain over a string column (with a null mask on even seeds,
// without on odd ones), and two frame shapes — for the repository-wide
// soundness suite in internal/annotations/checksuite.
func CheckCases() []checksuite.Case {
	series := func(name string, n int, seed int64) *frame.Series {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, n)
		valid := make([]bool, n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
			valid[i] = rng.Intn(10) != 0
		}
		s := frame.NewFloat(name, vals)
		s.Valid = valid
		return s
	}
	// A dirty zip-code column and a mask column, as the cleaning chain sees
	// them.
	zips := func(n int, seed int64) *frame.Series {
		rng := rand.New(rand.NewSource(seed))
		dirty := []string{"NO CLUE", "N/A", "0", "", "1234"}
		vals := make([]string, n)
		valid := make([]bool, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("%05d-%04d", rng.Intn(100000), rng.Intn(10000))
			if rng.Intn(4) == 0 {
				vals[i] = dirty[rng.Intn(len(dirty))]
			}
			valid[i] = rng.Intn(10) != 0
		}
		s := frame.NewString("zip", vals)
		if seed%2 == 0 {
			s.Valid = valid
		}
		return s
	}
	flags := func(n int, seed int64) *frame.Series {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = rng.Intn(3) == 0
		}
		return frame.NewBool("zip", vals)
	}
	genZips := func(extra ...any) func(seed int64) []any {
		return func(seed int64) []any { return append([]any{zips(211, seed)}, extra...) }
	}
	genFlags := func(seed int64) []any { return []any{flags(163, seed), flags(163, seed+1)} }
	genZipsFlags := func(seed int64) []any { return []any{zips(181, seed), flags(181, seed+1)} }
	genBinary := func(seed int64) []any {
		return []any{series("a", 219, seed), series("b", 219, seed+1)}
	}
	genUnary := func(seed int64) []any { return []any{series("a", 173, seed)} }
	genScalar := func(seed int64) []any { return []any{series("a", 147, seed), 3.5} }
	// Frame shapes: a column read out of a frame (Series pieces under
	// DfSplit) and a frame-returning call (DataFrame pieces); the "plain"
	// column carries no null mask.
	df := func(n int, seed int64) *frame.DataFrame {
		plain := series("plain", n, seed+2)
		plain.Valid = nil
		return frame.NewDataFrame(series("x", n, seed), series("y", n, seed+1), plain)
	}
	genCol := func(seed int64) []any { return []any{df(131, seed), "y"} }
	genWithCol := func(seed int64) []any { return []any{df(157, seed), series("z", 157, seed+3)} }
	seriesEq := func(g, w *frame.Series) bool {
		if g == nil || w == nil || g.Name != w.Name || g.Dtype != w.Dtype || g.Len() != w.Len() {
			return false
		}
		for i := 0; i < g.Len(); i++ {
			if g.IsValid(i) != w.IsValid(i) {
				return false
			}
			if !g.IsValid(i) {
				continue
			}
			switch g.Dtype {
			case frame.Float:
				if g.F[i] != w.F[i] && !(math.IsNaN(g.F[i]) && math.IsNaN(w.F[i])) {
					return false
				}
			case frame.Int:
				if g.I[i] != w.I[i] {
					return false
				}
			case frame.String:
				if g.S[i] != w.S[i] {
					return false
				}
			case frame.Bool:
				if g.B[i] != w.B[i] {
					return false
				}
			}
		}
		return true
	}
	eq := func(got, want any) bool {
		switch w := want.(type) {
		case *frame.DataFrame:
			g, ok := got.(*frame.DataFrame)
			if !ok || len(g.Cols) != len(w.Cols) {
				return false
			}
			for i := range g.Cols {
				if !seriesEq(g.Cols[i], w.Cols[i]) {
					return false
				}
			}
			return true
		case *frame.Series:
			g, _ := got.(*frame.Series)
			return seriesEq(g, w)
		}
		return got == want // a reduction's scalar
	}
	cfg := core.CheckConfig{Trials: 6, MaxBatch: 64}
	return []checksuite.Case{
		{Name: "sr.add", CheckSpec: core.CheckSpec{FnInto: addFn, Annotation: addSA, Gen: genBinary, Eq: eq, Config: cfg}},
		{Name: "sr.div", CheckSpec: core.CheckSpec{FnInto: divFn, Annotation: divSA, Gen: genBinary, Eq: eq, Config: cfg}},
		{Name: "sr.isnull", CheckSpec: core.CheckSpec{FnInto: isNullFn, Annotation: isNullSA, Gen: genUnary, Eq: eq, Config: cfg}},
		{Name: "sr.gt", CheckSpec: core.CheckSpec{FnInto: gtFn, Annotation: gtSA, Gen: genScalar, Eq: eq, Config: cfg}},
		{Name: "sr.fillna", CheckSpec: core.CheckSpec{FnInto: fillNaFn, Annotation: fillNaSA, Gen: genScalar, Eq: eq, Config: cfg}},
		{Name: "sr.str.slice", CheckSpec: core.CheckSpec{FnInto: strSliceFn, Annotation: strSliceSA, Gen: genZips(0, 5), Eq: eq, Config: cfg}},
		{Name: "sr.isin", CheckSpec: core.CheckSpec{FnInto: inStrFn, Annotation: inStrSA, Gen: genZips([]string{"NO CLUE", "N/A"}), Eq: eq, Config: cfg}},
		{Name: "sr.eq", CheckSpec: core.CheckSpec{FnInto: eqStrFn, Annotation: eqStrSA, Gen: genZips("0"), Eq: eq, Config: cfg}},
		{Name: "sr.or", CheckSpec: core.CheckSpec{FnInto: orFn, Annotation: orSA, Gen: genFlags, Eq: eq, Config: cfg}},
		{Name: "sr.maskToNull", CheckSpec: core.CheckSpec{FnInto: m2nFn, Annotation: m2nSA, Gen: genZipsFlags, Eq: eq, Config: cfg}},
		{Name: "sr.str.len.gt", CheckSpec: core.CheckSpec{FnInto: strLenGtFn, Annotation: strLenGtSA, Gen: genZips(4), Eq: eq, Config: cfg}},
		{Name: "sr.count", CheckSpec: core.CheckSpec{FnInto: countFn, Annotation: countSA, Gen: genZips(), Eq: eq, Config: cfg}},
		{Name: "df.col", CheckSpec: core.CheckSpec{Fn: colFn, Annotation: colSA, Gen: genCol, Eq: eq, Config: cfg}},
		{Name: "df.withColumn", CheckSpec: core.CheckSpec{Fn: withColFn, Annotation: withColSA, Gen: genWithCol, Eq: eq, Config: cfg}},
	}
}
