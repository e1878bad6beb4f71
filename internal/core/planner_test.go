package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

// testMatrix is a small row-major matrix used to exercise axis-dependent
// split types (§3.1's normalizeMatrixAxis example).
type testMatrix struct {
	rows, cols int
	data       []float64
}

func newTestMatrix(rows, cols int) *testMatrix {
	m := &testMatrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
	for i := range m.data {
		m.data[i] = float64(i%13) + 1
	}
	return m
}

func (m *testMatrix) clone() *testMatrix {
	return &testMatrix{rows: m.rows, cols: m.cols, data: append([]float64(nil), m.data...)}
}

// matrixSplitter splits by rows when axis==0 and by columns when axis==1.
// Row splits are views; column splits copy (like strided access through a
// crop), so this also exercises the mut write-back path.
type matrixSplitter struct{}

func (matrixSplitter) Info(v any, t SplitType) (RuntimeInfo, error) {
	m := v.(*testMatrix)
	axis := t.Params[2]
	if axis == 0 {
		return RuntimeInfo{Elems: int64(m.rows), ElemBytes: int64(m.cols) * 8}, nil
	}
	return RuntimeInfo{Elems: int64(m.cols), ElemBytes: int64(m.rows) * 8}, nil
}

func (matrixSplitter) Split(v any, t SplitType, start, end int64) (any, error) {
	m := v.(*testMatrix)
	axis := t.Params[2]
	if axis == 0 {
		return &testMatrix{rows: int(end - start), cols: m.cols, data: m.data[start*int64(m.cols) : end*int64(m.cols)]}, nil
	}
	// Column split: copy the strided columns out.
	w := int(end - start)
	out := &testMatrix{rows: m.rows, cols: w, data: make([]float64, m.rows*w)}
	for r := 0; r < m.rows; r++ {
		copy(out.data[r*w:(r+1)*w], m.data[r*m.cols+int(start):r*m.cols+int(end)])
	}
	return out, nil
}

func (matrixSplitter) Merge(pieces []any, t SplitType) (any, error) {
	axis := t.Params[2]
	if len(pieces) == 0 {
		return &testMatrix{}, nil
	}
	first := pieces[0].(*testMatrix)
	if axis == 0 {
		out := &testMatrix{cols: first.cols}
		for _, p := range pieces {
			pm := p.(*testMatrix)
			out.rows += pm.rows
			out.data = append(out.data, pm.data...)
		}
		return out, nil
	}
	cols := 0
	for _, p := range pieces {
		cols += p.(*testMatrix).cols
	}
	out := &testMatrix{rows: first.rows, cols: cols, data: make([]float64, first.rows*cols)}
	off := 0
	for _, p := range pieces {
		pm := p.(*testMatrix)
		for r := 0; r < pm.rows; r++ {
			copy(out.data[r*cols+off:r*cols+off+pm.cols], pm.data[r*pm.cols:(r+1)*pm.cols])
		}
		off += pm.cols
	}
	return out, nil
}

// matrixSplitOf is MatrixSplit(m, axis): params are (rows, cols, axis).
func matrixSplitOf(mIdx, axisIdx int) TypeExpr {
	return Concrete("MatrixSplit", matrixSplitter{}, func(args []any) (SplitType, error) {
		m, ok := args[mIdx].(*testMatrix)
		if !ok || m == nil {
			return SplitType{}, fmt.Errorf("MatrixSplit ctor: matrix argument unavailable")
		}
		axis, ok := args[axisIdx].(int)
		if !ok {
			return SplitType{}, fmt.Errorf("MatrixSplit ctor: axis argument unavailable")
		}
		return NewSplitType("MatrixSplit", int64(m.rows), int64(m.cols), int64(axis)), nil
	})
}

// saNormalizeAxis mirrors Listing 4 Ex. 1.
var saNormalizeAxis = &Annotation{
	FuncName: "normalizeMatrixAxis",
	Params: []Param{
		{Name: "m", Mut: true, Type: matrixSplitOf(0, 1)},
		{Name: "axis", Type: Missing()},
	},
}

// fnNormalizeAxis normalizes each row (axis 0) or column (axis 1) to sum 1.
var fnNormalizeAxis Func = func(args []any) (any, error) {
	m := args[0].(*testMatrix)
	axis := args[1].(int)
	if axis == 0 {
		for r := 0; r < m.rows; r++ {
			row := m.data[r*m.cols : (r+1)*m.cols]
			s := 0.0
			for _, x := range row {
				s += x
			}
			for i := range row {
				row[i] /= s
			}
		}
		return nil, nil
	}
	for c := 0; c < m.cols; c++ {
		s := 0.0
		for r := 0; r < m.rows; r++ {
			s += m.data[r*m.cols+c]
		}
		for r := 0; r < m.rows; r++ {
			m.data[r*m.cols+c] /= s
		}
	}
	return nil, nil
}

// TestMatrixAxisStageBreak reproduces §3.1: normalize by rows then by
// columns; the mismatched MatrixSplit parameters must break the stage.
func TestMatrixAxisStageBreak(t *testing.T) {
	m := newTestMatrix(60, 40)
	ref := m.clone()
	fnNormalizeAxis([]any{ref, 0})
	fnNormalizeAxis([]any{ref, 1})

	s := NewSession(Options{Workers: 4, BatchElems: 7})
	fut := s.Track(m)
	s.Call(fnNormalizeAxis, saNormalizeAxis, m, 0)
	s.Call(fnNormalizeAxis, saNormalizeAxis, m, 1)
	v, err := fut.Get()
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*testMatrix)
	if got.rows != ref.rows || got.cols != ref.cols {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", got.rows, got.cols, ref.rows, ref.cols)
	}
	for i := range got.data {
		if math.Abs(got.data[i]-ref.data[i]) > 1e-9 {
			t.Fatalf("data mismatch at %d: %v vs %v", i, got.data[i], ref.data[i])
		}
	}
	if s.Stats().Stages != 2 {
		t.Errorf("row-then-column normalize must take 2 stages, got %d", s.Stats().Stages)
	}
}

// TestMatrixSameAxisPipelines: two row-wise calls share one stage.
func TestMatrixSameAxisPipelines(t *testing.T) {
	m := newTestMatrix(64, 16)
	ref := m.clone()
	fnNormalizeAxis([]any{ref, 0})
	fnNormalizeAxis([]any{ref, 0})

	s := NewSession(Options{Workers: 3, BatchElems: 5})
	fut := s.Track(m)
	s.Call(fnNormalizeAxis, saNormalizeAxis, m, 0)
	s.Call(fnNormalizeAxis, saNormalizeAxis, m, 0)
	v, err := fut.Get()
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*testMatrix)
	for i := range got.data {
		if math.Abs(got.data[i]-ref.data[i]) > 1e-9 {
			t.Fatalf("data mismatch at %d", i)
		}
	}
	if s.Stats().Stages != 1 {
		t.Errorf("same-axis calls should pipeline into 1 stage, got %d", s.Stats().Stages)
	}
}

// TestColumnSplitWriteBack: axis-1 splits copy, so mutation must write back
// through the merged value.
func TestColumnSplitWriteBack(t *testing.T) {
	m := newTestMatrix(10, 50)
	ref := m.clone()
	fnNormalizeAxis([]any{ref, 1})

	s := NewSession(Options{Workers: 4, BatchElems: 3})
	fut := s.Track(m)
	s.Call(fnNormalizeAxis, saNormalizeAxis, m, 1)
	v, err := fut.Get()
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*testMatrix)
	for i := range got.data {
		if math.Abs(got.data[i]-ref.data[i]) > 1e-9 {
			t.Fatalf("write-back mismatch at %d", i)
		}
	}
}

// TestSplitTypeBasics covers equality, unknown identity, and printing.
func TestSplitTypeBasics(t *testing.T) {
	a := NewSplitType("ArraySplit", 10)
	b := NewSplitType("ArraySplit", 10)
	c := NewSplitType("ArraySplit", 20)
	d := NewSplitType("MatrixSplit", 10)
	if !a.Equal(b) {
		t.Error("equal types should compare equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different params or names must not compare equal")
	}
	u1, u2 := NewUnknownType(), NewUnknownType()
	if u1.Equal(u2) {
		t.Error("two unknowns must differ")
	}
	if !u1.Equal(u1) {
		t.Error("an unknown must equal itself")
	}
	if !u1.IsUnknown() || a.IsUnknown() {
		t.Error("IsUnknown misreports")
	}
	var zero SplitType
	if !zero.IsZero() || a.IsZero() {
		t.Error("IsZero misreports")
	}
	if a.String() != "ArraySplit<10>" {
		t.Errorf("String() = %q", a.String())
	}
	if NewSplitType("X").String() != "X" {
		t.Errorf("parameterless String() = %q", NewSplitType("X").String())
	}
	if zero.String() != "<none>" {
		t.Errorf("zero String() = %q", zero.String())
	}
}

// TestSplitTypeStringOneAllocation: the rendering every plan, explain golden
// and stage event embeds is byte-identical to the fmt-based one it replaced,
// and costs one allocation while it fits the 64-byte stack buffer.
func TestSplitTypeStringOneAllocation(t *testing.T) {
	long := make([]int64, 12) // renders past the stack buffer
	for i := range long {
		long[i] = math.MinInt64 + int64(i)
	}
	for _, st := range []SplitType{
		NewSplitType("ArraySplit", 64),
		NewSplitType("MatrixSplit", 1024, 0, -3),
		NewSplitType("RegularSplit", long...),
		NewUnknownType(),
	} {
		want := st.Name
		if st.IsUnknown() {
			want = fmt.Sprintf("unknown#%d", st.unknownID)
		} else {
			parts := make([]string, len(st.Params))
			for i, p := range st.Params {
				parts[i] = fmt.Sprint(p)
			}
			want += "<" + strings.Join(parts, ", ") + ">"
		}
		if got := st.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = st.String() }); n > 1 && len(want) <= 64 {
			t.Errorf("%s: %v allocations per String, want <= 1", want, n)
		}
	}
}

// TestBatchSizeHeuristic checks the C*L2/sum(elem) formula and clamping.
func TestBatchSizeHeuristic(t *testing.T) {
	o := Options{L2CacheBytes: 256 << 10}.withDefaults()
	// 3 arrays of float64: sum = 24 bytes/elem.
	if got := o.batchSize(24, 1<<30); got != int64(4*(256<<10)/24) {
		t.Errorf("batch = %d", got)
	}
	// Clamp to total.
	if got := o.batchSize(24, 100); got != 100 {
		t.Errorf("batch should clamp to total, got %d", got)
	}
	// Override.
	o.BatchElems = 512
	if got := o.batchSize(24, 1<<20); got != 512 {
		t.Errorf("override ignored, got %d", got)
	}
	// Zero elem bytes doesn't divide by zero.
	o.BatchElems = 0
	if got := o.batchSize(0, 1<<40); got <= 0 {
		t.Errorf("zero elem bytes mishandled: %d", got)
	}
}

// TestPedanticNilPiece: pedantic mode rejects nil pieces.
func TestPedanticNilPiece(t *testing.T) {
	nilSplit := Concrete("NilSplit", nilSplitter{}, FixedCtor(NewSplitType("NilSplit", 1)))
	sa := &Annotation{FuncName: "f", Params: []Param{{Name: "a", Type: nilSplit}}}
	s := NewSession(Options{Workers: 1, Pedantic: true})
	s.Call(func(args []any) (any, error) { return nil, nil }, sa, seq(8))
	if err := s.EvaluateContext(context.Background()); err == nil {
		t.Fatal("pedantic mode should reject nil pieces")
	}
}

type nilSplitter struct{}

func (nilSplitter) Info(v any, t SplitType) (RuntimeInfo, error) {
	return RuntimeInfo{Elems: 4, ElemBytes: 8}, nil
}
func (nilSplitter) Split(v any, t SplitType, start, end int64) (any, error) { return nil, nil }
func (nilSplitter) Merge(pieces []any, t SplitType) (any, error)            { return nil, nil }

// TestUnsplittableWholeCall: a function annotated with only "_" arguments
// (one Mozart cannot split) executes whole, once, in its own stage, and its
// result can feed later split stages.
func TestUnsplittableWholeCall(t *testing.T) {
	reverse := &Annotation{
		FuncName: "reverse",
		Params:   []Param{{Name: "a", Type: Missing()}},
		Ret:      func() *TypeExpr { u := Unknown(); return &u }(),
	}
	var callCount int
	fnReverse := func(args []any) (any, error) {
		callCount++
		a := args[0].([]float64)
		out := make([]float64, len(a))
		for i := range a {
			out[i] = a[len(a)-1-i]
		}
		return out, nil
	}

	a, b := seq(400), seq(400)
	s := NewSession(Options{Workers: 4, BatchElems: 13})
	c := s.Call(fnAddNew, saAddNew, a, b) // split stage
	r := s.Call(fnReverse, reverse, c)    // whole stage
	d := s.Call(fnAddNew, saAddNew, r, b) // split stage
	got, err := d.Float64s()
	if err != nil {
		t.Fatal(err)
	}
	if callCount != 1 {
		t.Fatalf("unsplittable call ran %d times, want 1", callCount)
	}
	n := len(a)
	want := make([]float64, n)
	for i := range want {
		want[i] = (a[n-1-i] + b[n-1-i]) + b[i]
	}
	if !almostEqual(got, want) {
		t.Fatal("whole-call pipeline mismatch")
	}
	if s.Stats().Stages != 3 {
		t.Errorf("want 3 stages (split / whole / split), got %d", s.Stats().Stages)
	}
}

// TestMismatchedElementCounts: inputs disagreeing on Elems fail loudly.
func TestMismatchedElementCounts(t *testing.T) {
	a, b := seq(100), seq(50)
	s := NewSession(Options{Workers: 2})
	s.Call(fnAddNew, saAddNew, a, b)
	if err := s.EvaluateContext(context.Background()); err == nil {
		t.Fatal("mismatched element counts must fail")
	}
}

// TestStageIsOneElementSpace: two independent pipelines over different
// element counts share no binding, so nothing in the type check relates
// them. They must still land in separate stages, because a stage batches
// one element range; planned into one, the evaluation failed with "split
// inputs disagree on element count: 1000 vs 500". Calls of one element
// count that share no binding still pipeline.
func TestStageIsOneElementSpace(t *testing.T) {
	a, b, c := seq(1000), seq(500), seq(1000)
	wantA, wantB := append([]float64(nil), a...), append([]float64(nil), b...)
	for i := range wantA {
		wantA[i] = math.Log1p(wantA[i])
	}
	for i := range wantB {
		wantB[i] = math.Log1p(wantB[i])
	}
	s := NewSession(Options{Workers: 2})
	s.Call(testLog1p, saUnary("log1p"), 1000, a, a)
	s.Call(testLog1p, saUnary("log1p"), 500, b, b)
	s.Call(testLog1p, saUnary("log1p"), 1000, c, c)
	p, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages) != 3 {
		t.Fatalf("%d stages, want 3 (1000, 500, 1000 elements):\n%s", len(p.Stages), p.Describe())
	}
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != wantA[i] || c[i] != wantA[i] {
			t.Fatalf("a[%d] = %v, c[%d] = %v, want %v", i, a[i], i, c[i], wantA[i])
		}
	}
	for i := range b {
		if b[i] != wantB[i] {
			t.Fatalf("b[%d] = %v, want %v", i, b[i], wantB[i])
		}
	}

	s = NewSession(Options{Workers: 2})
	s.Call(testLog1p, saUnary("log1p"), 1000, a, a)
	s.Call(testLog1p, saUnary("log1p"), 1000, c, c)
	if p, err := s.Plan(); err != nil || len(p.Stages) != 1 {
		t.Fatalf("two independent calls over 1000 elements: %v, want one stage (err %v)", p, err)
	}
}
