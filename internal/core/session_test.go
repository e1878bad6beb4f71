package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func newTestSession(workers int) *Session {
	return NewSession(Options{Workers: workers, BatchElems: 100})
}

// TestInPlacePipeline runs the paper's Listing 1 shape: three in-place MKL
// style calls pipelined into one stage.
func TestInPlacePipeline(t *testing.T) {
	const n = 1000
	d1 := seq(n)
	tmp := seq(n)
	vol := make([]float64, n)
	for i := range vol {
		vol[i] = 2.0
	}

	want := make([]float64, n)
	for i := range want {
		want[i] = (math.Log1p(d1[i]) + tmp[i]) / vol[i]
	}

	s := newTestSession(4)
	s.Call(testLog1p, saUnary("vdLog1p"), n, d1, d1)
	s.Call(testAdd, saBinary("vdAdd"), n, d1, tmp, d1)
	s.Call(testDiv, saBinary("vdDiv"), n, d1, vol, d1)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d1, want) {
		t.Fatalf("pipeline result mismatch")
	}
	st := s.Stats()
	if st.Stages != 1 {
		t.Errorf("want 1 stage (fully pipelined), got %d", st.Stages)
	}
	// 4 workers x 250 elems each at batch 100 -> 3 batches per worker.
	if st.Batches != 12 {
		t.Errorf("want 12 batches for 1000 elems, 4 workers, batch 100, got %d", st.Batches)
	}
	if st.Calls != 36 {
		t.Errorf("want 36 piece calls (3 fns x 12 batches), got %d", st.Calls)
	}
}

// TestReturnValuePipeline pipelines functions that return fresh arrays and
// checks that intermediates are discarded while results materialize.
func TestReturnValuePipeline(t *testing.T) {
	a, b := seq(512), seq(512)
	s := newTestSession(3)
	c := s.Call(fnAddNew, saAddNew, a, b)
	d := s.Call(fnAddNew, saAddNew, c, b)

	got, err := d.Float64s()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(a))
	for i := range want {
		want[i] = a[i] + 2*b[i]
	}
	if !almostEqual(got, want) {
		t.Fatalf("result mismatch")
	}
	if _, err := c.Get(); !errors.Is(err, ErrDiscarded) {
		t.Errorf("intermediate should be discarded, got err=%v", err)
	}
	if s.Stats().Stages != 1 {
		t.Errorf("want 1 stage, got %d", s.Stats().Stages)
	}
}

// TestKeepMaterializesIntermediate checks Future.Keep.
func TestKeepMaterializesIntermediate(t *testing.T) {
	a, b := seq(256), seq(256)
	s := newTestSession(2)
	c := s.Call(fnAddNew, saAddNew, a, b).Keep()
	s.Call(fnAddNew, saAddNew, c, b)
	got, err := c.Float64s()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(a))
	for i := range want {
		want[i] = a[i] + b[i]
	}
	if !almostEqual(got, want) {
		t.Fatalf("kept intermediate mismatch")
	}
}

// TestBroadcastScalar checks "_" parameters.
func TestBroadcastScalar(t *testing.T) {
	a := seq(300)
	want := make([]float64, len(a))
	for i := range want {
		want[i] = a[i] * 3
	}
	s := newTestSession(4)
	s.Call(fnScale, saScale, a, 3.0)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a, want) {
		t.Fatalf("scale mismatch")
	}
}

// TestReduction checks reduction split types whose merge combines partials.
func TestReduction(t *testing.T) {
	a := seq(1000)
	want := 0.0
	for _, x := range a {
		want += x
	}
	s := newTestSession(4)
	f := s.Call(fnSum, saSum, a)
	got, err := f.Float64()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

// TestPipelineWithReduction: elementwise ops pipelined with a final
// reduction all in one stage.
func TestPipelineWithReduction(t *testing.T) {
	a, b := seq(800), seq(800)
	s := newTestSession(4)
	c := s.Call(fnAddNew, saAddNew, a, b)
	f := s.Call(fnSum, saSum, c)
	got, err := f.Float64()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := range a {
		want += a[i] + b[i]
	}
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if s.Stats().Stages != 1 {
		t.Errorf("want 1 stage, got %d", s.Stats().Stages)
	}
}

// TestUnknownThenGeneric: a filter producing an unknown split type can still
// pipe into a generic consumer (§3.2).
func TestUnknownThenGeneric(t *testing.T) {
	a := make([]float64, 600)
	for i := range a {
		a[i] = float64(i%5) - 2 // mix of negatives, zeros, positives
	}
	s := newTestSession(3)
	f := s.Call(fnFilterPos, saFilterPos, a)
	s.Call(fnScale, saScale, f, 10.0)
	got, err := f.Float64s()
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for _, x := range a {
		if x > 0 {
			want = append(want, x*10)
		}
	}
	if !almostEqual(got, want) {
		t.Fatalf("filter+scale mismatch: got %d elems, want %d", len(got), len(want))
	}
	if s.Stats().Stages != 1 {
		t.Errorf("unknown->generic should pipeline into 1 stage, got %d", s.Stats().Stages)
	}
}

// TestTwoUnknownsForceMerge: two distinct unknown values cannot bind the
// same generic, forcing a stage break and a merge/re-split.
func TestTwoUnknownsForceMerge(t *testing.T) {
	a, b := seq(400), seq(400)
	s := newTestSession(2)
	fa := s.Call(fnFilterPos, saFilterPos, a)
	fb := s.Call(fnFilterPos, saFilterPos, b)
	sum := s.Call(fnAddNew, saAddNew, fa, fb)
	got, err := sum.Float64s()
	if err != nil {
		t.Fatal(err)
	}
	// seq produces strictly positive values, so filters keep everything.
	want := make([]float64, len(a))
	for i := range want {
		want[i] = a[i] + b[i]
	}
	if !almostEqual(got, want) {
		t.Fatalf("mismatch after re-split")
	}
	if st := s.Stats().Stages; st < 2 {
		t.Errorf("two unknowns must break the stage, got %d stages", st)
	}
}

// TestDisablePipelining is the Table 4 Mozart(-pipe) mode: one stage per
// call, same results.
func TestDisablePipelining(t *testing.T) {
	const n = 500
	d1 := seq(n)
	tmp := seq(n)
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Log1p(d1[i]) + tmp[i]
	}
	s := NewSession(Options{Workers: 4, BatchElems: 64, DisablePipelining: true})
	s.Call(testLog1p, saUnary("vdLog1p"), n, d1, d1)
	s.Call(testAdd, saBinary("vdAdd"), n, d1, tmp, d1)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d1, want) {
		t.Fatalf("nopipe result mismatch")
	}
	if s.Stats().Stages != 2 {
		t.Errorf("want 2 stages with pipelining disabled, got %d", s.Stats().Stages)
	}
}

// TestSessionReuse evaluates, then issues more calls against the results.
func TestSessionReuse(t *testing.T) {
	a := seq(128)
	s := newTestSession(2)
	s.Call(fnScale, saScale, a, 2.0)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := append([]float64(nil), a...)
	s.Call(fnScale, saScale, a, 0.5)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-first[i]/2) > 1e-12 {
			t.Fatalf("second evaluation wrong at %d", i)
		}
	}
}

// TestWorkerCountsAgree: results identical across worker counts.
func TestWorkerCountsAgree(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		a, b := seq(1013), seq(1013)
		s := NewSession(Options{Workers: workers, BatchElems: 37})
		c := s.Call(fnAddNew, saAddNew, a, b)
		d := s.Call(fnAddNew, saAddNew, c, c)
		got, err := d.Float64s()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := make([]float64, len(a))
		for i := range want {
			want[i] = 2 * (a[i] + b[i])
		}
		if !almostEqual(got, want) {
			t.Fatalf("workers=%d: mismatch", workers)
		}
	}
}

// TestZeroElements: empty inputs run zero batches and produce empty merges,
// on one worker: a zero-element stage offers the pool nothing.
func TestZeroElements(t *testing.T) {
	var a, b []float64
	a, b = make([]float64, 0, 1), make([]float64, 0, 2)
	s := newTestSession(4)
	c := s.Call(fnAddNew, saAddNew, a, b)
	got, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := got.([]float64); ok && len(g) != 0 {
		t.Fatalf("want empty result, got %v", got)
	}
	if st := s.Stats(); st.PoolTasks != 0 || st.Batches != 0 {
		t.Fatalf("PoolTasks = %d, Batches = %d; want 0 and 0", st.PoolTasks, st.Batches)
	}
}

// TestMutAfterRead: a value read by one call then mutated by a later one
// keeps program order.
func TestMutAfterRead(t *testing.T) {
	a := seq(200)
	orig := append([]float64(nil), a...)
	s := newTestSession(2)
	c := s.Call(fnAddNew, saAddNew, a, a) // reads a
	s.Call(fnScale, saScale, a, 0.0)      // then zeroes a
	got, err := c.Float64s()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(orig))
	for i := range want {
		want[i] = 2 * orig[i]
	}
	if !almostEqual(got, want) {
		t.Fatalf("read-before-mutate violated")
	}
	for i := range a {
		if a[i] != 0 {
			t.Fatalf("a should be zeroed")
		}
	}
}

// TestEvaluateNoPending is a no-op.
func TestEvaluateNoPending(t *testing.T) {
	s := newTestSession(1)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFutureAccessors exercise typed getters and their error paths.
func TestFutureAccessors(t *testing.T) {
	a := seq(10)
	s := newTestSession(1)
	f := s.Call(fnSum, saSum, a)
	if _, err := f.Float64s(); err == nil {
		t.Error("Float64s on a float64 should fail")
	}
	if _, err := f.Float64(); err != nil {
		t.Error(err)
	}
	if _, err := f.Int64(); err == nil {
		t.Error("Int64 on float64 should fail")
	}
	if !f.Resolved() {
		t.Error("future should be resolved after access")
	}
}

// TestFunctionErrorPropagates: errors from library functions abort
// evaluation and mark the session broken.
func TestFunctionErrorPropagates(t *testing.T) {
	bad := func(args []any) (any, error) { return nil, errors.New("boom") }
	a := seq(64)
	s := newTestSession(2)
	f := s.Call(bad, saFilterPos, a)
	if _, err := f.Get(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want boom, got %v", err)
	}
	// The session is broken; further evaluation reports the same error.
	if err := s.EvaluateContext(context.Background()); err == nil {
		t.Fatal("broken session should keep failing")
	}
}

// TestMutMissingRejectedInSplitStage: a mut "_" parameter is a planning
// error when the call has split arguments (each pipeline would mutate the
// same whole value concurrently).
func TestMutMissingRejectedInSplitStage(t *testing.T) {
	bad := &Annotation{
		FuncName: "bad",
		Params: []Param{
			{Name: "a", Type: Generic("S")},
			{Name: "acc", Mut: true, Type: Missing()},
		},
	}
	s := newTestSession(1)
	s.Call(func(args []any) (any, error) { return nil, nil }, bad, seq(4), seq(1))
	if err := s.EvaluateContext(context.Background()); err == nil {
		t.Fatal("mut + missing in a split stage should be rejected")
	}
}

// TestMutMissingAllowedWhole: a whole (all-"_") call may mutate its
// argument; it runs exactly once.
func TestMutMissingAllowedWhole(t *testing.T) {
	whole := &Annotation{
		FuncName: "fillWhole",
		Params: []Param{
			{Name: "a", Mut: true, Type: Missing()},
		},
	}
	a := seq(16)
	s := newTestSession(4)
	s.Call(func(args []any) (any, error) {
		v := args[0].([]float64)
		for i := range v {
			v[i] = 42
		}
		return nil, nil
	}, whole, a)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, x := range a {
		if x != 42 {
			t.Fatal("whole mut call did not apply")
		}
	}
}

// TestAnnotationValidate covers structural validation.
func TestAnnotationValidate(t *testing.T) {
	cases := []struct {
		name string
		a    *Annotation
		ok   bool
	}{
		{"nil", nil, false},
		{"dup params", &Annotation{FuncName: "f", Params: []Param{{Name: "x", Type: Missing()}, {Name: "x", Type: Missing()}}}, false},
		{"unnamed", &Annotation{FuncName: "f", Params: []Param{{Type: Missing()}}}, false},
		{"concrete without splitter", &Annotation{FuncName: "f", Params: []Param{{Name: "x", Type: TypeExpr{Kind: KindConcrete}}}}, false},
		{"generic without name", &Annotation{FuncName: "f", Params: []Param{{Name: "x", Type: TypeExpr{Kind: KindGeneric}}}}, false},
		{"ok", saAddNew, true},
	}
	for _, c := range cases {
		err := c.a.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestUnknownParamRejected: unknown as a parameter type is invalid.
func TestUnknownParamRejected(t *testing.T) {
	bad := &Annotation{
		FuncName: "bad",
		Params:   []Param{{Name: "a", Type: Unknown()}},
	}
	s := newTestSession(1)
	s.Call(func(args []any) (any, error) { return nil, nil }, bad, seq(4))
	if err := s.EvaluateContext(context.Background()); err == nil {
		t.Fatal("unknown parameter type should be rejected")
	}
}

// TestTrackAndGuard: Track returns futures for source values. The guard
// half is gone with its subject: the paper's C client protects lazy values
// with mprotect to catch reads, but this port captures every call through
// its wrappers, so there is no buffer to protect and no unprotect cost.
func TestTrackAndGuard(t *testing.T) {
	a := seq(100)
	s := NewSession(Options{Workers: 1, BatchElems: 10})
	fut := s.Track(a)
	s.Call(fnScale, saScale, a, 2.0)
	v, err := fut.Get()
	if err != nil {
		t.Fatal(err)
	}
	if &v.([]float64)[0] != &a[0] {
		t.Fatal("in-place tracked value should alias the original")
	}
}

// TestStatsString formats without blowing up.
func TestStatsString(t *testing.T) {
	s := newTestSession(1)
	if got := s.Stats(); got.String() == "" {
		t.Error("empty stats string")
	}
	s.Call(fnScale, saScale, seq(10), 1.0)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if !strings.Contains(st.String(), "task") {
		t.Errorf("stats string missing phases: %s", st.String())
	}
	if st.Total() <= 0 {
		t.Error("total should be positive")
	}
}

// TestLogging: the Logf hook sees per-piece calls.
func TestLogging(t *testing.T) {
	var lines int
	s := NewSession(Options{Workers: 1, BatchElems: 25, Logf: func(string, ...any) { lines++ }})
	s.Call(fnScale, saScale, seq(100), 2.0)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if lines != 4 {
		t.Errorf("want 4 logged calls (100/25), got %d", lines)
	}
}

// TestDynamicSchedulingEquivalence: batches of 97 elements, which split
// worker ranges mid-batch, merge in element order — an element-wise output
// and a reduction — at 1, 3 and 8 workers. (The name is the one the test had
// when it ran a second, dynamic scheduler.)
func TestDynamicSchedulingEquivalence(t *testing.T) {
	a, b := seq(2311), seq(2311)
	ref := func() []float64 {
		out := make([]float64, len(a))
		for i := range out {
			out[i] = 2 * (a[i] + b[i])
		}
		return out
	}()
	for _, workers := range []int{1, 3, 8} {
		s := NewSession(Options{Workers: workers, BatchElems: 97})
		c := s.Call(fnAddNew, saAddNew, a, b)
		d := s.Call(fnAddNew, saAddNew, c, c).Keep() // read below despite in-stage consumer
		sum := s.Call(fnSum, saSum, d)
		got, err := d.Float64s()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !almostEqual(got, ref) {
			t.Fatalf("workers=%d: result mismatch", workers)
		}
		want := 0.0
		for _, x := range ref {
			want += x
		}
		gotSum, err := sum.Float64()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotSum-want) > 1e-7*(1+want) {
			t.Fatalf("workers=%d: reduction mismatch", workers)
		}
	}
}

// TestDynamicSchedulingMutWriteBack: a copying splitter's mutated pieces,
// three-element batches over four workers, are written back in order. (The
// name is the one the test had when it ran a second, dynamic scheduler.)
func TestDynamicSchedulingMutWriteBack(t *testing.T) {
	m := newTestMatrix(40, 30)
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

// TestDynamicSchedulingErrors: a library function's error surfaces from the
// lazy read that forced the evaluation. (The name is the one the test had
// when it ran a second, dynamic scheduler.)
func TestDynamicSchedulingErrors(t *testing.T) {
	bad := func(args []any) (any, error) { return nil, errors.New("dyn boom") }
	s := NewSession(Options{Workers: 3, BatchElems: 10})
	f := s.Call(bad, saFilterPos, seq(100))
	if _, err := f.Get(); err == nil || !strings.Contains(err.Error(), "dyn boom") {
		t.Fatalf("want dyn boom, got %v", err)
	}
}
