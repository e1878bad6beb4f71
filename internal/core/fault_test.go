package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Fault-tolerance tests. These hand-roll their faults instead of using
// internal/faultinject: that package imports core, so importing it here
// would be an import cycle. The annotation packages' tests exercise the
// injector against the same runtime paths.

// panicOnNth wraps fn to panic with msg on its nth invocation (1-based).
func panicOnNth(fn Func, n int64, msg string) Func {
	var calls atomic.Int64
	return func(args []any) (any, error) {
		if calls.Add(1) == n {
			panic(msg)
		}
		return fn(args)
	}
}

// errorOnNth wraps fn to return an error on its nth invocation (1-based).
func errorOnNth(fn Func, n int64, msg string) Func {
	var calls atomic.Int64
	return func(args []any) (any, error) {
		if calls.Add(1) == n {
			return nil, errors.New(msg)
		}
		return fn(args)
	}
}

// flakySplitter delegates to arraySplitter but fails Split on chosen
// invocations: every invocation when failN is 0, else only the failN-th.
type flakySplitter struct {
	calls *atomic.Int64
	failN int64
	mode  string // "error" or "panic"
}

func (flakySplitter) InPlace() bool { return true }

func (f flakySplitter) Info(v any, t SplitType) (RuntimeInfo, error) {
	return arraySplitter{}.Info(v, t)
}

func (f flakySplitter) Split(v any, t SplitType, start, end int64) (any, error) {
	if n := f.calls.Add(1); f.failN == 0 || n == f.failN {
		if f.mode == "panic" {
			panic("flaky split panic")
		}
		return nil, fmt.Errorf("flaky split error")
	}
	return arraySplitter{}.Split(v, t, start, end)
}

func (f flakySplitter) Merge(pieces []any, t SplitType) (any, error) {
	return arraySplitter{}.Merge(pieces, t)
}

// saFlakyUnary is saUnary with the array params bound to a flaky splitter.
func saFlakyUnary(name string, sp Splitter) *Annotation {
	arr := func() TypeExpr {
		return Concrete("ArraySplit", sp, func(args []any) (SplitType, error) {
			return NewSplitType("ArraySplit", int64(args[0].(int))), nil
		})
	}
	return &Annotation{
		FuncName: name,
		Params: []Param{
			{Name: "size", Type: sizeSplitOf(0)},
			{Name: "a", Type: arr()},
			{Name: "out", Mut: true, Type: arr()},
		},
	}
}

// schedulerVariants runs f twice: "static" with the session's buffer pools
// as they are, "dynamic" with them poisoned (Options.PoisonPools). The
// executor has one batch scheduler; the second cell keeps the name it had
// when there were two, so the suite's test ids stay stable, and now makes
// every fault path a leak check of the pooled collect path too.
func schedulerVariants(t *testing.T, f func(t *testing.T, poison bool)) {
	t.Run("static", func(t *testing.T) { f(t, false) })
	t.Run("dynamic", func(t *testing.T) { f(t, true) })
}

// TestPanicIsolation: a panicking annotated function must not crash the
// process; with fallback off, Evaluate returns a StageError identifying the
// stage, the call, and the batch range, carrying the panic value and stack.
func TestPanicIsolation(t *testing.T) {
	schedulerVariants(t, func(t *testing.T, poison bool) {
		s := NewSession(Options{Workers: 2, BatchElems: 16, PoisonPools: poison})
		n := 64
		a, out := seq(n), make([]float64, n)
		s.Call(panicOnNth(testLog1p, 2, "boom in annotated call"), saUnary("log1p"), n, a, out)

		err := s.EvaluateContext(context.Background())
		if err == nil {
			t.Fatal("want error from panicking call")
		}
		var serr *StageError
		if !errors.As(err, &serr) {
			t.Fatalf("want *StageError, got %T: %v", err, err)
		}
		if serr.Stage != 0 {
			t.Errorf("Stage = %d, want 0", serr.Stage)
		}
		if serr.Call != "log1p" {
			t.Errorf("Call = %q, want log1p", serr.Call)
		}
		if serr.Origin != OriginCall {
			t.Errorf("Origin = %v, want call", serr.Origin)
		}
		if serr.Start < 0 || serr.End <= serr.Start || serr.End > int64(n) {
			t.Errorf("batch range [%d,%d) not a valid range within [0,%d)", serr.Start, serr.End, n)
		}
		if serr.PanicValue != "boom in annotated call" {
			t.Errorf("PanicValue = %v", serr.PanicValue)
		}
		if len(serr.Stack) == 0 {
			t.Error("want non-empty panic stack")
		}
		if !serr.AnnotationFault() {
			t.Error("a panic must count as an annotation fault")
		}
		if got := s.Stats().RecoveredPanics; got < 1 {
			t.Errorf("RecoveredPanics = %d, want >= 1", got)
		}
		msg := serr.Error()
		for _, want := range []string{"mozart: stage 0", "call log1p", "recovered panic", "elements ["} {
			if !strings.Contains(msg, want) {
				t.Errorf("error %q missing %q", msg, want)
			}
		}
	})
}

// TestFallbackWholeCall: with FallbackWholeCall a panicking annotated
// function degrades to whole-call execution and produces output identical
// to the plain library, including undoing partial in-place mutation.
func TestFallbackWholeCall(t *testing.T) {
	schedulerVariants(t, func(t *testing.T, poison bool) {
		n := 64
		a, out := seq(n), make([]float64, n)
		// Serial reference: scale in place, then out = a + 1.
		wantA := make([]float64, n)
		wantOut := make([]float64, n)
		for i, x := range seq(n) {
			wantA[i] = 2 * x
			wantOut[i] = 2*x + 1
		}

		s := NewSession(Options{Workers: 2, BatchElems: 8, PoisonPools: poison, FallbackPolicy: FallbackWholeCall})
		s.Call(fnScale, saScale, a, 2.0)
		// Panic mid-stage, after some batches already scaled a in place.
		s.Call(panicOnNth(fnUnary(func(x float64) float64 { return x + 1 }), 3, "late panic"), saUnary("plus1"), n, a, out)
		if err := s.EvaluateContext(context.Background()); err != nil {
			t.Fatalf("Evaluate with fallback: %v", err)
		}
		if !almostEqual(a, wantA) {
			t.Errorf("a after fallback != serial reference (snapshot/restore must undo partial scaling): a[0]=%v want %v", a[0], wantA[0])
		}
		if !almostEqual(out, wantOut) {
			t.Errorf("out after fallback != serial reference: out[0]=%v want %v", out[0], wantOut[0])
		}
		st := s.Stats()
		if st.FallbackStages != 1 {
			t.Errorf("FallbackStages = %d, want 1", st.FallbackStages)
		}
		if st.RecoveredPanics < 1 {
			t.Errorf("RecoveredPanics = %d, want >= 1", st.RecoveredPanics)
		}
	})
}

// TestFallbackOnSplitError: an error returned by annotator splitting code is
// an annotation fault and triggers fallback.
func TestFallbackOnSplitError(t *testing.T) {
	schedulerVariants(t, func(t *testing.T, poison bool) {
		n := 64
		a, out := seq(n), make([]float64, n)
		var calls atomic.Int64
		sp := flakySplitter{calls: &calls, failN: 3, mode: "error"}

		s := NewSession(Options{Workers: 2, BatchElems: 8, PoisonPools: poison, FallbackPolicy: FallbackWholeCall})
		s.Call(fnUnary(func(x float64) float64 { return x * x }), saFlakyUnary("square", sp), n, a, out)
		if err := s.EvaluateContext(context.Background()); err != nil {
			t.Fatalf("Evaluate with fallback: %v", err)
		}
		for i, x := range seq(n) {
			if out[i] != x*x {
				t.Fatalf("out[%d] = %v, want %v", i, out[i], x*x)
			}
		}
		if got := s.Stats().FallbackStages; got != 1 {
			t.Errorf("FallbackStages = %d, want 1", got)
		}
	})
}

// TestNoFallbackForLibraryError: an error returned by the library function
// is not an annotation fault; the fallback policy must not mask it.
func TestNoFallbackForLibraryError(t *testing.T) {
	schedulerVariants(t, func(t *testing.T, poison bool) {
		n := 64
		a, out := seq(n), make([]float64, n)
		s := NewSession(Options{Workers: 2, BatchElems: 8, PoisonPools: poison, FallbackPolicy: FallbackWholeCall})
		s.Call(errorOnNth(testLog1p, 2, "library says no"), saUnary("log1p"), n, a, out)
		err := s.EvaluateContext(context.Background())
		if err == nil {
			t.Fatal("want library error to propagate despite fallback policy")
		}
		var serr *StageError
		if !errors.As(err, &serr) {
			t.Fatalf("want *StageError, got %T", err)
		}
		if serr.Origin != OriginCall {
			t.Errorf("Origin = %v, want call", serr.Origin)
		}
		if serr.AnnotationFault() {
			t.Error("a library-returned error must not be an annotation fault")
		}
		if got := s.Stats().FallbackStages; got != 0 {
			t.Errorf("FallbackStages = %d, want 0", got)
		}
	})
}

// TestQuarantine: FallbackQuarantine re-executes the faulted stage whole and
// plans the faulty annotation unsplit for the rest of the session, so a
// splitter that always fails faults exactly once.
func TestQuarantine(t *testing.T) {
	n := 64
	a, out := seq(n), make([]float64, n)
	var calls atomic.Int64
	sp := flakySplitter{calls: &calls, failN: 0, mode: "error"} // every Split fails

	s := NewSession(Options{Workers: 2, BatchElems: 8, FallbackPolicy: FallbackQuarantine})
	sa := saFlakyUnary("cursed", sp)
	fn := fnUnary(func(x float64) float64 { return x + 10 })

	s.Call(fn, sa, n, a, out)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatalf("first Evaluate: %v", err)
	}
	for i, x := range seq(n) {
		if out[i] != x+10 {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], x+10)
		}
	}
	st := s.Stats()
	if st.FallbackStages != 1 {
		t.Fatalf("FallbackStages = %d, want 1", st.FallbackStages)
	}
	if st.QuarantinedCalls != 1 {
		t.Fatalf("QuarantinedCalls = %d, want 1", st.QuarantinedCalls)
	}
	if q := s.Quarantined(); len(q) != 1 || q[0] != "cursed" {
		t.Fatalf("Quarantined() = %v, want [cursed]", q)
	}

	// Second evaluation: the quarantined annotation is planned whole, so its
	// always-failing splitter is never consulted and no new fallback occurs.
	before := calls.Load()
	out2 := make([]float64, n)
	s.Call(fn, sa, n, a, out2)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatalf("second Evaluate: %v", err)
	}
	if calls.Load() != before {
		t.Errorf("quarantined annotation's splitter was consulted again (%d -> %d calls)", before, calls.Load())
	}
	for i, x := range seq(n) {
		if out2[i] != x+10 {
			t.Fatalf("out2[%d] = %v, want %v", i, out2[i], x+10)
		}
	}
	if got := s.Stats().FallbackStages; got != 1 {
		t.Errorf("FallbackStages after second eval = %d, want still 1", got)
	}
}

// TestCancellationStopsSiblings: after one worker fails, the others observe
// the canceled stage context and stop claiming/processing batches instead of
// grinding through the whole input.
func TestCancellationStopsSiblings(t *testing.T) {
	schedulerVariants(t, func(t *testing.T, poison bool) {
		n := 200
		a, out := seq(n), make([]float64, n)
		slowThenFail := func() Func {
			var calls atomic.Int64
			return func(args []any) (any, error) {
				if calls.Add(1) == 2 {
					return nil, errors.New("early failure")
				}
				time.Sleep(2 * time.Millisecond)
				return testLog1p(args)
			}
		}
		s := NewSession(Options{Workers: 4, BatchElems: 1, PoisonPools: poison})
		s.Call(slowThenFail(), saUnary("slow"), n, a, out)
		err := s.EvaluateContext(context.Background())
		if err == nil {
			t.Fatal("want error")
		}
		var serr *StageError
		if !errors.As(err, &serr) || serr.Origin != OriginCall {
			t.Fatalf("want call-origin StageError, got %v", err)
		}
		if got := s.Stats().Calls; got >= int64(n)/2 {
			t.Errorf("Calls = %d of %d batches: siblings did not stop after cancellation", got, n)
		}
	})
}

// TestStageTimeout: a stage exceeding Options.StageTimeout is canceled at
// the next batch boundary and Evaluate reports a timeout-origin StageError
// wrapping context.DeadlineExceeded.
func TestStageTimeout(t *testing.T) {
	n := 200
	a, out := seq(n), make([]float64, n)
	slow := func(args []any) (any, error) {
		time.Sleep(2 * time.Millisecond)
		return testLog1p(args)
	}
	s := NewSession(Options{Workers: 2, BatchElems: 1, StageTimeout: 20 * time.Millisecond})
	s.Call(slow, saUnary("slow"), n, a, out)
	err := s.EvaluateContext(context.Background())
	if err == nil {
		t.Fatal("want timeout error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, DeadlineExceeded) = false: %v", err)
	}
	var serr *StageError
	if !errors.As(err, &serr) {
		t.Fatalf("want *StageError, got %T", err)
	}
	if serr.Origin != OriginTimeout {
		t.Errorf("Origin = %v, want timeout", serr.Origin)
	}
	if serr.AnnotationFault() {
		t.Error("a timeout must not be an annotation fault")
	}
	if got := s.Stats().Calls; got >= int64(n) {
		t.Errorf("Calls = %d, want fewer than %d (timeout should stop workers)", got, n)
	}
}

// TestPreCanceledContext: EvaluateContext with an already-canceled context
// fails fast with a canceled-origin StageError before running any call.
func TestPreCanceledContext(t *testing.T) {
	n := 32
	a, out := seq(n), make([]float64, n)
	s := NewSession(Options{Workers: 2})
	s.Call(testLog1p, saUnary("log1p"), n, a, out)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.EvaluateContext(ctx)
	if err == nil {
		t.Fatal("want error from pre-canceled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, Canceled) = false: %v", err)
	}
	var serr *StageError
	if !errors.As(err, &serr) {
		t.Fatalf("want *StageError, got %T", err)
	}
	if serr.Origin != OriginCanceled {
		t.Errorf("Origin = %v, want canceled", serr.Origin)
	}
	if got := s.Stats().Calls; got != 0 {
		t.Errorf("Calls = %d, want 0", got)
	}
}

// TestPoisonedFutures: after a failed evaluation the session is broken;
// bindings the failed round should have produced are poisoned
// (ErrNotEvaluated with the failure as cause), while values materialized by
// earlier successful rounds stay readable.
func TestPoisonedFutures(t *testing.T) {
	n := 32
	a, b := seq(n), seq(n)
	s := NewSession(Options{Workers: 2})

	okFut := s.Call(fnAddNew, saAddNew, a, b)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatalf("first Evaluate: %v", err)
	}

	badFut := s.Call(func(args []any) (any, error) {
		return nil, errors.New("round two fails")
	}, saAddNew, a, b)
	err := s.EvaluateContext(context.Background())
	if err == nil {
		t.Fatal("want second Evaluate to fail")
	}
	if s.Err() == nil {
		t.Error("Session.Err() should report the sticky failure")
	}

	// The earlier result is still readable.
	if v, gerr := okFut.Float64s(); gerr != nil || len(v) != n {
		t.Errorf("earlier result unreadable after failure: %v, %v", v, gerr)
	}
	// The poisoned binding reports ErrNotEvaluated with the cause attached,
	// never a stale or partial value.
	_, gerr := badFut.Get()
	if gerr == nil {
		t.Fatal("poisoned future returned a value")
	}
	if !errors.Is(gerr, ErrNotEvaluated) {
		t.Errorf("errors.Is(gerr, ErrNotEvaluated) = false: %v", gerr)
	}
	if !strings.Contains(gerr.Error(), "session broken by") {
		t.Errorf("poisoned error %q should carry its cause", gerr)
	}
	var serr *StageError
	if !errors.As(gerr, &serr) {
		t.Errorf("poisoned error should unwrap to the StageError cause: %v", gerr)
	}
	// Further evaluation attempts keep failing with the sticky error.
	if err2 := s.EvaluateContext(context.Background()); err2 == nil {
		t.Error("broken session accepted another Evaluate")
	}
}

// TestMergeZeroPiecesDeferred: merging zero pieces under a deferred (unknown)
// split type cannot resolve a splitter; the error must say so instead of
// silently producing a nil result.
func TestMergeZeroPiecesDeferred(t *testing.T) {
	s := NewSession(Options{Workers: 2})
	fut := s.Call(fnFilterPos, saFilterPos, []float64{})
	_, err := fut.Get()
	if err == nil {
		t.Fatal("want error when merging zero pieces of unknown type")
	}
	if !strings.Contains(err.Error(), "cannot merge zero pieces") {
		t.Errorf("error %q should explain the zero-piece deferred merge", err)
	}
}

// saRetNil pipes a Generic return so a nil piece can flow to a downstream
// call (exercising the pedantic nil-piece check on call arguments).
var saRetNil = &Annotation{
	FuncName: "retNil",
	Params:   []Param{{Name: "a", Type: Generic("S")}},
	Ret:      func() *TypeExpr { t := Generic("S"); return &t }(),
}

// TestPedantic: the §7.1 debugging mode must report exact, descriptive
// errors for mismatched element counts, zero elements, and nil pieces —
// identically with and without poisoned pools — and must never be
// masked by the fallback policy.
func TestPedantic(t *testing.T) {
	schedulerVariants(t, func(t *testing.T, poison bool) {
		t.Run("mismatched element counts", func(t *testing.T) {
			// size says 32 but b only has 16 elements: ArraySplit infos
			// disagree before any batch runs.
			n := 32
			a, b, out := seq(n), seq(n/2), make([]float64, n)
			s := NewSession(Options{Workers: 2, Pedantic: true, PoisonPools: poison})
			s.Call(testAdd, saBinary("add"), n, a, b, out)
			err := s.EvaluateContext(context.Background())
			if err == nil {
				t.Fatal("want element-count mismatch error")
			}
			want := fmt.Sprintf("mozart: split inputs disagree on element count: %d vs %d", n, n/2)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q missing %q", err, want)
			}
			var serr *StageError
			if !errors.As(err, &serr) || serr.Origin != OriginInfo {
				t.Errorf("want info-origin StageError, got %v", err)
			}
		})

		t.Run("zero elements", func(t *testing.T) {
			s := NewSession(Options{Workers: 2, Pedantic: true, PoisonPools: poison})
			s.Call(testLog1p, saUnary("log1p"), 0, []float64{}, []float64{})
			err := s.EvaluateContext(context.Background())
			if err == nil {
				t.Fatal("want zero-elements error in pedantic mode")
			}
			if !strings.Contains(err.Error(), "pedantic: stage received zero elements") {
				t.Errorf("error %q missing zero-elements text", err)
			}
			var serr *StageError
			if !errors.As(err, &serr) || serr.Origin != OriginPedantic {
				t.Errorf("want pedantic-origin StageError, got %v", err)
			}
		})

		t.Run("nil piece from splitter", func(t *testing.T) {
			nilSplit := nilPieceSplitter{}
			sa := &Annotation{
				FuncName: "nilsplit",
				Params: []Param{
					{Name: "size", Type: sizeSplitOf(0)},
					{Name: "a", Type: Concrete("NilSplit", nilSplit, func(args []any) (SplitType, error) {
						return NewSplitType("NilSplit", int64(args[0].(int))), nil
					})},
				},
			}
			s := NewSession(Options{Workers: 2, Pedantic: true, PoisonPools: poison})
			s.Call(func(args []any) (any, error) { return nil, nil }, sa, 16, seq(16))
			err := s.EvaluateContext(context.Background())
			if err == nil {
				t.Fatal("want nil-piece error in pedantic mode")
			}
			if !strings.Contains(err.Error(), "pedantic: splitter for NilSplit<16> produced nil piece") {
				t.Errorf("error %q missing nil-piece text", err)
			}
		})

		t.Run("nil piece into downstream call", func(t *testing.T) {
			n := 16
			a := seq(n)
			s := NewSession(Options{Workers: 2, Pedantic: true, PoisonPools: poison})
			mid := s.Call(func(args []any) (any, error) { return nil, nil }, saRetNil, a)
			s.Call(fnAddNew, saAddNew, mid, a).Keep()
			err := s.EvaluateContext(context.Background())
			if err == nil {
				t.Fatal("want nil-piece error for downstream call argument")
			}
			if !strings.Contains(err.Error(), "pedantic: addNew received nil piece for a") {
				t.Errorf("error %q missing downstream nil-piece text", err)
			}
		})

		t.Run("pedantic errors never fall back", func(t *testing.T) {
			s := NewSession(Options{Workers: 2, Pedantic: true, PoisonPools: poison, FallbackPolicy: FallbackWholeCall})
			s.Call(testLog1p, saUnary("log1p"), 0, []float64{}, []float64{})
			if err := s.EvaluateContext(context.Background()); err == nil {
				t.Fatal("fallback policy masked a pedantic error")
			}
			if got := s.Stats().FallbackStages; got != 0 {
				t.Errorf("FallbackStages = %d, want 0", got)
			}
		})
	})
}

// nilPieceSplitter reports elements but yields nil pieces.
type nilPieceSplitter struct{}

func (nilPieceSplitter) Info(v any, t SplitType) (RuntimeInfo, error) {
	return RuntimeInfo{Elems: int64(len(v.([]float64))), ElemBytes: 8}, nil
}
func (nilPieceSplitter) Split(v any, t SplitType, start, end int64) (any, error) {
	return nil, nil
}
func (nilPieceSplitter) Merge(pieces []any, t SplitType) (any, error) { return nil, nil }

// saWholePanic is an annotation with no splittable params: the call always
// runs whole, so a panic there is isolated but not eligible for fallback
// (there is no alternative execution strategy left).
var saWholePanic = &Annotation{
	FuncName: "wholePanic",
	Params:   []Param{{Name: "a", Type: Missing()}},
}

func TestWholeCallPanicIsolatedNoFallback(t *testing.T) {
	s := NewSession(Options{Workers: 2, FallbackPolicy: FallbackWholeCall})
	s.Call(func(args []any) (any, error) { panic("whole-call panic") }, saWholePanic, seq(8))
	err := s.EvaluateContext(context.Background())
	if err == nil {
		t.Fatal("want error from whole-call panic")
	}
	var serr *StageError
	if !errors.As(err, &serr) {
		t.Fatalf("want *StageError, got %T: %v", err, err)
	}
	if serr.PanicValue != "whole-call panic" {
		t.Errorf("PanicValue = %v", serr.PanicValue)
	}
	st := s.Stats()
	if st.RecoveredPanics != 1 {
		t.Errorf("RecoveredPanics = %d, want 1", st.RecoveredPanics)
	}
	if st.FallbackStages != 0 {
		t.Errorf("FallbackStages = %d, want 0 (whole calls have no fallback)", st.FallbackStages)
	}
}

// TestFallbackPanicInSplitter: a panicking splitter (not just an erroring
// one) also degrades cleanly.
func TestFallbackPanicInSplitter(t *testing.T) {
	n := 64
	a, out := seq(n), make([]float64, n)
	var calls atomic.Int64
	sp := flakySplitter{calls: &calls, failN: 2, mode: "panic"}
	s := NewSession(Options{Workers: 2, BatchElems: 8, FallbackPolicy: FallbackWholeCall})
	s.Call(fnUnary(func(x float64) float64 { return x - 1 }), saFlakyUnary("minus1", sp), n, a, out)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	for i, x := range seq(n) {
		if out[i] != x-1 {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], x-1)
		}
	}
	st := s.Stats()
	if st.FallbackStages != 1 || st.RecoveredPanics < 1 {
		t.Errorf("stats = %+v, want 1 fallback and >=1 recovered panic", st)
	}
}

// TestFutureGetContext: Future.GetContext threads its context into the
// forced evaluation.
func TestFutureGetContext(t *testing.T) {
	n := 32
	a, b := seq(n), seq(n)
	s := NewSession(Options{Workers: 2})
	fut := s.Call(fnAddNew, saAddNew, a, b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fut.GetContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("GetContext(canceled) = %v, want context.Canceled in chain", err)
	}
}

// ---- resilience: batch retry, circuit breakers, admission control --------

// transientSplitter delegates to arraySplitter but fails Split with an
// ErrTransient-wrapped error on invocations from..to (1-based, inclusive);
// to < 0 means every invocation from `from` on.
type transientSplitter struct {
	calls    *atomic.Int64
	from, to int64
}

func (transientSplitter) InPlace() bool { return true }

func (ts transientSplitter) Info(v any, t SplitType) (RuntimeInfo, error) {
	return arraySplitter{}.Info(v, t)
}

func (ts transientSplitter) Split(v any, t SplitType, start, end int64) (any, error) {
	if n := ts.calls.Add(1); n >= ts.from && (ts.to < 0 || n <= ts.to) {
		return nil, fmt.Errorf("transient split outage: %w", ErrTransient)
	}
	return arraySplitter{}.Split(v, t, start, end)
}

func (ts transientSplitter) Merge(pieces []any, t SplitType) (any, error) {
	return arraySplitter{}.Merge(pieces, t)
}

// accumulateOnce is out[i] += a[i], the in-place call whose replay is only
// correct when the runtime restores the batch's pieces first: replaying
// without the snapshot double-adds.
func accumulateOnce(failOnCall int64, calls *atomic.Int64) Func {
	return func(args []any) (any, error) {
		a, out := args[1].([]float64), args[2].([]float64)
		for i := range a {
			out[i] += a[i]
		}
		if failOnCall > 0 && calls.Add(1) == failOnCall {
			return nil, fmt.Errorf("injected blip: %w", ErrTransient)
		}
		return nil, nil
	}
}

// noSleep makes retry backoff a no-op so tests do not wait.
func noSleep(time.Duration) {}

// TestRetryTransientCallReplaysBatch: a library call that mutates in place
// and then fails transiently on call K must, under RetryPolicy{MaxAttempts:
// 3}, produce results identical to the fault-free run — the failed batch's
// pieces are restored from the pre-attempt snapshot before the replay, so
// the accumulate applies exactly once. With retries disabled the same run
// fails.
func TestRetryTransientCallReplaysBatch(t *testing.T) {
	schedulerVariants(t, func(t *testing.T, poison bool) {
		const n = 64
		const failOn = 3

		run := func(retry RetryPolicy) ([]float64, StatsSnapshot, error) {
			var calls atomic.Int64
			a, out := seq(n), make([]float64, n)
			s := NewSession(Options{Workers: 2, BatchElems: 8,
				PoisonPools: poison, RetryPolicy: retry})
			s.Call(accumulateOnce(failOn, &calls), saUnary("acc"), n, a, out)
			err := s.EvaluateContext(context.Background())
			return out, s.Stats(), err
		}

		want, _, err := run(RetryPolicy{}) // fault-free reference shape
		_ = want
		if err == nil {
			t.Fatal("retries disabled: want the transient fault to fail Evaluate")
		}
		var serr *StageError
		if !errors.As(err, &serr) || serr.Origin != OriginCall {
			t.Fatalf("want call-origin StageError, got %v", err)
		}
		if !errors.Is(err, ErrTransient) {
			t.Errorf("the StageError should wrap ErrTransient, got %v", err)
		}

		out, st, err := run(RetryPolicy{MaxAttempts: 3, Sleep: noSleep})
		if err != nil {
			t.Fatalf("with retry: %v", err)
		}
		for i := range out {
			want := float64(i%17) + 0.5 // fault-free accumulate over zeros = seq
			if out[i] != want {
				t.Fatalf("out[%d] = %v, want %v (replay was not idempotent)", i, out[i], want)
			}
		}
		if st.RetriedBatches != 1 {
			t.Errorf("RetriedBatches = %d, want 1", st.RetriedBatches)
		}
		if st.RetryBackoffNS <= 0 {
			t.Errorf("RetryBackoffNS = %d, want > 0", st.RetryBackoffNS)
		}
		if st.FallbackStages != 0 {
			t.Errorf("FallbackStages = %d, want 0 (retry handled it)", st.FallbackStages)
		}
	})
}

// TestRetryExhaustedEscalatesToFallback: a splitter whose Split fails
// transiently on every invocation exhausts the retry budget, and the final
// split-origin StageError escalates to the PR 1 fallback path: the stage
// re-executes whole and the result is still correct.
func TestRetryExhaustedEscalatesToFallback(t *testing.T) {
	schedulerVariants(t, func(t *testing.T, poison bool) {
		const n = 48
		var splits atomic.Int64
		sp := transientSplitter{calls: &splits, from: 1, to: -1}
		arr := func() TypeExpr {
			return Concrete("ArraySplit", sp, func(args []any) (SplitType, error) {
				return NewSplitType("ArraySplit", int64(args[0].(int))), nil
			})
		}
		sa := &Annotation{FuncName: "plus1new", Params: []Param{
			{Name: "size", Type: sizeSplitOf(0)},
			{Name: "a", Type: arr()},
		}, Ret: func() *TypeExpr { t := arr(); return &t }()}
		fn := func(args []any) (any, error) {
			a := args[1].([]float64)
			out := make([]float64, len(a))
			for i := range a {
				out[i] = a[i] + 1
			}
			return out, nil
		}

		a := seq(n)
		s := NewSession(Options{Workers: 2, BatchElems: 8,
			PoisonPools:    poison,
			FallbackPolicy: FallbackWholeCall,
			RetryPolicy:    RetryPolicy{MaxAttempts: 2, Sleep: noSleep}})
		f := s.Call(fn, sa, n, a)
		if err := s.EvaluateContext(context.Background()); err != nil {
			t.Fatalf("fallback should absorb the exhausted retries: %v", err)
		}
		v, err := f.Get()
		if err != nil {
			t.Fatal(err)
		}
		out := v.([]float64)
		for i := range out {
			want := float64(i%17) + 1.5 // seq + 1
			if out[i] != want {
				t.Fatalf("out[%d] = %v, want %v", i, out[i], want)
			}
		}
		st := s.Stats()
		if st.RetriedBatches < 1 {
			t.Errorf("RetriedBatches = %d, want >= 1", st.RetriedBatches)
		}
		if st.FallbackStages != 1 {
			t.Errorf("FallbackStages = %d, want 1", st.FallbackStages)
		}
	})
}

// TestRetryPermanentErrorNotRetried: an error the classifier rejects fails
// on the first attempt; no batch is replayed.
func TestRetryPermanentErrorNotRetried(t *testing.T) {
	const n = 32
	a, out := seq(n), make([]float64, n)
	s := NewSession(Options{Workers: 1, BatchElems: 8,
		RetryPolicy: RetryPolicy{MaxAttempts: 5, Sleep: noSleep}})
	s.Call(errorOnNth(testLog1p, 2, "permanent library error"), saUnary("log1p"), n, a, out)
	if err := s.EvaluateContext(context.Background()); err == nil {
		t.Fatal("want the permanent error to fail Evaluate")
	}
	if got := s.Stats().RetriedBatches; got != 0 {
		t.Errorf("RetriedBatches = %d, want 0", got)
	}
}

// switchableSplitter delegates to arraySplitter but fails Split whenever
// broken is set, counting invocations so tests can observe whether the
// planner consulted the splitter at all.
type switchableSplitter struct {
	broken *atomic.Bool
	splits *atomic.Int64
}

func (switchableSplitter) InPlace() bool { return true }

func (ss switchableSplitter) Info(v any, t SplitType) (RuntimeInfo, error) {
	return arraySplitter{}.Info(v, t)
}

func (ss switchableSplitter) Split(v any, t SplitType, start, end int64) (any, error) {
	ss.splits.Add(1)
	if ss.broken.Load() {
		return nil, errors.New("splitter outage")
	}
	return arraySplitter{}.Split(v, t, start, end)
}

func (ss switchableSplitter) Merge(pieces []any, t SplitType) (any, error) {
	return arraySplitter{}.Merge(pieces, t)
}

// TestBreakerHalfOpenRecovery: under FallbackQuarantine with a cooldown, a
// tripped annotation plans whole until the cooldown elapses, then a
// half-open probe re-tries splitting; a successful probe closes the breaker
// and restores split execution.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	const n = 32
	var broken atomic.Bool
	var splits atomic.Int64
	sp := switchableSplitter{broken: &broken, splits: &splits}

	now := time.Unix(0, 0)
	s := NewSession(Options{Workers: 2, BatchElems: 8,
		FallbackPolicy: FallbackQuarantine,
		Breakers: NewBreakerGroup(BreakerPolicy{Threshold: 1, Cooldown: time.Minute,
			Now: func() time.Time { return now }})})

	eval := func() {
		t.Helper()
		a, out := seq(n), make([]float64, n)
		s.Call(testLog1p, saFlakyUnary("flaky", sp), n, a, out)
		if err := s.EvaluateContext(context.Background()); err != nil {
			t.Fatalf("evaluate: %v", err)
		}
		for i := range out {
			if out[i] != math.Log1p(a[i]) {
				t.Fatalf("out[%d] wrong after degraded execution", i)
			}
		}
	}

	// 1. Faulty splitter: fallback runs the stage whole and trips the
	// breaker.
	broken.Store(true)
	eval()
	st := s.Stats()
	if got := s.Quarantined(); len(got) != 1 || got[0] != "flaky" {
		t.Fatalf("Quarantined() = %v, want [flaky]", got)
	}
	if st.BreakerTrips != 1 || st.QuarantinedCalls != 1 || st.FallbackStages != 1 {
		t.Fatalf("trips=%d quarantined=%d fallbacks=%d, want 1/1/1",
			st.BreakerTrips, st.QuarantinedCalls, st.FallbackStages)
	}

	// 2. Before the cooldown the annotation plans whole: the splitter is
	// not consulted even though it has healed.
	broken.Store(false)
	preSplits := splits.Load()
	now = now.Add(30 * time.Second)
	eval()
	if splits.Load() != preSplits {
		t.Fatalf("splitter consulted while the breaker is open")
	}

	// 3. After the cooldown the next plan is a half-open probe: the
	// annotation splits again, succeeds, and the breaker closes.
	now = now.Add(time.Minute)
	eval()
	if splits.Load() == preSplits {
		t.Fatal("cooldown elapsed but the probe did not re-try splitting")
	}
	st = s.Stats()
	if len(s.Quarantined()) != 0 {
		t.Fatalf("Quarantined() = %v, want empty after recovery", s.Quarantined())
	}
	if st.BreakerRecoveries != 1 || st.QuarantinedCalls != 0 {
		t.Fatalf("recoveries=%d quarantined=%d, want 1/0", st.BreakerRecoveries, st.QuarantinedCalls)
	}

	// 4. Still closed: split execution is back for good.
	preSplits = splits.Load()
	eval()
	if splits.Load() == preSplits {
		t.Fatal("breaker should stay closed after a successful probe")
	}
	if got := s.Stats().BreakerTrips; got != 1 {
		t.Errorf("BreakerTrips = %d, want 1", got)
	}
}

// TestBreakerFailedProbeReopens: a half-open probe that faults again
// re-opens the breaker and restarts the cooldown; the annotation stays
// quarantined and the gauge does not double-count.
func TestBreakerFailedProbeReopens(t *testing.T) {
	const n = 32
	var broken atomic.Bool
	var splits atomic.Int64
	sp := switchableSplitter{broken: &broken, splits: &splits}

	now := time.Unix(0, 0)
	s := NewSession(Options{Workers: 2, BatchElems: 8,
		FallbackPolicy: FallbackQuarantine,
		Breakers: NewBreakerGroup(BreakerPolicy{Threshold: 1, Cooldown: time.Minute,
			Now: func() time.Time { return now }})})

	eval := func() {
		t.Helper()
		a, out := seq(n), make([]float64, n)
		s.Call(testLog1p, saFlakyUnary("flaky", sp), n, a, out)
		if err := s.EvaluateContext(context.Background()); err != nil {
			t.Fatalf("evaluate: %v", err)
		}
	}

	broken.Store(true)
	eval() // trips
	now = now.Add(2 * time.Minute)
	eval() // half-open probe fails, re-opens
	st := s.Stats()
	if st.BreakerTrips != 2 {
		t.Errorf("BreakerTrips = %d, want 2 (initial trip + failed probe)", st.BreakerTrips)
	}
	if st.QuarantinedCalls != 1 {
		t.Errorf("QuarantinedCalls = %d, want 1 (no double count)", st.QuarantinedCalls)
	}
	if got := s.Quarantined(); len(got) != 1 {
		t.Fatalf("Quarantined() = %v, want [flaky]", got)
	}

	// The re-opened breaker plans whole again until the next cooldown.
	preSplits := splits.Load()
	now = now.Add(30 * time.Second)
	eval()
	if splits.Load() != preSplits {
		t.Fatal("failed probe should restart the cooldown")
	}

	// Healed + cooled down: the next probe closes it.
	broken.Store(false)
	now = now.Add(2 * time.Minute)
	eval()
	if len(s.Quarantined()) != 0 {
		t.Fatalf("Quarantined() = %v, want empty", s.Quarantined())
	}
}

// TestGovernorAdmitBlocks: admissions over the remaining budget block until
// a release frees capacity; canceled waiters abandon; oversized requests
// are clamped to the whole budget instead of deadlocking.
func TestGovernorAdmitBlocks(t *testing.T) {
	g := NewGovernor(100)
	ctx := context.Background()
	if _, err := g.admit(ctx, 60); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan struct{})
	go func() {
		if _, err := g.admit(ctx, 70); err != nil {
			t.Errorf("blocked admit: %v", err)
		}
		close(admitted)
	}()
	select {
	case <-admitted:
		t.Fatal("admit(70) should block while 60/100 is in use")
	case <-time.After(20 * time.Millisecond):
	}
	g.release(60)
	select {
	case <-admitted:
	case <-time.After(2 * time.Second):
		t.Fatal("admit(70) did not unblock after release")
	}
	if got := g.InUse(); got != 70 {
		t.Errorf("InUse = %d, want 70", got)
	}
	if hw := g.HighWater(); hw > g.Budget() {
		t.Errorf("HighWater %d exceeds budget %d", hw, g.Budget())
	}
	if g.Waits() < 1 {
		t.Errorf("Waits = %d, want >= 1", g.Waits())
	}

	// Oversized request: clamped to the budget, admitted once alone.
	g.release(70)
	if _, err := g.admit(ctx, 1000); err != nil {
		t.Fatal(err)
	}
	if got := g.InUse(); got != 100 {
		t.Errorf("oversized request reserved %d, want the full budget 100", got)
	}
	g.release(100)

	// A canceled waiter returns the context error.
	if _, err := g.admit(ctx, 100); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() { _, err := g.admit(cctx, 1); errc <- err }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled admit returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled admit never returned")
	}
	g.release(100)
}

// TestGovernorSharedBudgetTwoSessions: two sessions evaluating concurrently
// under one Governor never model more bytes in flight than the budget. The
// probe tracks actual live batch bytes inside the library calls: at no
// instant may the concurrently-processed footprint exceed the budget.
func TestGovernorSharedBudgetTwoSessions(t *testing.T) {
	const n = 1 << 10
	const budget = int64(4096)
	// Footprint model for saUnary: size (0 bytes) + a (8) + out (8).
	const elemBytes = 16

	g := NewGovernor(budget)
	var live, liveHW atomic.Int64

	probed := func(args []any) (any, error) {
		a, out := args[1].([]float64), args[2].([]float64)
		cur := live.Add(int64(len(a)) * elemBytes)
		for {
			hw := liveHW.Load()
			if cur <= hw || liveHW.CompareAndSwap(hw, cur) {
				break
			}
		}
		for i := range a {
			out[i] += a[i]
		}
		live.Add(int64(-len(a)) * elemBytes)
		return nil, nil
	}

	run := func() ([]float64, error) {
		a, out := seq(n), make([]float64, n)
		s := NewSession(Options{Workers: 2, Governor: g})
		for round := 0; round < 2; round++ {
			s.Call(probed, saUnary("acc"), n, a, out)
			if err := s.EvaluateContext(context.Background()); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	type result struct {
		out []float64
		err error
	}
	results := make(chan result, 2)
	for range 2 {
		go func() { out, err := run(); results <- result{out, err} }()
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		for j := range r.out {
			want := 2 * (float64(j%17) + 0.5) // two accumulate rounds over seq
			if r.out[j] != want {
				t.Fatalf("out[%d] = %v, want %v", j, r.out[j], want)
			}
		}
	}
	if hw := g.HighWater(); hw > budget {
		t.Errorf("governor high-water %d exceeds budget %d", hw, budget)
	}
	if hw := liveHW.Load(); hw > budget {
		t.Errorf("live batch bytes high-water %d exceeds budget %d", hw, budget)
	}
	if g.InUse() != 0 {
		t.Errorf("InUse = %d after all stages released, want 0", g.InUse())
	}
	if g.HighWater() == 0 {
		t.Error("governor never admitted anything")
	}
}

// TestStatsReadDuringEvaluation: Stats.String and Stats.Total must be safe
// to call while workers are mutating the counters (they read via atomic
// loads). Run under -race this test fails on the pre-fix direct reads.
func TestStatsReadDuringEvaluation(t *testing.T) {
	const n = 1 << 14
	a, out := seq(n), make([]float64, n)
	s := NewSession(Options{Workers: 4, BatchElems: 64})
	s.Call(testLog1p, saUnary("log1p"), n, a, out)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			_ = s.stats.String()
			_ = s.stats.Total()
		}
	}()
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
}
