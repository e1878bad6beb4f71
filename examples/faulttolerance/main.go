// Fault tolerance: what happens when an annotation misbehaves.
//
// An annotated call that panics on one batch is recovered into a structured
// StageError instead of crashing the process; with a fallback policy set,
// the runtime restores the in-place-mutated inputs and re-executes the
// stage whole, exactly as the unannotated library would have run, and can
// quarantine the faulty annotation for the rest of the session. On top of
// that, transient errors replay a single batch (RetryPolicy), tripped
// quarantines heal through a circuit-breaker cooldown (BreakerPolicy), and
// concurrent sessions can share a memory budget (Governor).
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"mozart"
	"mozart/internal/annotations/vmathsa"
)

// flakyPlus1 is an annotated out[i] = a[i] + 1 whose second batch panics —
// the kind of bug a faulty third-party annotation would introduce.
func flakyPlus1() (mozart.Func, *mozart.Annotation) {
	var calls atomic.Int64
	fn := func(args []any) (any, error) {
		if calls.Add(1) == 2 {
			panic("annotation bug: batch 2 exploded")
		}
		a, out := args[1].([]float64), args[2].([]float64)
		for i := range a {
			out[i] = a[i] + 1
		}
		return nil, nil
	}
	sa := &mozart.Annotation{FuncName: "plus1", Params: []mozart.Param{
		{Name: "size", Type: vmathsa.SizeSplit(0)},
		{Name: "a", Type: vmathsa.ArraySplit(0)},
		{Name: "out", Mut: true, Type: vmathsa.ArraySplit(0)},
	}}
	return fn, sa
}

// plus1Annotation builds the plus1 SA over the given array type expression.
func plus1Annotation(arr mozart.TypeExpr) *mozart.Annotation {
	return &mozart.Annotation{FuncName: "plus1", Params: []mozart.Param{
		{Name: "size", Type: vmathsa.SizeSplit(0)},
		{Name: "a", Type: arr},
		{Name: "out", Mut: true, Type: arr},
	}}
}

// plus1 is the healthy annotated out[i] = a[i] + 1.
func plus1() (mozart.Func, *mozart.Annotation) {
	fn := func(args []any) (any, error) {
		a, out := args[1].([]float64), args[2].([]float64)
		for i := range a {
			out[i] = a[i] + 1
		}
		return nil, nil
	}
	return fn, plus1Annotation(vmathsa.ArraySplit(0))
}

// transientPlus1 is plus1 whose second batch fails once with an error
// wrapping mozart.ErrTransient — a recoverable outage, not a bug.
func transientPlus1() (mozart.Func, *mozart.Annotation) {
	var calls atomic.Int64
	fn := func(args []any) (any, error) {
		if calls.Add(1) == 2 {
			return nil, fmt.Errorf("backend briefly unavailable: %w", mozart.ErrTransient)
		}
		a, out := args[1].([]float64), args[2].([]float64)
		for i := range a {
			out[i] = a[i] + 1
		}
		return nil, nil
	}
	return fn, plus1Annotation(vmathsa.ArraySplit(0))
}

// flakySplitter fails its first Split invocation, then behaves normally.
type flakySplitter struct {
	splits atomic.Int64
	inner  vmathsa.ArraySplitter
}

func (f *flakySplitter) InPlace() bool { return true }
func (f *flakySplitter) Info(v any, t mozart.SplitType) (mozart.RuntimeInfo, error) {
	return f.inner.Info(v, t)
}
func (f *flakySplitter) Split(v any, t mozart.SplitType, start, end int64) (any, error) {
	if f.splits.Add(1) == 1 {
		return nil, fmt.Errorf("split outage: %w", mozart.ErrTransient)
	}
	return f.inner.Split(v, t, start, end)
}
func (f *flakySplitter) Merge(pieces []any, t mozart.SplitType) (any, error) {
	return f.inner.Merge(pieces, t)
}

// oneShotSplitFault is plus1 under an annotation whose splitter fails its
// very first Split and then heals — the shape a circuit breaker recovers
// from.
func oneShotSplitFault() (mozart.Func, *mozart.Annotation) {
	fn, _ := plus1()
	sp := &flakySplitter{}
	arr := mozart.Concrete("ArraySplit", sp, func(args []any) (mozart.SplitType, error) {
		return mozart.NewSplitType("ArraySplit", int64(args[0].(int))), nil
	})
	return fn, plus1Annotation(arr)
}

func inputs(n int) ([]float64, []float64) {
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
	}
	return a, make([]float64, n)
}

func main() {
	const n = 1 << 16

	// 1. Fallback off: the panic is isolated into a StageError that names
	// the stage, the call, and the batch range, and poisons the session.
	fn, sa := flakyPlus1()
	a, out := inputs(n)
	s := mozart.NewSession(mozart.Options{Workers: 4, BatchElems: 1 << 13})
	s.Call(fn, sa, n, a, out)
	err := s.EvaluateContext(context.Background())
	var serr *mozart.StageError
	if !errors.As(err, &serr) {
		log.Fatalf("expected a StageError, got %v", err)
	}
	fmt.Printf("fallback off:\n  error: %v\n", serr)
	fmt.Printf("  origin=%s call=%s batch=[%d,%d) panic=%v annotationFault=%v\n",
		serr.Origin, serr.Call, serr.Start, serr.End, serr.PanicValue, serr.AnnotationFault())
	fmt.Printf("  session broken: %v\n\n", s.Err() != nil)

	// 2. FallbackWholeCall: the same fault degrades to whole-call execution
	// and the result is exactly what the plain library would produce.
	fn, sa = flakyPlus1()
	a, out = inputs(n)
	s = mozart.NewSession(mozart.Options{Workers: 4, BatchElems: 1 << 13,
		FallbackPolicy: mozart.FallbackWholeCall})
	s.Call(fn, sa, n, a, out)
	if err := s.EvaluateContext(context.Background()); err != nil {
		log.Fatalf("fallback run failed: %v", err)
	}
	ok := true
	for i := range a {
		if out[i] != a[i]+1 {
			ok = false
			break
		}
	}
	st := s.Stats()
	fmt.Printf("fallback whole-call:\n  result correct: %v\n  %s\n\n", ok, st.String())

	// 3. FallbackQuarantine: the faulty annotation is planned whole for the
	// rest of the session, so its splitters are never consulted again.
	fn, sa = flakyPlus1()
	a, out = inputs(n)
	s = mozart.NewSession(mozart.Options{Workers: 4, BatchElems: 1 << 13,
		FallbackPolicy: mozart.FallbackQuarantine})
	s.Call(fn, sa, n, a, out)
	if err := s.EvaluateContext(context.Background()); err != nil {
		log.Fatalf("quarantine run failed: %v", err)
	}
	fmt.Printf("fallback quarantine:\n  quarantined: %v\n", s.Quarantined())
	out2 := make([]float64, n)
	s.Call(fn, sa, n, a, out2)
	if err := s.EvaluateContext(context.Background()); err != nil {
		log.Fatalf("second evaluation failed: %v", err)
	}
	fmt.Printf("  second evaluation (planned whole): out2[1]=%v, fallbacks still %d\n\n",
		out2[1], s.Stats().FallbackStages)

	// 4. RetryPolicy: a transient library error (wrapping ErrTransient) on
	// one batch is replayed in place — no fallback, no quarantine, and the
	// result is identical to a fault-free run.
	fn, sa = transientPlus1()
	a, out = inputs(n)
	s = mozart.NewSession(mozart.Options{Workers: 4, BatchElems: 1 << 13,
		RetryPolicy: mozart.RetryPolicy{MaxAttempts: 3}})
	s.Call(fn, sa, n, a, out)
	if err := s.EvaluateContext(context.Background()); err != nil {
		log.Fatalf("retry run failed: %v", err)
	}
	st = s.Stats()
	fmt.Printf("batch retry:\n  out[1]=%v (exact), retried batches=%d, fallbacks=%d\n\n",
		out[1], st.RetriedBatches, st.FallbackStages)

	// 5. BreakerPolicy: quarantine with a cooldown. The first fault trips
	// the breaker; after the cooldown the next plan is a half-open probe
	// that splits again, and on success the annotation returns to full
	// split execution.
	fn, sa = oneShotSplitFault()
	a, out = inputs(n)
	s = mozart.NewSession(mozart.Options{Workers: 4, BatchElems: 1 << 13,
		FallbackPolicy: mozart.FallbackQuarantine,
		Breakers:       mozart.NewBreakerGroup(mozart.BreakerPolicy{Threshold: 1, Cooldown: time.Millisecond})})
	s.Call(fn, sa, n, a, out)
	if err := s.EvaluateContext(context.Background()); err != nil {
		log.Fatalf("breaker run failed: %v", err)
	}
	fmt.Printf("circuit breaker:\n  after fault: quarantined=%v\n", s.Quarantined())
	time.Sleep(5 * time.Millisecond) // let the breaker cool down
	out2 = make([]float64, n)
	s.Call(fn, sa, n, a, out2)
	if err := s.EvaluateContext(context.Background()); err != nil {
		log.Fatalf("probe evaluation failed: %v", err)
	}
	st = s.Stats()
	fmt.Printf("  after cooldown probe: quarantined=%v, trips=%d, recoveries=%d\n\n",
		s.Quarantined(), st.BreakerTrips, st.BreakerRecoveries)

	// 6. Governor: two sessions share one memory budget, so their combined
	// modeled working set (workers x batch x elem bytes) never exceeds it —
	// stages shrink their batches or wait instead of thrashing the cache.
	g := mozart.NewGovernor(1 << 16)
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fnOK, saOK := plus1()
			a, out := inputs(n)
			sess := mozart.NewSession(mozart.Options{Workers: 4, BatchElems: 1 << 13, Governor: g})
			sess.Call(fnOK, saOK, n, a, out)
			if err := sess.EvaluateContext(context.Background()); err != nil {
				log.Fatalf("governed run failed: %v", err)
			}
		}()
	}
	wg.Wait()
	fmt.Printf("shared governor:\n  budget=%d high water=%d (never above budget), waits=%d\n",
		g.Budget(), g.HighWater(), g.Waits())
}
