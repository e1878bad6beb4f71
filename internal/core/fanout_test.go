package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The fan-out contract (Session.fanOut): share 0 of every stage runs on the
// goroutine that called EvaluateContext; shares 1…W−1 are offered to the pool
// and run on whoever claims them first, a pool helper or the caller, each
// exactly once. These tests pin what that must not change: no goroutine
// outlives an evaluation beyond the pool's parked workers, untrusted code
// panicking on the caller is still isolated, the caller stops and is stopped
// at batch boundaries like any sibling — in share 0 and in any share it
// claimed — an offer to a busy pool is queued and never dropped, and the
// caller's pprof labels come back. (What a saturated pool and late helpers
// do to results is in place_test.go, over its executor matrix.)

// goid is the current goroutine's id, read from its stack header.
func goid() uint64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)])) // "goroutine N [running]:"
	id, _ := strconv.ParseUint(f[1], 10, 64)
	return id
}

// eventually polls cond for up to two seconds: goroutines that finished
// their last task are still exiting or parking when wg.Wait returns.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestFanOutLeavesNoGoroutines is the leak this design removes, pinned: a
// thousand fresh sessions on the default pool leave no goroutine behind at
// one worker, and at four workers nothing beyond the pool's parked workers.
func TestFanOutLeavesNoGoroutines(t *testing.T) {
	a, b := seq(256), seq(256)
	run := func(workers int) {
		for i := 0; i < 1000; i++ {
			s := NewSession(Options{Workers: workers, BatchElems: 16})
			s.Call(fnAddNew, saAddNew, a, b)
			if err := s.EvaluateContext(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := runtime.NumGoroutine()
	run(1)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("1000 one-worker sessions: goroutines %d -> %d, want no growth", before, after)
	}
	limit := before + defaultWorkerPool().max
	run(4)
	if !eventually(func() bool { return runtime.NumGoroutine() <= limit }) {
		t.Errorf("1000 four-worker sessions: goroutines %d -> %d, want at most the pool's %d parked workers more",
			before, runtime.NumGoroutine(), defaultWorkerPool().max)
	}
}

// callerFault arranges for untrusted code to misbehave on the evaluating
// goroutine only: at(site) runs do the first time the caller reaches site,
// and holds every other goroutine at site until the caller has, so the
// caller is guaranteed a batch under either scheduler.
type callerFault struct {
	caller  uint64
	site    string
	do      func()
	arrived chan struct{}
	once    sync.Once
}

func newCallerFault(site string, do func()) *callerFault {
	return &callerFault{caller: goid(), site: site, do: do, arrived: make(chan struct{})}
}

func (f *callerFault) at(site string) {
	if site != f.site {
		return
	}
	if goid() == f.caller {
		f.once.Do(func() {
			close(f.arrived)
			f.do()
		})
		return
	}
	select {
	case <-f.arrived:
	case <-time.After(5 * time.Second):
		panic("the evaluating goroutine never ran a batch")
	}
}

// hookSplitter is arraySplitter with placed outputs, announcing each entry
// into annotator code to a callerFault.
type hookSplitter struct {
	arraySplitter
	f *callerFault
}

func (h hookSplitter) Split(v any, t SplitType, start, end int64) (any, error) {
	h.f.at("split")
	return h.arraySplitter.Split(v, t, start, end)
}

func (h hookSplitter) AllocMerged(exemplar any, t SplitType, total int64) (any, error) {
	return make([]float64, total), nil
}

func (h hookSplitter) Place(dst, piece any, t SplitType, start, end int64) error {
	h.f.at("place")
	copy(dst.([]float64)[start:end], piece.([]float64))
	return nil
}

// captureCopy captures copy(a: ArraySplit) -> ArraySplit over a through
// f's hooks and returns its future.
func captureCopy(s *Session, f *callerFault, a []float64) *Future {
	typ := Concrete("ArraySplit", hookSplitter{f: f}, func(args []any) (SplitType, error) {
		return NewSplitType("ArraySplit", int64(len(args[0].([]float64)))), nil
	})
	sa := &Annotation{FuncName: "copy", Params: []Param{{Name: "a", Type: typ}}, Ret: &typ}
	return s.Call(func(args []any) (any, error) {
		f.at("call")
		return append([]float64(nil), args[0].([]float64)...), nil
	}, sa, a)
}

// TestFanOutPanicOnCallerIsIsolated: an annotated function, a splitter and a
// Place that panic inside worker 0 — on the goroutine that called
// EvaluateContext — surface as a StageError naming the batch, exactly as
// they do from a pool worker, and never as a panic out of EvaluateContext.
func TestFanOutPanicOnCallerIsIsolated(t *testing.T) {
	origins := map[string]FaultOrigin{"call": OriginCall, "split": OriginSplit, "place": OriginMerge}
	for site, origin := range origins {
		for _, workers := range []int{1, 2, 3} {
			schedulerVariants(t, func(t *testing.T, poison bool) {
				f := newCallerFault(site, func() { panic("boom on the caller") })
				s := NewSession(Options{Workers: workers, BatchElems: 4, PoisonPools: poison})
				out := captureCopy(s, f, seq(64))
				err := s.EvaluateContext(context.Background())
				var serr *StageError
				if !errors.As(err, &serr) {
					t.Fatalf("%s, %d workers: want *StageError, got %v", site, workers, err)
				}
				if serr.Origin != origin || serr.PanicValue != "boom on the caller" || len(serr.Stack) == 0 {
					t.Errorf("%s, %d workers: origin %v panic %v, want %v carrying the panic", site, workers, serr.Origin, serr.PanicValue, origin)
				}
				if serr.Start < 0 || serr.End-serr.Start != 4 {
					t.Errorf("%s, %d workers: batch range [%d,%d), want one 4-element batch", site, workers, serr.Start, serr.End)
				}
				if _, err := out.Get(); !errors.Is(err, ErrNotEvaluated) {
					t.Errorf("%s, %d workers: output after the fault reads %v, want ErrNotEvaluated", site, workers, err)
				}
			})
		}
	}
}

// TestFanOutStopsAtBatchBoundary: whichever side of the fan-out sees the
// stage end first — worker 0 on the caller or a pool worker, by a fault, a
// cancellation or the stage timeout — the other side stops at its next
// batch boundary instead of working through its share.
func TestFanOutStopsAtBatchBoundary(t *testing.T) {
	const n = 200
	cases := []struct {
		name   string
		onPool bool // the stage ends from a pool worker's batch, not the caller's
		origin FaultOrigin
	}{
		{"fault on the caller", false, OriginCall},
		{"fault on a pool worker", true, OriginCall},
		{"cancellation seen by the caller", false, OriginCanceled},
		{"timeout", false, OriginTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			schedulerVariants(t, func(t *testing.T, poison bool) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				opts := Options{Workers: 2, BatchElems: 1, PoisonPools: poison}
				if tc.origin == OriginTimeout {
					opts.StageTimeout = 20 * time.Millisecond
				}
				caller := goid()
				var ended atomic.Bool
				slow := func(args []any) (any, error) {
					if tc.origin != OriginTimeout && (goid() != caller) == tc.onPool && ended.CompareAndSwap(false, true) {
						if tc.origin == OriginCanceled {
							cancel()
						} else {
							return nil, errors.New("early failure")
						}
					}
					time.Sleep(2 * time.Millisecond)
					return testLog1p(args)
				}
				s := NewSession(opts)
				s.Call(slow, saUnary("slow"), n, seq(n), make([]float64, n))
				err := s.EvaluateContext(ctx)
				var serr *StageError
				if !errors.As(err, &serr) || serr.Origin != tc.origin {
					t.Fatalf("want a %v-origin StageError, got %v", tc.origin, err)
				}
				// Each side owns half of the batches; one that kept going
				// would push Calls past n/2.
				if got := s.Stats().Calls; got >= n/2 {
					t.Errorf("Calls = %d of %d batches: a worker did not stop at its batch boundary", got, n)
				}
			})
		})
	}
}

// goroutineLabels returns the current goroutine's pprof labels as the
// goroutine profile renders them ("" when it has none).
func goroutineLabels(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, "core.goroutineLabels") {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			if l, ok := strings.CutPrefix(line, "# labels: "); ok {
				return l
			}
		}
		return ""
	}
	t.Fatal("current goroutine not found in the goroutine profile")
	return ""
}

// TestFanOutRestoresProfileLabels: with ProfileLabels worker 0 labels the
// caller's goroutine for the duration of a stage, and the labels the
// evaluation's context carries are back afterwards.
func TestFanOutRestoresProfileLabels(t *testing.T) {
	pprof.Do(context.Background(), pprof.Labels("who", "caller"), func(ctx context.Context) {
		before := goroutineLabels(t)
		if !strings.Contains(before, `"who":"caller"`) {
			t.Fatalf("labels before = %q, want who=caller", before)
		}
		caller := goid()
		var during atomic.Value
		fn := func(args []any) (any, error) {
			if goid() == caller {
				during.Store(goroutineLabels(t))
			}
			return fnAddNew(args)
		}
		s := NewSession(Options{Workers: 2, BatchElems: 8, ProfileLabels: true})
		s.Call(fn, saAddNew, seq(64), seq(64))
		if err := s.EvaluateContext(ctx); err != nil {
			t.Fatal(err)
		}
		d, _ := during.Load().(string)
		if !strings.Contains(d, `"mozart_stage":"0"`) || !strings.Contains(d, `"who":"caller"`) {
			t.Errorf("labels inside worker 0 = %q, want the stage's labels on top of the caller's", d)
		}
		if after := goroutineLabels(t); after != before {
			t.Errorf("labels after the evaluation = %q, want %q", after, before)
		}
	})
}

// TestFanOutWorkerCounts: fanOut runs each share exactly once with its own
// index, share 0 on the calling goroutine, offers the other W−1 to the pool,
// and returns only after all of them have run — also when the pool has fewer
// workers than there are shares, and the caller has to take the rest.
func TestFanOutWorkerCounts(t *testing.T) {
	for workers := 1; workers <= 5; workers++ {
		s := NewSession(Options{Workers: workers, WorkerPool: NewWorkerPool(2)})
		caller := goid()
		ran := make([]atomic.Int64, workers)
		var zeroOffCaller atomic.Bool
		s.fanOut(workers, func(w int) {
			if w == 0 && goid() != caller {
				zeroOffCaller.Store(true)
			}
			time.Sleep(time.Millisecond)
			ran[w].Add(1)
		})
		for w := range ran {
			if got := ran[w].Load(); got != 1 {
				t.Errorf("%d workers: share %d ran %d times by the time fanOut returned, want 1", workers, w, got)
			}
		}
		if zeroOffCaller.Load() {
			t.Errorf("%d workers: share 0 ran off the calling goroutine", workers)
		}
		if st := s.Stats(); st.PoolTasks != int64(workers-1) {
			t.Errorf("%d workers: PoolTasks = %d, want %d", workers, st.PoolTasks, workers-1)
		}
	}
}

// TestFanOutOfferIsQueuedNotDropped: two one-batch evaluations leave the
// pool's only worker somewhere between running their (already claimed)
// offers and parking again at the instant a 200-batch stage makes its offer.
// Wherever that instant falls the offer must reach the worker: a helper runs
// one of the long stage's batches within its first few, rather than the stage
// running on the caller alone.
func TestFanOutOfferIsQueuedNotDropped(t *testing.T) {
	const n = 200
	for round := 0; round < 10; round++ {
		pool := NewWorkerPool(1)
		for i := 0; i < 2; i++ {
			s := NewSession(Options{Workers: 2, WorkerPool: pool})
			s.Call(testLog1p, saUnary("tiny"), 8, seq(8), make([]float64, 8))
			if err := s.EvaluateContext(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		caller := goid()
		var calls, helperAt atomic.Int64
		slow := func(args []any) (any, error) {
			if at := calls.Add(1); goid() != caller {
				helperAt.CompareAndSwap(0, at)
			}
			time.Sleep(time.Millisecond)
			return testLog1p(args)
		}
		s := NewSession(Options{Workers: 2, BatchElems: 1, WorkerPool: pool})
		s.Call(slow, saUnary("slow"), n, seq(n), make([]float64, n))
		if err := s.EvaluateContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		if at := helperAt.Load(); at == 0 || at > 10 {
			t.Fatalf("round %d: the first batch on a helper was call %d of %d (0 = none); want it among the first ten", round, at, n)
		}
		if st := s.Stats(); st.WorkerSpawns != 0 {
			t.Errorf("round %d: WorkerSpawns = %d on a pool whose worker already exists", round, st.WorkerSpawns)
		}
	}
}

// TestFanOutClaimedShareFaults: a share the caller claimed after finishing
// share 0 is a stage worker like any other. A panic, a cancellation or the
// stage timeout inside it surfaces as the same StageError, naming the batch,
// and stops the sibling a helper claimed at its next batch boundary — and a
// fault in the helper's share stops the caller's claimed one.
func TestFanOutClaimedShareFaults(t *testing.T) {
	const n, share = 300, 100 // three shares of 100 one-element batches
	cases := []struct {
		name     string
		onHelper bool // the stage ends from the helper's share, not the caller's claimed one
		origin   FaultOrigin
	}{
		{"panic in the caller's claimed share", false, OriginCall},
		{"panic in the helper's share", true, OriginCall},
		{"cancellation in the caller's claimed share", false, OriginCanceled},
		{"cancellation in the helper's share", true, OriginCanceled},
		{"timeout", false, OriginTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// One helper for three shares: it claims one of shares 1 and 2,
			// and the caller — whose share 0 is instant once the helper is in
			// — claims the other.
			opts := Options{Workers: 3, BatchElems: 1, WorkerPool: NewWorkerPool(1)}
			// The timeout needs no rendezvous: whoever holds a share when it
			// passes must stop.
			timeout := tc.origin == OriginTimeout
			if timeout {
				opts.StageTimeout = 20 * time.Millisecond
			}
			caller := goid()
			helperIn, callerClaimed := make(chan struct{}), make(chan struct{})
			var helperOnce, callerOnce, ended sync.Once
			var faulted atomic.Bool
			await := func(ch chan struct{}, what string) {
				if timeout {
					return
				}
				select {
				case <-ch:
				case <-time.After(5 * time.Second):
					panic(what)
				}
			}
			fn := func(args []any) (any, error) {
				at, onCaller := int(args[0].([]float64)[0]), goid() == caller
				switch {
				case at < share: // share 0
					await(helperIn, "no helper claimed a share")
					return fnAddNew(args)
				case onCaller:
					callerOnce.Do(func() { close(callerClaimed) })
				default:
					helperOnce.Do(func() { close(helperIn) })
					await(callerClaimed, "the caller claimed no share")
				}
				if !timeout && onCaller != tc.onHelper {
					ended.Do(func() {
						faulted.Store(true)
						if tc.origin == OriginCanceled {
							cancel()
						} else {
							panic("boom in a claimed share")
						}
					})
				}
				time.Sleep(2 * time.Millisecond)
				return fnAddNew(args)
			}
			idx := make([]float64, n)
			for i := range idx {
				idx[i] = float64(i)
			}
			s := NewSession(opts)
			s.Call(fn, saAddNew, idx, idx)
			err := s.EvaluateContext(ctx)
			var serr *StageError
			if !errors.As(err, &serr) || serr.Origin != tc.origin {
				t.Fatalf("want a %v-origin StageError, got %v", tc.origin, err)
			}
			if tc.origin == OriginCall {
				if serr.PanicValue != "boom in a claimed share" || serr.Start < share || serr.End != serr.Start+1 {
					t.Errorf("panic %v over [%d,%d), want the panic over one batch past share 0", serr.PanicValue, serr.Start, serr.End)
				}
			}
			if !timeout && !faulted.Load() {
				t.Fatal("the fault never fired")
			}
			// Share 0 ran whole; the two claimed shares own 100 batches each,
			// and one that kept going would add most of them.
			if got := s.Stats().Calls; got >= share+share/2 {
				t.Errorf("Calls = %d of %d batches: a claimed share did not stop at its batch boundary", got, n)
			}
		})
	}
}

// TestFanOutClaimedShareProfileLabels: with ProfileLabels a share the caller
// claimed runs under that stage's labels on top of the caller's own, and the
// caller's own are back afterwards — also between the shares it runs.
func TestFanOutClaimedShareProfileLabels(t *testing.T) {
	pprof.Do(context.Background(), pprof.Labels("who", "caller"), func(ctx context.Context) {
		before := goroutineLabels(t)
		pool := NewWorkerPool(1)
		defer HoldPool(pool)() // no helper: the caller runs shares 0, 1 and 2
		var during []string
		fn := func(args []any) (any, error) {
			during = append(during, goroutineLabels(t))
			return fnAddNew(args)
		}
		s := NewSession(Options{Workers: 3, BatchElems: 8, ProfileLabels: true, WorkerPool: pool})
		s.Call(fn, saAddNew, seq(24), seq(24))
		if err := s.EvaluateContext(ctx); err != nil {
			t.Fatal(err)
		}
		if len(during) != 3 {
			t.Fatalf("%d batches ran, want one per share", len(during))
		}
		for w, d := range during {
			if !strings.Contains(d, `"mozart_stage":"0"`) || !strings.Contains(d, `"who":"caller"`) {
				t.Errorf("labels inside share %d = %q, want the stage's labels on top of the caller's", w, d)
			}
		}
		if after := goroutineLabels(t); after != before {
			t.Errorf("labels after the evaluation = %q, want %q", after, before)
		}
	})
}
