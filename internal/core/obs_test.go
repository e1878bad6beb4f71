package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mozart/internal/memsim"
	"mozart/internal/obs"
	ir "mozart/internal/plan"
	"mozart/internal/planlower"
)

// recordingTracer captures every emitted event, and the goroutine that
// emitted it. Safe for concurrent use.
type recordingTracer struct {
	mu     sync.Mutex
	events []obs.Event
	goids  []uint64 // goids[i] emitted events[i]
}

func (r *recordingTracer) Emit(e obs.Event) {
	id := goid()
	r.mu.Lock()
	r.events = append(r.events, e)
	r.goids = append(r.goids, id)
	r.mu.Unlock()
}

func (r *recordingTracer) all() []obs.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]obs.Event(nil), r.events...)
}

func (r *recordingTracer) ofKind(k obs.EventKind) []obs.Event {
	var out []obs.Event
	for _, e := range r.all() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestTracerStageOrder: a traced evaluation emits session-begin, then the
// plan, then for each stage a begin/end bracket enclosing its batches, and a
// final session-end. The pipelined three-call chain plans into one stage, so
// the batch spans must carry the full call pipeline.
func TestTracerStageOrder(t *testing.T) {
	schedulerVariants(t, func(t *testing.T, poison bool) {
		const n = 64
		tr := &recordingTracer{}
		a, out := seq(n), make([]float64, n)
		s := NewSession(Options{Workers: 2, BatchElems: 8,
			PoisonPools: poison, Tracer: tr})
		s.Call(testLog1p, saUnary("log1p"), n, a, out)
		s.Call(testLog1p, saUnary("log1p"), n, out, out)
		if err := s.EvaluateContext(context.Background()); err != nil {
			t.Fatal(err)
		}

		ev := tr.all()
		if len(ev) == 0 {
			t.Fatal("no events recorded")
		}
		if ev[0].Kind != obs.EvSessionBegin {
			t.Errorf("first event = %v, want session-begin", ev[0].Kind)
		}
		if ev[1].Kind != obs.EvPlan || ev[1].Stages != 1 {
			t.Errorf("second event = %v (stages=%d), want plan with 1 stage", ev[1].Kind, ev[1].Stages)
		}
		if last := ev[len(ev)-1]; last.Kind != obs.EvSessionEnd || last.Dur <= 0 {
			t.Errorf("last event = %v (dur=%v), want session-end with positive duration", last.Kind, last.Dur)
		}

		// The stage bracket: exactly one begin and one end, begin before any
		// batch, end after every batch.
		var beginIdx, endIdx = -1, -1
		var batchIdxs []int
		for i, e := range ev {
			switch e.Kind {
			case obs.EvStageBegin:
				if beginIdx != -1 {
					t.Fatal("more than one stage-begin")
				}
				beginIdx = i
			case obs.EvStageEnd:
				if endIdx != -1 {
					t.Fatal("more than one stage-end")
				}
				endIdx = i
			case obs.EvBatch:
				batchIdxs = append(batchIdxs, i)
			}
		}
		if beginIdx == -1 || endIdx == -1 {
			t.Fatal("missing stage bracket")
		}
		if len(batchIdxs) != n/8 {
			t.Errorf("batches = %d, want %d", len(batchIdxs), n/8)
		}
		for _, bi := range batchIdxs {
			if bi < beginIdx || bi > endIdx {
				t.Errorf("batch event at %d escapes stage bracket [%d,%d]", bi, beginIdx, endIdx)
			}
		}

		begin := ev[beginIdx]
		if begin.Calls != "log1p -> log1p" {
			t.Errorf("stage calls = %q, want pipelined pair", begin.Calls)
		}
		if begin.Elems != n || begin.Workers != 2 || begin.BatchElems != 8 {
			t.Errorf("stage shape = elems %d workers %d batch %d", begin.Elems, begin.Workers, begin.BatchElems)
		}
		for _, bi := range batchIdxs {
			b := ev[bi]
			if b.Calls != "log1p -> log1p" || b.Attempt != 1 {
				t.Errorf("batch event %+v: want pipeline calls and attempt 1", b)
			}
			if b.SplitNS < 0 || b.TaskNS <= 0 {
				t.Errorf("batch phase timings split=%d task=%d", b.SplitNS, b.TaskNS)
			}
		}
	})
}

// TestTracerWorkerLanesDisjoint: under static partitioning the per-batch
// element ranges must tile [0, n) exactly, and each worker's ranges must be
// disjoint from every other worker's.
func TestTracerWorkerLanesDisjoint(t *testing.T) {
	const n = 96
	tr := &recordingTracer{}
	a, out := seq(n), make([]float64, n)
	s := NewSession(Options{Workers: 3, BatchElems: 8, Tracer: tr})
	s.Call(testLog1p, saUnary("log1p"), n, a, out)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	type span struct{ w, start, end int64 }
	var spans []span
	for _, e := range tr.ofKind(obs.EvBatch) {
		if e.Worker < 0 || e.Worker >= 3 {
			t.Fatalf("batch on worker %d, want [0,3)", e.Worker)
		}
		spans = append(spans, span{int64(e.Worker), e.Start, e.End})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var next int64
	for _, sp := range spans {
		if sp.start != next {
			t.Fatalf("batch ranges do not tile [0,%d): gap/overlap at %d (got start %d)", n, next, sp.start)
		}
		next = sp.end
	}
	if next != n {
		t.Fatalf("batch ranges end at %d, want %d", next, n)
	}
	// Static partitioning hands each worker one contiguous region: a
	// worker's spans never interleave with another's.
	lastWorker := int64(-1)
	seen := map[int64]bool{}
	for _, sp := range spans {
		if sp.w != lastWorker {
			if seen[sp.w] {
				t.Fatalf("worker %d's region interleaves with another worker's", sp.w)
			}
			seen[sp.w] = true
			lastWorker = sp.w
		}
	}
}

// TestTracerWorkerZeroLaneIsTheCaller: a share reports on the lane of its
// index whoever runs it. Lane 0 is share 0 and so only ever the caller's;
// any other lane belongs, for the length of a stage, to the one goroutine
// that claimed that share — a pool helper or the caller again — and since a
// share runs its batches one after another, a lane's batch spans never
// overlap in time.
func TestTracerWorkerZeroLaneIsTheCaller(t *testing.T) {
	schedulerVariants(t, func(t *testing.T, poison bool) {
		const n, workers = 96, 3
		tr := &recordingTracer{}
		// Two stages (no pipelining: one per call), so that a lane can change
		// hands between them; merged outputs, so that workers emit EvMerge too.
		s := NewSession(Options{Workers: workers, BatchElems: 8, Tracer: tr,
			PoisonPools: poison, DisablePipelining: true})
		s.Call(fnAddNew, saAddNew, s.Call(fnAddNew, saAddNew, seq(n), seq(n)), seq(n))
		if err := s.EvaluateContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Stages != 2 {
			t.Fatalf("Stages = %d, want 2", st.Stages)
		}
		caller := goid()
		type lane struct{ stage, worker int }
		laneOwner := map[lane]uint64{}
		batches := map[lane][]obs.Event{}
		kinds := map[obs.EventKind]int{}
		for i, e := range tr.all() {
			if (e.Kind != obs.EvBatch && e.Kind != obs.EvMerge) || e.Worker == obs.RuntimeLane {
				if tr.goids[i] != caller {
					t.Errorf("%v event on the runtime lane came from goroutine %d, want the caller", e.Kind, tr.goids[i])
				}
				continue
			}
			if e.Worker < 0 || e.Worker >= workers {
				t.Fatalf("%v event on worker %d, want [0,%d)", e.Kind, e.Worker, workers)
			}
			if e.Worker == 0 && tr.goids[i] != caller {
				t.Errorf("%v event on lane 0 came from goroutine %d (caller is %d): lane 0 is only ever the caller's",
					e.Kind, tr.goids[i], caller)
			}
			l := lane{e.Stage, e.Worker}
			if owner, ok := laneOwner[l]; ok && owner != tr.goids[i] {
				t.Errorf("stage %d: lane %d shared by goroutines %d and %d", e.Stage, e.Worker, owner, tr.goids[i])
			}
			laneOwner[l] = tr.goids[i]
			if e.Kind == obs.EvBatch {
				batches[l] = append(batches[l], e)
			}
			if e.Stage == 0 && e.Worker == 0 {
				kinds[e.Kind]++
			}
		}
		for l, evs := range batches {
			sort.Slice(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
			for i := 1; i < len(evs); i++ {
				if begin := evs[i].Time.Add(-evs[i].Dur); begin.Before(evs[i-1].Time) {
					t.Errorf("stage %d lane %d: a batch span begins %v before the previous one ends", l.stage, l.worker, evs[i-1].Time.Sub(begin))
				}
			}
		}
		// Static partitioning guarantees share 0 a range, and so a pre-merge.
		if kinds[obs.EvBatch] == 0 || kinds[obs.EvMerge] == 0 {
			t.Errorf("lane 0 carried %d batch and %d merge spans, want both", kinds[obs.EvBatch], kinds[obs.EvMerge])
		}
	})
}

// TestNilTracerInert: tracing must be purely observational. The same
// workload with and without a tracer produces identical results and
// identical execution-shape statistics.
func TestNilTracerInert(t *testing.T) {
	const n = 64
	run := func(tr obs.Tracer) ([]float64, StatsSnapshot) {
		a, out := seq(n), make([]float64, n)
		s := NewSession(Options{Workers: 2, BatchElems: 8, Tracer: tr})
		s.Call(testLog1p, saUnary("log1p"), n, a, out)
		if err := s.EvaluateContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		return out, s.Stats()
	}
	plain, pst := run(nil)
	tr := &recordingTracer{}
	traced, tst := run(tr)
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("results diverge at %d: %v vs %v", i, plain[i], traced[i])
		}
	}
	if pst.Batches != tst.Batches || pst.Stages != tst.Stages || pst.Calls != tst.Calls {
		t.Errorf("tracing changed execution shape: %+v vs %+v", pst, tst)
	}
	if len(tr.all()) == 0 {
		t.Error("the traced run should have emitted events")
	}
}

// TestTracerRetryEvents: a transient library fault under RetryPolicy emits
// one retry event carrying the fault, and the replayed batch arrives with
// attempt 2.
func TestTracerRetryEvents(t *testing.T) {
	const n = 64
	var calls atomic.Int64
	tr := &recordingTracer{}
	a, out := seq(n), make([]float64, n)
	s := NewSession(Options{Workers: 2, BatchElems: 8, Tracer: tr,
		RetryPolicy: RetryPolicy{MaxAttempts: 3, Sleep: noSleep}})
	s.Call(accumulateOnce(3, &calls), saUnary("acc"), n, a, out)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	retries := tr.ofKind(obs.EvRetry)
	if len(retries) != 1 {
		t.Fatalf("retry events = %d, want 1", len(retries))
	}
	r := retries[0]
	if r.Attempt != 1 || r.Detail == "" {
		t.Errorf("retry event %+v: want attempt 1 and a fault detail", r)
	}
	var replayed bool
	for _, b := range tr.ofKind(obs.EvBatch) {
		if b.Attempt == 2 && b.Start == r.Start && b.End == r.End {
			replayed = true
		}
	}
	if !replayed {
		t.Error("no batch event with attempt 2 matching the retried range")
	}
}

// TestTracerFallbackEvent: a persistently faulty splitter under
// FallbackWholeCall emits a fallback span carrying the original fault, and
// the stage still closes successfully.
func TestTracerFallbackEvent(t *testing.T) {
	const n = 48
	var calls atomic.Int64
	sp := flakySplitter{calls: &calls, failN: 0, mode: "error"}
	tr := &recordingTracer{}
	a, out := seq(n), make([]float64, n)
	s := NewSession(Options{Workers: 2, BatchElems: 8, Tracer: tr,
		FallbackPolicy: FallbackWholeCall})
	s.Call(testLog1p, saFlakyUnary("flaky", sp), n, a, out)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != math.Log1p(a[i]) {
			t.Fatalf("out[%d] wrong after fallback", i)
		}
	}

	fbs := tr.ofKind(obs.EvFallback)
	if len(fbs) != 1 {
		t.Fatalf("fallback events = %d, want 1", len(fbs))
	}
	if fbs[0].Detail == "" || fbs[0].Dur <= 0 {
		t.Errorf("fallback event %+v: want the original fault and a span duration", fbs[0])
	}
	ends := tr.ofKind(obs.EvStageEnd)
	if len(ends) != 1 || ends[0].Detail != "" {
		t.Errorf("stage-end events %+v: want one successful close", ends)
	}
}

// TestTracerBreakerEvents: the quarantine lifecycle emits breaker
// transitions — open on the trip, half-open on the cooldown probe, closed on
// recovery.
func TestTracerBreakerEvents(t *testing.T) {
	const n = 32
	var broken atomic.Bool
	var splits atomic.Int64
	sp := switchableSplitter{broken: &broken, splits: &splits}
	tr := &recordingTracer{}

	now := time.Unix(0, 0)
	s := NewSession(Options{Workers: 2, BatchElems: 8, Tracer: tr,
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
	eval() // trips: open
	broken.Store(false)
	now = now.Add(2 * time.Minute)
	eval() // cooldown elapsed: half-open probe succeeds, closes

	var states []string
	for _, e := range tr.ofKind(obs.EvBreaker) {
		if e.Calls != "flaky" {
			t.Errorf("breaker event names %q, want flaky", e.Calls)
		}
		states = append(states, e.Detail)
	}
	want := []string{"open", "half-open", "closed"}
	if len(states) != len(want) {
		t.Fatalf("breaker transitions = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("breaker transitions = %v, want %v", states, want)
		}
	}
}

// TestTracerAdmissionEvent: with a Governor active every split stage records
// its admission, carrying the reserved footprint and the admitted shape.
func TestTracerAdmissionEvent(t *testing.T) {
	const n = 64
	tr := &recordingTracer{}
	a, out := seq(n), make([]float64, n)
	s := NewSession(Options{Workers: 2, BatchElems: 8, Tracer: tr,
		Governor: NewGovernor(1 << 30)})
	s.Call(testLog1p, saUnary("log1p"), n, a, out)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	adm := tr.ofKind(obs.EvAdmission)
	if len(adm) != 1 {
		t.Fatalf("admission events = %d, want 1", len(adm))
	}
	if adm[0].Bytes <= 0 || adm[0].Workers != 2 || adm[0].BatchElems != 8 {
		t.Errorf("admission event %+v: want reserved bytes and the admitted shape", adm[0])
	}
}

// TestEvaluateContextCancelMidStage: canceling the caller's context from
// inside a library call stops the evaluation at the next batch boundary and
// surfaces context.Canceled through the error chain — on both schedulers.
func TestEvaluateContextCancelMidStage(t *testing.T) {
	schedulerVariants(t, func(t *testing.T, poison bool) {
		const n = 64
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()

		var calls atomic.Int64
		cancelDuringCall := func(args []any) (any, error) {
			if calls.Add(1) == 1 {
				cancel()
			}
			return testLog1p(args)
		}

		tr := &recordingTracer{}
		a, out := seq(n), make([]float64, n)
		s := NewSession(Options{Workers: 1, BatchElems: 8,
			PoisonPools: poison, Tracer: tr})
		s.Call(cancelDuringCall, saUnary("log1p"), n, a, out)

		err := s.EvaluateContext(ctx)
		if err == nil {
			t.Fatal("want cancellation to fail the evaluation")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errors.Is(err, context.Canceled) = false; err = %v", err)
		}
		var serr *StageError
		if !errors.As(err, &serr) || serr.Origin != OriginCanceled {
			t.Errorf("want a canceled-origin StageError, got %v", err)
		}
		// The in-flight batch ran to completion (library calls cannot be
		// preempted); later batches never started.
		if got := calls.Load(); got != 1 {
			t.Errorf("library calls after cancel = %d, want 1", got)
		}
		// The trace still closes cleanly: session-end is the final event and
		// carries the failure.
		ev := tr.all()
		last := ev[len(ev)-1]
		if last.Kind != obs.EvSessionEnd || last.Detail == "" {
			t.Errorf("last event = %+v, want session-end carrying the error", last)
		}
	})
}

// TestSimulateCountersEvents: the memsim model lives beside the runtime, not
// in it. The executed plan, captured through Options.OnPlan, lowers through
// planlower.SimulateCounters into non-trivial counters; two evaluations of
// the same shape lower to identical counters; and the session's tracer sees
// only the measured event kinds.
func TestSimulateCountersEvents(t *testing.T) {
	const n = 4096
	tr := &recordingTracer{}
	var plans []*ir.Plan
	a, out := seq(n), make([]float64, n)
	s := NewSession(Options{Workers: 2, BatchElems: 512, Tracer: tr,
		OnPlan: func(p *ir.Plan) { plans = append(plans, p) }})
	eval := func() []memsim.StageCounters {
		t.Helper()
		s.Call(testLog1p, saUnary("log1p"), n, a, out)
		s.Call(testLog1p, saUnary("log1p"), n, out, out)
		if err := s.EvaluateContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		p := plans[len(plans)-1]
		return planlower.SimulateCounters(p, planlower.Options{Name: "live"},
			memsim.DefaultMachine(), s.Options().Workers)
	}
	first := eval()

	if len(first) != 1 {
		t.Fatalf("simulated stages = %d, want 1 (one pipelined stage)", len(first))
	}
	c := first[0]
	if c == (memsim.StageCounters{}) {
		t.Fatal("counters are all zero")
	}
	if c.L1Hits+c.L1Misses == 0 || c.DRAMBytes <= 0 || c.Seconds <= 0 {
		t.Errorf("counters not populated: %+v", c)
	}
	// Accesses flow down the hierarchy: L2 sees at most L1's misses.
	if c.L2Hits+c.L2Misses > c.L1Misses {
		t.Errorf("L2 accesses (%d) exceed L1 misses (%d)", c.L2Hits+c.L2Misses, c.L1Misses)
	}

	// Second evaluation of the same shape: identical counters.
	if second := eval(); !reflect.DeepEqual(second, first) {
		t.Errorf("same shape lowered differently: %+v vs %+v", second, first)
	}

	measured := map[obs.EventKind]bool{obs.EvSessionBegin: true, obs.EvSessionEnd: true,
		obs.EvPlan: true, obs.EvStageBegin: true, obs.EvStageEnd: true,
		obs.EvBatch: true, obs.EvMerge: true}
	for _, e := range tr.all() {
		if !measured[e.Kind] {
			t.Errorf("tracer saw %s, which is not a measured kind", e.Kind)
		}
	}
}

// BenchmarkEvaluatePipeline measures a three-call pipelined evaluation with
// tracing disabled (the nil-tracer fast path) and with both shipped sinks
// attached, so the per-batch tracing overhead is visible in benchstat.
func BenchmarkEvaluatePipeline(b *testing.B) {
	const n = 1 << 16
	bench := func(b *testing.B, mk func() obs.Tracer) {
		a, out := seq(n), make([]float64, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := NewSession(Options{Workers: 2, BatchElems: 4096, Tracer: mk()})
			s.Call(testLog1p, saUnary("log1p"), n, a, out)
			s.Call(testLog1p, saUnary("log1p"), n, out, out)
			if err := s.EvaluateContext(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil-tracer", func(b *testing.B) {
		bench(b, func() obs.Tracer { return nil })
	})
	b.Run("chrome+metrics", func(b *testing.B) {
		bench(b, func() obs.Tracer {
			return obs.Multi(obs.NewChromeTrace(), obs.NewMetrics())
		})
	})
}
