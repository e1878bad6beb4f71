package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mozart/internal/annotations/framesa"
	"mozart/internal/annotations/vmathsa" // and its default splitters for []float64 and *vmath.Matrix
	"mozart/internal/core"
	"mozart/internal/faultinject"
	"mozart/internal/frame"
	"mozart/internal/obs"
	"mozart/internal/vmath"
)

// The §3.4 oracle for placed outputs: a pipeline whose outputs are assembled
// by placement (core.PlaceSplitter) must produce exactly what the unsplit
// library calls produce, in memory and out of core, at every worker count and
// batch size, through retry replays and whole-call fallback.

var genericS = core.Generic("S")

// scaleFn is (a: S) -> S over []float64, returning a fresh slice: a placed
// ArraySplit output.
var scaleFn core.Func = func(args []any) (any, error) {
	a := args[0].([]float64)
	out := make([]float64, len(a))
	for i, x := range a {
		out[i] = 1.5*x + 1
	}
	return out, nil
}

// negateFn is (m: S) -> S over *vmath.Matrix, returning a fresh matrix: a
// placed MatrixSplit output.
var negateFn core.Func = func(args []any) (any, error) {
	m := args[0].(*vmath.Matrix)
	out := vmath.NewMatrix(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = -x
	}
	return out, nil
}

func unarySA(name string) *core.Annotation { return typedSA(name, genericS) }

// placedInputs is one input set of n elements for the pipeline below.
type placedInputs struct {
	a, b *frame.Series // a carries nulls, b does not
	keep *frame.Series // a boolean mask over b
	xs   []float64
	m    *vmath.Matrix
}

func newPlacedInputs(n int) placedInputs {
	in := placedInputs{xs: make([]float64, n), m: vmath.NewMatrix(n, 3)}
	av, bv, valid, keep := make([]float64, n), make([]float64, n), make([]bool, n), make([]bool, n)
	for i := 0; i < n; i++ {
		av[i], bv[i], valid[i], keep[i] = float64(i%97), float64(3*i%89), i%7 != 0, i%3 != 1
		in.xs[i] = float64(i) / 8
	}
	in.keep = frame.NewBool("keep", keep)
	for i := range in.m.Data {
		in.m.Data[i] = float64(i%13) - 6
	}
	in.a, in.b = frame.NewFloat("a", av), frame.NewFloat("b", bv)
	in.a.Valid = valid
	return in
}

// whole runs the pipeline through the unmodified libraries.
func (in placedInputs) whole() []any {
	sum := frame.AddSeries(in.a, in.b)
	filled := frame.FillNullFloat(sum, -1)
	scaled, _ := scaleFn([]any{in.xs})
	negated, _ := negateFn([]any{in.m})
	out := []any{sum, frame.GtScalar(filled, 50), frame.CountValid(sum), scaled, negated}
	if in.b.Len() > 0 {
		out = append(out, frame.FilterSeries(in.b, in.keep))
	}
	return out
}

// capture registers the same pipeline with s: a masked float column, a
// mask-less bool column, a reduction (merged, not placed), an array, a
// matrix and — over a non-empty input — a filtered column, whose pieces are
// merged, not placed, in element order. (A Merge of no pieces cannot name the
// filter's deferred result type.) scale is scaleFn, possibly wrapped for fault
// injection.
func (in placedInputs) capture(s *core.Session, scale core.Func) []*core.Future {
	sum := framesa.AddSeries(s, in.a, in.b).Keep()
	filled := framesa.FillNullFloat(s, sum, -1)
	futs := []*core.Future{
		sum, framesa.GtScalar(s, filled, 50), framesa.CountValid(s, sum),
		s.Call(scale, unarySA("test.scale"), in.xs),
		s.Call(negateFn, unarySA("test.negate"), in.m),
	}
	if in.b.Len() > 0 {
		futs = append(futs, framesa.FilterSeries(s, in.b, in.keep))
	}
	return futs
}

// elems reports the row count of a pipeline value (-1 for scalars).
func elems(v any) int {
	switch x := v.(type) {
	case *frame.Series:
		return x.Len()
	case []float64:
		return len(x)
	case *vmath.Matrix:
		return x.Rows
	}
	return -1
}

// checkAgainstWhole evaluates the futures and compares them bit for bit with
// the unsplit results. On zero-element inputs no batch runs and every output
// is a Merge of no pieces, which has no piece to take a name, dtype or
// scalar type from: only emptiness is compared there.
func checkAgainstWhole(t *testing.T, futs []*core.Future, want []any, empty bool) {
	t.Helper()
	for i, f := range futs {
		got, err := f.Get()
		if err != nil {
			t.Fatalf("output %d: %v", i, err)
		}
		if empty {
			if elems(got) > 0 || (elems(got) < 0 && fmt.Sprint(got) != fmt.Sprint(want[i])) {
				t.Fatalf("output %d from empty input: got %+v, want %+v", i, got, want[i])
			}
			continue
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("output %d differs from the unsplit call:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

// executorCells are the stage loop's modes in the fan-out matrix: in memory
// ("static"), the same with poisoned buffer pools ("dynamic", the name the
// cell had when a second batch scheduler existed) and out of core under a
// budget far below the working set ("streaming", the name it had when a
// second executor ran it).
var executorCells = []struct {
	name              string
	poison, outOfCore bool
}{{"static", false, false}, {"dynamic", true, false}, {"streaming", false, true}}

// cellOptions is the options of an executor cell at the given shape.
func cellOptions(t *testing.T, poison, outOfCore bool, workers int, batch int64) core.Options {
	opts := core.Options{Workers: workers, BatchElems: batch, PoisonPools: poison}
	if outOfCore {
		opts.OutOfCore, opts.Governor, opts.SpillDir = true, core.NewGovernor(1024), t.TempDir()
		opts.Tracer = &windowCount{}
	}
	return opts
}

// forEachExecutorCell runs f in a subtest for every cell of the fan-out
// matrix: each executor cell at one to four workers and three batch sizes,
// over 103 elements and over none. Out of core, a stage whose split inputs
// all have window views (CapWindow: the []float64 chains of the reuse-slot
// tests) runs each window over views at window coordinates; the placed
// pipeline's stage, whose Series and Matrix inputs have none, runs its
// windows at absolute coordinates over the materialized inputs.
func forEachExecutorCell(t *testing.T, f func(t *testing.T, in placedInputs, opts core.Options)) {
	const n = 103
	for _, total := range []int{n, 0} {
		in := newPlacedInputs(total)
		for _, cell := range executorCells {
			for workers := 1; workers <= 4; workers++ {
				for _, batch := range []int64{1, 10, n + 50} {
					name := fmt.Sprintf("n=%d/%s/workers=%d/batch=%d", total, cell.name, workers, batch)
					t.Run(name, func(t *testing.T) {
						opts := cellOptions(t, cell.poison, cell.outOfCore, workers, batch)
						opts.Pedantic = total > 0
						f(t, in, opts)
					})
				}
			}
		}
	}
}

// Share 0 on the caller and its siblings, whoever runs them, must together
// produce the unsplit result in memory and out of core.
func TestPlacedOutputsMatchUnsplitCalls(t *testing.T) {
	forEachExecutorCell(t, func(t *testing.T, in placedInputs, opts core.Options) {
		s := core.NewSession(opts)
		checkAgainstWhole(t, in.capture(s, scaleFn), in.whole(), in.a.Len() == 0)
		st := s.Stats()
		// The three chains have equal element counts and
		// share one stage: four placed outputs per batch.
		if st.PlacedPieces != 4*st.Batches {
			t.Fatalf("PlacedPieces = %d, want %d (4 per batch)", st.PlacedPieces, 4*st.Batches)
		}
	})
}

// On a pool whose workers are all busy for the whole evaluation no helper
// ever claims a share: the caller runs every one, without waiting for anybody
// and without a goroutine being made for it, and the results are those of the
// unsplit calls in every cell of the matrix.
func TestFanOutOnASaturatedPool(t *testing.T) {
	pool := core.NewWorkerPool(2)
	defer core.HoldPool(pool)()
	goroutines := runtime.NumGoroutine()
	forEachExecutorCell(t, func(t *testing.T, in placedInputs, opts core.Options) {
		opts.WorkerPool = pool
		s := core.NewSession(opts)
		checkAgainstWhole(t, in.capture(s, scaleFn), in.whole(), in.a.Len() == 0)
		if st := s.Stats(); st.WorkerSpawns != 0 {
			t.Fatalf("WorkerSpawns = %d on a saturated pool, want 0: offers queue", st.WorkerSpawns)
		}
	})
	// (Fewer is fine: other tests' parked workers retire meanwhile. The last
	// subtest's own goroutine takes a moment to exit.)
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if pool.Spawns() != 2 || runtime.NumGoroutine() > goroutines {
		t.Errorf("pool spawns = %d, goroutines %d -> %d; want the pool's 2 held workers and nothing more",
			pool.Spawns(), goroutines, runtime.NumGoroutine())
	}
}

// Helpers that get to a stage's offers only after the evaluation has
// returned must find nothing to do: they run no batch and touch no pooled
// buffer (PoisonPools would corrupt a result), and a second evaluation of the
// same session that is under way while they drain is unaffected. The claim
// state is per fan-out and never reused; a recycled one would hand a late
// helper a share of the second evaluation's stage — or, out of core, of the
// next window's. Every cell poisons its pools, so "dynamic", kept for its
// test id, runs the same in-memory loop as "static".
func TestFanOutLateHelpersFindNothing(t *testing.T) {
	const workers = 3
	for _, cell := range executorCells {
		t.Run(cell.name, func(t *testing.T) {
			run := func(pool *core.WorkerPool, between func() (release func())) core.StatsSnapshot {
				opts := cellOptions(t, true, cell.outOfCore, workers, 10)
				opts.WorkerPool = pool
				s := core.NewSession(opts)
				release := between()
				first := newPlacedInputs(103)
				checkAgainstWhole(t, first.capture(s, scaleFn), first.whole(), false)
				// The second evaluation lets the helpers go from inside its
				// first batch, so the first one's offers drain while it runs.
				var once sync.Once
				scale := func(args []any) (any, error) {
					once.Do(release)
					return scaleFn(args)
				}
				second := newPlacedInputs(103)
				checkAgainstWhole(t, second.capture(s, scale), second.whole(), false)
				for deadline := time.Now().Add(5 * time.Second); pool.Queued() > 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d offers never drained", pool.Queued())
					}
				}
				return s.Stats()
			}
			idle := run(core.NewWorkerPool(2), func() func() { return func() {} })
			held := core.NewWorkerPool(2)
			late := run(held, func() func() { return core.HoldPool(held) })
			if cell.outOfCore && late.PoolTasks < 2*3*(workers-1) {
				t.Fatalf("PoolTasks = %d: want at least three windows an evaluation, each with its own offers", late.PoolTasks)
			}
			if late.Calls != idle.Calls || late.Batches != idle.Batches || late.PoolTasks != idle.PoolTasks || late.WorkerSpawns != 0 {
				t.Errorf("with late helpers: Calls %d, Batches %d, PoolTasks %d, WorkerSpawns %d; on an idle pool: Calls %d, Batches %d, PoolTasks %d",
					late.Calls, late.Batches, late.PoolTasks, late.WorkerSpawns, idle.Calls, idle.Batches, idle.PoolTasks)
			}
		})
	}
}

// A transient fault on one batch replays that batch only; the batch's pieces
// are placed once, after the attempt that succeeded.
func TestPlacedOutputsSurviveBatchRetry(t *testing.T) {
	in := newPlacedInputs(103)
	inj := faultinject.New(1)
	inj.TransientErrorOnCalls("scale", 4, 4)
	s := core.NewSession(core.Options{Workers: 2, BatchElems: 10,
		RetryPolicy: core.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}})
	checkAgainstWhole(t, in.capture(s, inj.WrapFunc("scale", scaleFn)), in.whole(), false)
	// Batches counts attempts; the failed attempt placed nothing.
	if st := s.Stats(); st.RetriedBatches != 1 || st.PlacedPieces != 4*(st.Batches-1) {
		t.Fatalf("RetriedBatches = %d, PlacedPieces = %d over %d attempts; want 1 retry, 4 per successful batch",
			st.RetriedBatches, st.PlacedPieces, st.Batches)
	}
}

// An annotation fault after some batches were already placed falls back to
// the whole call: the result is the whole-call value, and the half-filled
// destination is dropped rather than published.
func TestPlacedOutputsFallBackWhole(t *testing.T) {
	in := newPlacedInputs(103)
	inj := faultinject.New(1)
	inj.PanicOnNthCall("scale", 6)
	s := core.NewSession(core.Options{Workers: 1, BatchElems: 10, FallbackPolicy: core.FallbackWholeCall})
	checkAgainstWhole(t, in.capture(s, inj.WrapFunc("scale", scaleFn)), in.whole(), false)
	// Five batches placed all four outputs before the sixth faulted.
	if st := s.Stats(); st.FallbackStages != 1 || st.PlacedPieces != 4*5 {
		t.Fatalf("FallbackStages = %d, PlacedPieces = %d; want 1 and 20", st.FallbackStages, st.PlacedPieces)
	}
}

// shortFn claims (a: S) -> S but drops the last element of every piece.
var shortFn core.Func = func(args []any) (any, error) {
	a := args[0].(*frame.Series)
	return a.Slice(0, a.Len()-1), nil
}

// A piece that is not as long as its batch is a loud merge fault naming the
// batch, not a silently shorter column.
func TestPlacedPieceOfWrongLengthIsRefused(t *testing.T) {
	in := newPlacedInputs(40)
	s := core.NewSession(core.Options{Workers: 2, BatchElems: 8})
	out := s.Call(shortFn, unarySA("test.short"), in.b)
	_, err := out.Get()
	var se *core.StageError
	if !errors.As(err, &se) || se.Origin != core.OriginMerge || se.End-se.Start != 8 {
		t.Fatalf("want a merge-origin StageError over one 8-row batch, got %v", err)
	}
}

// panickyPlacer is SeriesSplitter whose Place panics.
type panickyPlacer struct{ framesa.SeriesSplitter }

func (panickyPlacer) Place(dst, piece any, t core.SplitType, start, end int64) error {
	panic("place exploded")
}

// Place is annotator code: a panic inside it is isolated into a StageError
// like any other splitter panic, and whole-call fallback recovers from it.
func TestPlacePanicIsIsolated(t *testing.T) {
	in := newPlacedInputs(40)
	typ := core.Concrete("SeriesSplit", panickyPlacer{}, func(args []any) (core.SplitType, error) {
		return core.NewSplitType("SeriesSplit", int64(args[0].(*frame.Series).Len())), nil
	})
	sa := &core.Annotation{FuncName: "test.isnull",
		Params: []core.Param{{Name: "a", Type: typ}}, Ret: &typ}
	isNull := func(args []any) (any, error) { return frame.IsNull(args[0].(*frame.Series)), nil }

	s := core.NewSession(core.Options{Workers: 2, BatchElems: 8})
	_, err := s.Call(isNull, sa, in.a).Get()
	var se *core.StageError
	if !errors.As(err, &se) || se.Origin != core.OriginMerge || se.PanicValue == nil {
		t.Fatalf("want a merge-origin StageError carrying the panic, got %v", err)
	}

	s = core.NewSession(core.Options{Workers: 2, BatchElems: 8, FallbackPolicy: core.FallbackWholeCall})
	got, err := s.Call(isNull, sa, in.a).Get()
	if err != nil || !reflect.DeepEqual(got, frame.IsNull(in.a)) {
		t.Fatalf("fallback after a Place panic: %v, %+v", err, got)
	}
}

// allocLog records every destination AllocMerged is asked for: its total,
// and the bytes the Governor (when gov is set) held at that moment.
type allocLog struct {
	mu     sync.Mutex
	gov    *core.Governor
	totals []int64
	inUse  []int64
}

func (l *allocLog) alloc(sp core.PlaceSplitter, exemplar any, t core.SplitType, total int64) (any, error) {
	l.mu.Lock()
	l.totals = append(l.totals, total)
	if l.gov != nil {
		l.inUse = append(l.inUse, l.gov.InUse())
	}
	l.mu.Unlock()
	return sp.AllocMerged(exemplar, t, total)
}

// loggedPlacer is a PlaceSplitter and nothing more: no window views, no
// codec, so out of core its stage runs at absolute coordinates and collects
// its window destinations for one Merge at the finale.
type loggedPlacer struct {
	core.PlaceSplitter
	log *allocLog
}

func (p loggedPlacer) AllocMerged(exemplar any, t core.SplitType, total int64) (any, error) {
	return p.log.alloc(p.PlaceSplitter, exemplar, t, total)
}

// loggedWindowPlacer is the whole ArraySplitter, so out of core its stage
// runs over window views, spills, and places the frames at the finale.
type loggedWindowPlacer struct {
	vmathsa.ArraySplitter
	log *allocLog
}

func (p loggedWindowPlacer) AllocMerged(exemplar any, t core.SplitType, total int64) (any, error) {
	return p.log.alloc(p.ArraySplitter, exemplar, t, total)
}

// Out of core, no destination larger than a window is allocated while
// windows hold admissions, and the result equals the unsplit call: each
// window builds its own placement table sized to the window, because a
// stage-sized destination during the loop would break the budget the windows
// are admitted under. A collected output (no codec) allocates one destination
// per window and merges them once at the finale. A spilled output reuses its
// first window's destination, dead once encoded, for every later window of
// that size, so it allocates one per distinct window size; its one
// stage-sized destination is allocated at the finale, once every window has
// released its bytes, and the frames are placed into it. (The name is the
// one this test had when out-of-core stages placed nothing at all; until the
// finale placed, every window allocated its own destination and nothing was
// stage-sized.)
func TestStreamingNeverPlaces(t *testing.T) {
	// scale reads 8 bytes an element and writes 8: windows of half the
	// budget hold budget/(2×16) elements, 32 of them and a short 33rd.
	const budget, window = 4096, 4096 / 32
	const n = 32*window + 40
	xs := newPlacedInputs(n).xs
	want, _ := scaleFn([]any{xs})
	// ("fold" names the collected case as it was when each window was
	// folded into a running accumulator.)
	for _, c := range []struct {
		name       string
		sp         func(*allocLog) core.Splitter
		frames     int64
		windowDsts int     // destinations allocated while windows hold bytes
		finale     []int64 // destinations allocated at the finale
	}{
		{"absolute/fold", func(l *allocLog) core.Splitter { return loggedPlacer{vmathsa.ArraySplitter{}, l} }, 0, 33, nil},
		{"views/spill", func(l *allocLog) core.Splitter { return loggedWindowPlacer{vmathsa.ArraySplitter{}, l} }, 33, 2, []int64{n}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := core.NewGovernor(budget)
			log := &allocLog{gov: g}
			typ := core.Concrete("ArraySplit", c.sp(log), core.FixedCtor(core.NewSplitType("ArraySplit", n)))
			s := core.NewSession(core.Options{Workers: 2, BatchElems: 64, OutOfCore: true,
				Governor: g, SpillDir: t.TempDir()})
			checkAgainstWhole(t, []*core.Future{s.Call(scaleFn, typedSA("test.scale", typ), xs)}, []any{want}, false)
			st := s.Stats()
			if st.StreamedStages != 1 || st.PlacedPieces != st.Batches || st.SpilledFrames != c.frames {
				t.Fatalf("StreamedStages = %d, PlacedPieces = %d over %d batches, SpilledFrames = %d; want 1, one per batch, %d",
					st.StreamedStages, st.PlacedPieces, st.Batches, st.SpilledFrames, c.frames)
			}
			var windowDsts int
			var finale []int64
			sizes := map[int64]int{}
			for i, total := range log.totals {
				if log.inUse[i] == 0 {
					finale = append(finale, total)
					continue
				}
				if total != window && total != n%window {
					t.Fatalf("a destination of %d elements while windows hold %d bytes; windows have %d or %d",
						total, log.inUse[i], window, n%window)
				}
				windowDsts++
				sizes[total]++
			}
			if windowDsts != c.windowDsts || !reflect.DeepEqual(finale, c.finale) {
				t.Fatalf("%d window destinations (by size %v) and %v at the finale; want %d and %v",
					windowDsts, sizes, finale, c.windowDsts, c.finale)
			}
			if g.InUse() != 0 || g.HighWater() > budget {
				t.Fatalf("governor holds %d bytes, high water %d; want 0 and at most %d", g.InUse(), g.HighWater(), budget)
			}
		})
	}
}

// ---- destination reuse (core.FuncInto) ------------------------------------
//
// The §3.4 oracle for reuse slots: a chain of out-of-place calls registered
// through CallInto must produce exactly what the unsplit calls produce while
// each call is handed its previous piece back — and must be handed it only
// when nothing can still see it: never the piece of a collected output, never
// a piece some reader registered through Call may have returned a view of.
// Everything runs under PoisonPools, so a slot that outlived its stage would
// reach a function as a sentinel of another type.

// intoCall is one destination-taking (a: S) -> S over []float64: f applied
// element-wise, into the destination when that is a []float64 with room.
type intoCall struct {
	name    string
	f       func(float64) float64
	offered atomic.Int64 // destinations offered that were earlier pieces
}

func (c *intoCall) fn(args []any, out any) (any, error) {
	a := args[0].([]float64)
	dst, piece := out.([]float64) // else nil, or the PoisonPools sentinel
	if piece {
		c.offered.Add(1)
	}
	if cap(dst) < len(a) {
		dst = make([]float64, len(a))
	}
	dst = dst[:len(a)]
	for i, x := range a {
		dst[i] = c.f(x)
	}
	return dst, nil
}

func (c *intoCall) whole(a []float64) []float64 {
	out, _ := c.fn([]any{a}, nil)
	return out.([]float64)
}

// reuseChain is scale -> shift -> square. scale's result is read by shift
// alone: stage-local scratch. shift's is kept and read by square, square's
// is read by nobody: the stage's two outputs.
type reuseChain struct{ scale, shift, square intoCall }

func newReuseChain() *reuseChain {
	return &reuseChain{
		scale:  intoCall{name: "test.scale", f: func(x float64) float64 { return 1.5*x + 1 }},
		shift:  intoCall{name: "test.shift", f: func(x float64) float64 { return x - 7 }},
		square: intoCall{name: "test.square", f: func(x float64) float64 { return x * x }},
	}
}

func (ch *reuseChain) whole(xs []float64) []any {
	shifted := ch.shift.whole(ch.scale.whole(xs))
	return []any{shifted, ch.square.whole(shifted)}
}

// typedSA is (a: typ) -> typ.
func typedSA(name string, typ core.TypeExpr) *core.Annotation {
	return &core.Annotation{FuncName: name, Params: []core.Param{{Name: "a", Type: typ}}, Ret: &typ}
}

// capture registers the chain over xs under split type typ; shift is the
// chain's own, or a wrapper around it.
func (ch *reuseChain) capture(s *core.Session, typ core.TypeExpr, xs []float64, shift core.FuncInto) []*core.Future {
	scaled := s.CallInto(ch.scale.fn, typedSA(ch.scale.name, typ), xs)
	shifted := s.CallInto(shift, typedSA(ch.shift.name, typ), scaled).Keep()
	return []*core.Future{shifted, s.CallInto(ch.square.fn, typedSA(ch.square.name, typ), shifted)}
}

// collectedArrays is ArraySplit over n elements with CapPlace hidden behind a
// CapsDeclarer (faultinject's splitter shim withholds it, with nothing
// armed): outputs of this type are collected and merged by every executor.
func collectedArrays(n int) core.TypeExpr {
	return core.Concrete("ArraySplit", faultinject.New(0).WrapSplitter("xs", vmathsa.ArraySplitter{}),
		core.FixedCtor(core.NewSplitType("ArraySplit", int64(n))))
}

// checkOffered fails unless call c was offered between lo and hi pieces.
func checkOffered(t *testing.T, c *intoCall, lo, hi int64) {
	t.Helper()
	if n := c.offered.Load(); n < lo || n > hi {
		t.Fatalf("%s was offered %d of its earlier pieces, want %d to %d", c.name, n, lo, hi)
	}
}

// windowCount counts a session's admissions: with a governor, one per window.
type windowCount struct{ n atomic.Int64 }

func (c *windowCount) Emit(e obs.Event) {
	if e.Kind == obs.EvAdmission {
		c.n.Add(1)
	}
}

// offeredBounds is how many of its earlier pieces a call whose result is dead
// after every batch is offered: every piece it returned but the first of each
// worker in each window, whose workers start afresh. A window's fan-out
// offers all its workers but one to the pool, so they number PoolTasks plus
// the windows: one in memory, and out of core as many as the cell's
// windowCount counted since the last call.
func offeredBounds(st core.StatsSnapshot, opts core.Options) (lo, hi int64) {
	windows := int64(1)
	if c, ok := opts.Tracer.(*windowCount); ok {
		windows = c.n.Swap(0)
	}
	return max(st.Batches-st.PoolTasks-windows, 0), max(st.Batches-1, 0)
}

// Placed outputs and scratch are handed back — each call gets every piece but
// the first of each worker — collected outputs never are, and either way the
// results are the unsplit calls'. Afterwards no pooled scratch refers to a
// piece, no governor byte is held, and no goroutine is left over.
func TestReuseSlotsMatchUnsplitCalls(t *testing.T) {
	pool := core.NewWorkerPool(2)
	goroutines := runtime.NumGoroutine()
	forEachExecutorCell(t, func(t *testing.T, in placedInputs, opts core.Options) {
		opts.PoisonPools, opts.WorkerPool = true, pool
		for _, typ := range []struct {
			name      string
			expr      core.TypeExpr
			collected bool
		}{
			{"placed", genericS, false},
			{"place hidden", collectedArrays(len(in.xs)), true},
		} {
			ch := newReuseChain()
			s := core.NewSession(opts)
			checkAgainstWhole(t, ch.capture(s, typ.expr, in.xs, ch.shift.fn), ch.whole(in.xs), len(in.xs) == 0)
			st := s.Stats()
			lo, hi := offeredBounds(st, opts)
			checkOffered(t, &ch.scale, lo, hi)
			if typ.collected {
				lo, hi = 0, 0
			}
			checkOffered(t, &ch.shift, lo, hi)
			checkOffered(t, &ch.square, lo, hi)
			offered := ch.scale.offered.Load() + ch.shift.offered.Load() + ch.square.offered.Load()
			// (More is fine: a scratch a sibling returned mid-stage comes back
			// poisoned, and the sentinels handed over count too.)
			if st.ReusedPieces < offered || st.ReusedPieces > 3*st.Batches || (!typ.collected && st.ReusedPieces < 3*lo) {
				t.Fatalf("%s: ReusedPieces = %d, the calls counted %d over %d batches", typ.name, st.ReusedPieces, offered, st.Batches)
			}
			// Both outputs are placed by every batch, or by none.
			placed := 2 * st.Batches
			if typ.collected {
				placed = 0
			}
			if st.PlacedPieces != placed {
				t.Fatalf("%s: PlacedPieces = %d over %d batches, want %d", typ.name, st.PlacedPieces, st.Batches, placed)
			}
			if held := core.HeldPieces(s); held != 0 {
				t.Fatalf("%s: %d pieces still referenced from pooled scratch after the evaluation", typ.name, held)
			}
			if opts.Governor != nil && opts.Governor.InUse() != 0 {
				t.Fatalf("%s: governor still holds %d bytes", typ.name, opts.Governor.InUse())
			}
		}
	})
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines+2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines+2 {
		t.Errorf("goroutines %d -> %d; want at most the pool's 2 parked workers more", goroutines, n)
	}
}

// identityFn is registered through Call and returns its argument itself: the
// kind of reader (df.col, df.withColumn) whose result may be a view.
var identityFn core.Func = func(args []any) (any, error) { return args[0], nil }

// A reader registered through Call pins what it reads: here its result — the
// very piece scale returned — is kept, so handing that piece back to scale for
// the next batch would overwrite an output still being delivered. scale must
// be offered nothing, whether the stage's outputs are placed or collected,
// while shift, whose result only square reads, still is. (Without the reader
// rule in classifyStages this fails on both counts.)
func TestReuseSlotsCallReaderPinsItsInput(t *testing.T) {
	forEachExecutorCell(t, func(t *testing.T, in placedInputs, opts core.Options) {
		opts.PoisonPools = true
		for _, typ := range []struct {
			name      string
			expr      core.TypeExpr
			collected bool
		}{
			{"placed", genericS, false},
			{"place hidden", collectedArrays(len(in.xs)), true},
		} {
			ch := newReuseChain()
			s := core.NewSession(opts)
			scaled := s.CallInto(ch.scale.fn, typedSA(ch.scale.name, typ.expr), in.xs)
			same := s.Call(identityFn, typedSA("test.identity", typ.expr), scaled).Keep()
			shifted := s.CallInto(ch.shift.fn, typedSA(ch.shift.name, typ.expr), same)
			squared := s.CallInto(ch.square.fn, typedSA(ch.square.name, typ.expr), shifted)

			wantScaled := ch.scale.whole(in.xs)
			want := []any{wantScaled, ch.square.whole(ch.shift.whole(wantScaled))}
			checkAgainstWhole(t, []*core.Future{same, squared}, want, len(in.xs) == 0)
			st := s.Stats()
			lo, hi := offeredBounds(st, opts)
			checkOffered(t, &ch.scale, 0, 0)
			checkOffered(t, &ch.shift, lo, hi)
			if typ.collected {
				lo, hi = 0, 0
			}
			checkOffered(t, &ch.square, lo, hi)
			// The identity takes no destination: it is never counted.
			if st.ReusedPieces > 2*st.Batches {
				t.Fatalf("%s: ReusedPieces = %d over %d batches, want at most shift's and square's", typ.name, st.ReusedPieces, st.Batches)
			}
		}
	})
}

// The same in a stage that mixes the two deliveries: output 0 (square's, read
// by shift) is placed wherever anything is, while the identity's result is of
// unknown type and therefore collected — and it is the very piece scale
// returned. A pinned producer must not be mistaken for the producer of the
// placed output 0: scale is offered nothing and the collected pieces survive.
func TestReuseSlotsPinnedProducerBesidePlacedOutput(t *testing.T) {
	unknown := core.Unknown()
	forEachExecutorCell(t, func(t *testing.T, in placedInputs, opts core.Options) {
		if len(in.xs) == 0 {
			t.Skip("an output of unknown type cannot be merged from no pieces")
		}
		opts.PoisonPools = true
		ch := newReuseChain()
		s := core.NewSession(opts)
		squared := s.CallInto(ch.square.fn, unarySA(ch.square.name), in.xs).Keep()
		scaled := s.CallInto(ch.scale.fn, unarySA(ch.scale.name), in.xs)
		same := s.Call(identityFn, &core.Annotation{FuncName: "test.identity",
			Params: []core.Param{{Name: "a", Type: genericS}}, Ret: &unknown}, scaled).Keep()
		shifted := s.CallInto(ch.shift.fn, unarySA(ch.shift.name), squared)

		wantSquared := ch.square.whole(in.xs)
		want := []any{wantSquared, ch.scale.whole(in.xs), ch.shift.whole(wantSquared)}
		checkAgainstWhole(t, []*core.Future{squared, same, shifted}, want, false)
		st := s.Stats()
		if st.Stages > 1 {
			t.Fatalf("%d stages, want the four calls in one", st.Stages)
		}
		lo, hi := offeredBounds(st, opts)
		checkOffered(t, &ch.scale, 0, 0)
		checkOffered(t, &ch.square, lo, hi)
		checkOffered(t, &ch.shift, lo, hi)
		if st.ReusedPieces > 2*st.Batches {
			t.Fatalf("ReusedPieces = %d over %d batches, want at most square's and shift's", st.ReusedPieces, st.Batches)
		}
	})
}

// Functions registered through Call take no destination: a chain of them with
// placed outputs builds no slot table and counts nothing reused.
func TestCallRegisteredChainReusesNothing(t *testing.T) {
	in := newPlacedInputs(103)
	s := core.NewSession(core.Options{Workers: 2, BatchElems: 10, PoisonPools: true})
	futs := []*core.Future{s.Call(scaleFn, unarySA("test.scale"), in.xs), s.Call(negateFn, unarySA("test.negate"), in.m)}
	checkAgainstWhole(t, futs, in.whole()[3:5], false)
	if st := s.Stats(); st.PlacedPieces != 2*st.Batches || st.ReusedPieces != 0 {
		t.Fatalf("PlacedPieces = %d, ReusedPieces = %d over %d batches; want 2 per batch and 0", st.PlacedPieces, st.ReusedPieces, st.Batches)
	}
}

// A transient fault in the middle of the chain replays the batch: the calls
// before it are handed the pieces of the failed attempt, which nobody saw,
// and the results are unchanged. The injected fault is in the one function
// the call has, so it fires on the replay like anywhere else.
func TestReuseSlotsSurviveBatchRetry(t *testing.T) {
	in := newPlacedInputs(103)
	inj := faultinject.New(1)
	inj.TransientErrorOnCalls("shift", 4, 4)
	ch := newReuseChain()
	s := core.NewSession(core.Options{Workers: 2, BatchElems: 10, PoisonPools: true,
		RetryPolicy: core.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}})
	checkAgainstWhole(t, ch.capture(s, genericS, in.xs, inj.WrapFuncInto("shift", ch.shift.fn)), ch.whole(in.xs), false)
	// Batches counts attempts, and so does the injector.
	if st := s.Stats(); st.RetriedBatches != 1 || inj.Count("shift", faultinject.AspectCall) != st.Batches || st.ReusedPieces == 0 {
		t.Fatalf("RetriedBatches = %d, shift ran %d times over %d attempts, ReusedPieces = %d; want 1 retry, one run per attempt, reuse",
			st.RetriedBatches, inj.Count("shift", faultinject.AspectCall), st.Batches, st.ReusedPieces)
	}
}

// A panic injected into a destination-taking call falls back to the whole
// call like any other annotation fault, and the whole call runs the same
// wrapped function, offered no destination.
func TestReuseSlotsFallBackWhole(t *testing.T) {
	in := newPlacedInputs(103)
	inj := faultinject.New(1)
	inj.PanicOnNthCall("shift", 6)
	ch := newReuseChain()
	shift := func(args []any, out any) (any, error) {
		if len(args[0].([]float64)) == len(in.xs) && out != nil {
			t.Errorf("the whole call was offered a destination: %T", out)
		}
		return ch.shift.fn(args, out)
	}
	s := core.NewSession(core.Options{Workers: 1, BatchElems: 10, PoisonPools: true, FallbackPolicy: core.FallbackWholeCall})
	checkAgainstWhole(t, ch.capture(s, genericS, in.xs, inj.WrapFuncInto("shift", shift)), ch.whole(in.xs), false)
	// Six split runs, the sixth of which panicked, and the whole call.
	if st := s.Stats(); st.FallbackStages != 1 || inj.Count("shift", faultinject.AspectCall) != 7 {
		t.Fatalf("FallbackStages = %d, shift ran %d times; want 1 and 7", st.FallbackStages, inj.Count("shift", faultinject.AspectCall))
	}
}

// A panic inside a destination-taking function is the StageError a panic
// inside any call is, and leaves the call's slot empty: the function may have
// been half way through its destination, so the replay is offered nothing.
func TestReuseSlotsPanicLeavesSlotEmpty(t *testing.T) {
	in := newPlacedInputs(103)
	for _, retry := range []bool{false, true} {
		ch := newReuseChain()
		var runs int
		var afterPanic []any // what shift was offered on the run after it panicked
		shift := func(args []any, out any) (any, error) {
			if runs++; runs == 4 {
				if dst, ok := out.([]float64); ok && len(dst) > 0 {
					dst[0] = -1
				}
				panic("shift exploded")
			} else if runs == 5 {
				afterPanic = append(afterPanic, out)
			}
			return ch.shift.fn(args, out)
		}
		opts := core.Options{Workers: 1, BatchElems: 10, PoisonPools: true}
		if retry {
			opts.RetryPolicy = core.RetryPolicy{MaxAttempts: 2, Sleep: func(time.Duration) {},
				Classify: func(error) bool { return true }}
		}
		s := core.NewSession(opts)
		futs := ch.capture(s, genericS, in.xs, shift)
		if retry {
			checkAgainstWhole(t, futs, ch.whole(in.xs), false)
			if len(afterPanic) != 1 || afterPanic[0] != nil {
				t.Fatalf("the replay after the panic was offered %v, want one run offered nil", afterPanic)
			}
			continue
		}
		_, err := futs[0].Get()
		var se *core.StageError
		if !errors.As(err, &se) || se.Origin != core.OriginCall || se.Call != "test.shift" ||
			se.PanicValue != "shift exploded" || se.Start != 30 || se.End != 40 {
			t.Fatalf("want a call-origin StageError for test.shift over [30,40) carrying the panic, got %v", err)
		}
		if held := core.HeldPieces(s); held != 0 {
			t.Fatalf("%d pieces still referenced from pooled scratch after the failed evaluation", held)
		}
	}
}

// Two stages on one session whose call 0 returns different Go types, on one
// worker and so on one pooled scratch: the second stage's call must not be
// handed the first's piece. Slots are emptied between stages (poisoned, here)
// and a function checks what it is offered anyway.
func TestReuseSlotsDoNotOutliveTheirStage(t *testing.T) {
	in, col := newPlacedInputs(103), newPlacedInputs(64).a
	ch := newReuseChain()
	var leaked atomic.Int64
	gt50 := func(args []any, out any) (any, error) {
		if _, ok := out.([]float64); ok {
			leaked.Add(1)
		}
		dst, _ := out.(*frame.Series)
		return frame.GtScalarInto(dst, args[0].(*frame.Series), 50), nil
	}
	for _, poison := range []bool{true, false} {
		s := core.NewSession(core.Options{Workers: 1, BatchElems: 10, PoisonPools: poison})
		scaled := s.CallInto(ch.scale.fn, unarySA(ch.scale.name), in.xs)
		checkAgainstWhole(t, []*core.Future{scaled}, []any{ch.scale.whole(in.xs)}, false)
		mask := s.CallInto(gt50, unarySA("test.gt50"), col)
		checkAgainstWhole(t, []*core.Future{mask}, []any{frame.GtScalar(col, 50)}, false)
		if st := s.Stats(); st.Stages != 2 || st.ReusedPieces == 0 || leaked.Load() != 0 {
			t.Fatalf("poison=%v: %d stages, %d pieces reused, and the second stage was handed %d pieces of the first",
				poison, st.Stages, st.ReusedPieces, leaked.Load())
		}
	}
}
