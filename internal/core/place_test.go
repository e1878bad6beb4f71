package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mozart/internal/annotations/framesa"
	_ "mozart/internal/annotations/vmathsa" // default splitters for []float64 and *vmath.Matrix
	"mozart/internal/core"
	"mozart/internal/faultinject"
	"mozart/internal/frame"
	"mozart/internal/vmath"
)

// The §3.4 oracle for placed outputs: a pipeline whose outputs are assembled
// by placement (core.PlaceSplitter) must produce exactly what the unsplit
// library calls produce, under every scheduler, worker count and batch size,
// through retry replays and whole-call fallback, and must never run on the
// streaming path.

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

func unarySA(name string) *core.Annotation {
	return &core.Annotation{FuncName: name,
		Params: []core.Param{{Name: "a", Type: genericS}}, Ret: &genericS}
}

// placedInputs is one input set of n elements for the pipeline below.
type placedInputs struct {
	a, b *frame.Series // a carries nulls, b does not
	xs   []float64
	m    *vmath.Matrix
}

func newPlacedInputs(n int) placedInputs {
	in := placedInputs{xs: make([]float64, n), m: vmath.NewMatrix(n, 3)}
	av, bv, valid := make([]float64, n), make([]float64, n), make([]bool, n)
	for i := 0; i < n; i++ {
		av[i], bv[i], valid[i] = float64(i%97), float64(3*i%89), i%7 != 0
		in.xs[i] = float64(i) / 8
	}
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
	return []any{sum, frame.GtScalar(filled, 50), frame.CountValid(sum), scaled, negated}
}

// capture registers the same pipeline with s: a masked float column, a
// mask-less bool column, a reduction (merged, not placed), an array and a
// matrix. scale is scaleFn, possibly wrapped for fault injection.
func (in placedInputs) capture(s *core.Session, scale core.Func) []*core.Future {
	sum := framesa.AddSeries(s, in.a, in.b).Keep()
	filled := framesa.FillNullFloat(s, sum, -1)
	return []*core.Future{
		sum, framesa.GtScalar(s, filled, 50), framesa.CountValid(s, sum),
		s.Call(scale, unarySA("test.scale"), in.xs),
		s.Call(negateFn, unarySA("test.negate"), in.m),
	}
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

// forEachExecutorCell runs f in a subtest for every cell of the fan-out
// matrix: the three executors that fan out — static, dynamic and streaming
// (out of core under a budget far below the working set) — at one to four
// workers and three batch sizes, over 103 elements and over none.
func forEachExecutorCell(t *testing.T, f func(t *testing.T, in placedInputs, executor string, opts core.Options)) {
	const n = 103
	for _, total := range []int{n, 0} {
		in := newPlacedInputs(total)
		for _, executor := range []string{"static", "dynamic", "streaming"} {
			for workers := 1; workers <= 4; workers++ {
				for _, batch := range []int64{1, 10, n + 50} {
					name := fmt.Sprintf("n=%d/%s/workers=%d/batch=%d", total, executor, workers, batch)
					t.Run(name, func(t *testing.T) {
						opts := core.Options{Workers: workers, BatchElems: batch,
							DynamicScheduling: executor == "dynamic", Pedantic: total > 0}
						if executor == "streaming" {
							opts.OutOfCore, opts.Governor, opts.SpillDir = true, core.NewGovernor(1024), t.TempDir()
						}
						f(t, in, executor, opts)
					})
				}
			}
		}
	}
}

// Share 0 on the caller and its siblings, whoever runs them, must together
// produce the unsplit result whichever executor drives them.
func TestPlacedOutputsMatchUnsplitCalls(t *testing.T) {
	forEachExecutorCell(t, func(t *testing.T, in placedInputs, executor string, opts core.Options) {
		total := in.a.Len()
		s := core.NewSession(opts)
		checkAgainstWhole(t, in.capture(s, scaleFn), in.whole(), total == 0)
		st := s.Stats()
		if executor == "streaming" && total > 0 {
			// The streaming executor never places (see below).
			if st.StreamedStages != 1 || st.PlacedPieces != 0 {
				t.Fatalf("StreamedStages = %d, PlacedPieces = %d; want 1 and 0", st.StreamedStages, st.PlacedPieces)
			}
			return
		}
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
	forEachExecutorCell(t, func(t *testing.T, in placedInputs, executor string, opts core.Options) {
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
// helper a share of the second evaluation's stage — or, when streaming, of
// the next window's.
func TestFanOutLateHelpersFindNothing(t *testing.T) {
	const workers = 3
	for _, executor := range []string{"static", "dynamic", "streaming"} {
		t.Run(executor, func(t *testing.T) {
			run := func(pool *core.WorkerPool, between func() (release func())) core.StatsSnapshot {
				opts := core.Options{Workers: workers, BatchElems: 10, PoisonPools: true,
					DynamicScheduling: executor == "dynamic", WorkerPool: pool}
				if executor == "streaming" {
					opts.OutOfCore, opts.Governor, opts.SpillDir = true, core.NewGovernor(1024), t.TempDir()
				}
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
			if executor == "streaming" && late.PoolTasks < 2*3*(workers-1) {
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
	for _, dynamic := range []bool{false, true} {
		inj := faultinject.New(1)
		inj.TransientErrorOnCalls("scale", 4, 4)
		s := core.NewSession(core.Options{Workers: 2, BatchElems: 10, DynamicScheduling: dynamic,
			RetryPolicy: core.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}})
		checkAgainstWhole(t, in.capture(s, inj.WrapFunc("scale", scaleFn)), in.whole(), false)
		// Batches counts attempts; the failed attempt placed nothing.
		if st := s.Stats(); st.RetriedBatches != 1 || st.PlacedPieces != 4*(st.Batches-1) {
			t.Fatalf("RetriedBatches = %d, PlacedPieces = %d over %d attempts; want 1 retry, 4 per successful batch",
				st.RetriedBatches, st.PlacedPieces, st.Batches)
		}
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

// The streaming executor never places: a full-size destination would defeat
// the memory budget it exists to respect.
func TestStreamingNeverPlaces(t *testing.T) {
	in := newPlacedInputs(4096)
	s := core.NewSession(core.Options{Workers: 2, BatchElems: 64, OutOfCore: true,
		Governor: core.NewGovernor(4096), SpillDir: t.TempDir()})
	checkAgainstWhole(t, in.capture(s, scaleFn), in.whole(), false)
	if st := s.Stats(); st.StreamedStages != 1 || st.PlacedPieces != 0 {
		t.Fatalf("StreamedStages = %d, PlacedPieces = %d; want 1 and 0", st.StreamedStages, st.PlacedPieces)
	}
}
