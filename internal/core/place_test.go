package core_test

import (
	"errors"
	"fmt"
	"reflect"
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

// The matrix covers the three executors that fan out — static, dynamic and
// streaming (out of core under a budget far below the working set) — at one
// to four workers: worker 0 on the caller and its pool siblings must together
// produce the unsplit result whichever executor drives them.
func TestPlacedOutputsMatchUnsplitCalls(t *testing.T) {
	const n = 103
	for _, total := range []int{n, 0} {
		in := newPlacedInputs(total)
		want := in.whole()
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
						s := core.NewSession(opts)
						checkAgainstWhole(t, in.capture(s, scaleFn), want, total == 0)
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
			}
		}
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
