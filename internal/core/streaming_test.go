package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mozart/internal/obs"
	"mozart/internal/spill"
)

// ---- streaming test splitting API --------------------------------------

// streamSplitter is arraySplitter plus the two optional streaming
// capabilities: window views (SplitterAt) and spill frames (PieceCodec).
type streamSplitter struct{ arraySplitter }

func (streamSplitter) SplitAt(v any, t SplitType, start, end int64) (any, error) {
	return arraySplitter{}.Split(v, t, start, end)
}

func (streamSplitter) EncodePiece(buf []byte, piece any, t SplitType) ([]byte, error) {
	a, ok := piece.([]float64)
	if !ok {
		return nil, fmt.Errorf("StreamSplit: encode %T", piece)
	}
	if cap(buf) < 8*len(a) {
		buf = make([]byte, 8*len(a))
	}
	buf = buf[:8*len(a)]
	for i, x := range a {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return buf, nil
}

func (streamSplitter) DecodePiece(frame []byte, t SplitType, reuse any) (any, error) {
	if len(frame)%8 != 0 {
		return nil, fmt.Errorf("StreamSplit: frame length %d", len(frame))
	}
	out, _ := reuse.([]float64)
	if cap(out) < len(frame)/8 {
		out = make([]float64, len(frame)/8)
	}
	out = out[:len(frame)/8]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(frame[8*i:]))
	}
	return out, nil
}

var _ SplitterAt = streamSplitter{}
var _ PieceCodec = streamSplitter{}

func streamSplitOf(sp Splitter, argIdx int) TypeExpr {
	return Concrete("StreamSplit", sp, func(args []any) (SplitType, error) {
		a, ok := args[argIdx].([]float64)
		if !ok {
			return SplitType{}, fmt.Errorf("StreamSplit ctor: arg %d is %T", argIdx, args[argIdx])
		}
		return NewSplitType("StreamSplit", int64(len(a))), nil
	})
}

// saStreamAddOne is @splittable(a: StreamSplit) -> StreamSplit: returns a
// fresh array, so the output goes through merge — and, out of core, through
// the spill store (streamSplitter implements PieceCodec).
func saStreamAddOne(sp Splitter) *Annotation {
	return &Annotation{
		FuncName: "streamAddOne",
		Params:   []Param{{Name: "a", Type: streamSplitOf(sp, 0)}},
		Ret:      func() *TypeExpr { t := streamSplitOf(sp, 0); return &t }(),
	}
}

var fnStreamAddOne Func = func(args []any) (any, error) {
	a := args[0].([]float64)
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + 1
	}
	return out, nil
}

// countingSplitAt wraps streamSplitter and counts SplitAt window views.
type countingSplitAt struct {
	streamSplitter
	n *atomic.Int64
}

func (c countingSplitAt) SplitAt(v any, t SplitType, start, end int64) (any, error) {
	c.n.Add(1)
	return c.streamSplitter.SplitAt(v, t, start, end)
}

// ---- tests ---------------------------------------------------------------

// TestStreamingSpillsAndMatches is the tentpole acceptance check: a stage
// whose working set is 4x the governor budget completes out of core — no
// block, no shed — with the exact in-core result, while the reservation
// high-water stays under the budget, the pressure ladder is visible in
// events, and no spill store survives the evaluation.
func TestStreamingSpillsAndMatches(t *testing.T) {
	const n = 4096
	a := seq(n)
	// Working set: 8 bytes in + 8 bytes out per element; budget covers 1/4.
	budget := int64(n) * 16 / 4
	g := NewGovernor(budget)
	tr := &recordingTracer{}
	s := NewSession(Options{Workers: 3, BatchElems: 64, Governor: g,
		OutOfCore: true, SpillDir: t.TempDir(), Tracer: tr})

	stores0 := spill.OpenStores()
	fut := s.Call(fnStreamAddOne, saStreamAddOne(streamSplitter{}), a)
	// Under a deadline, a window whose bytes are never released makes a
	// later window's admission fail instead of hanging the test.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.EvaluateContext(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := fut.Get()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = a[i] + 1
	}
	if !almostEqual(got.([]float64), want) {
		t.Fatal("streamed result differs from in-core result")
	}

	st := s.Stats()
	if st.StreamedStages != 1 {
		t.Errorf("StreamedStages = %d, want 1", st.StreamedStages)
	}
	if st.SpilledFrames == 0 || st.SpilledBytes == 0 {
		t.Errorf("expected spilled frames/bytes, got %d/%d", st.SpilledFrames, st.SpilledBytes)
	}
	if hw := g.HighWater(); hw > budget {
		t.Errorf("high water %d exceeds budget %d", hw, budget)
	}
	if g.InUse() != 0 {
		t.Errorf("governor still holds %d bytes after evaluate", g.InUse())
	}
	if g.MaxLevel() != PressureOutOfCore {
		t.Errorf("max pressure level = %v, want out-of-core", g.MaxLevel())
	}
	if g.Level() != PressureNormal {
		t.Errorf("post-run pressure level = %v, want normal", g.Level())
	}
	if g.PressureTransitions() < 2 {
		t.Errorf("pressure transitions = %d, want >= 2", g.PressureTransitions())
	}
	if open := spill.OpenStores(); open != stores0 {
		t.Errorf("spill stores leaked: %d open, started with %d", open, stores0)
	}

	// The episode must be visible in events: enter out-of-core, spill
	// appends during the run, one replay at the finale, return to normal.
	pressure := tr.ofKind(obs.EvPressure)
	if len(pressure) < 2 || pressure[0].Detail != "out-of-core" ||
		pressure[len(pressure)-1].Detail != "normal" {
		t.Fatalf("pressure events = %+v, want out-of-core ... normal", pressure)
	}
	var appends, replays int
	for _, e := range tr.ofKind(obs.EvSpill) {
		switch e.Detail {
		case "append":
			appends++
		case "replay":
			replays++
		}
	}
	if appends < 2 || replays != 1 {
		t.Errorf("spill events: %d appends, %d replays; want >=2 appends and 1 replay", appends, replays)
	}
	for _, e := range tr.ofKind(obs.EvStageBegin) {
		if e.Detail != "out-of-core" {
			t.Errorf("stage begin detail = %q, want out-of-core", e.Detail)
		}
	}

	// A stage whose call fails, or whose context is canceled, part way
	// through its windows ends the episode too: every byte is released and
	// the level returns to normal, visibly.
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		fail func(cancel context.CancelFunc) error
	}{
		{"failing call", func(context.CancelFunc) error { return boom }},
		{"canceled context", func(cancel context.CancelFunc) error { cancel(); return nil }},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		fn := func(args []any) (any, error) {
			if calls.Add(1) == 20 {
				if err := tc.fail(cancel); err != nil {
					return nil, err
				}
			}
			return fnStreamAddOne(args)
		}
		tr := &recordingTracer{}
		s := NewSession(Options{Workers: 3, BatchElems: 64, Governor: g,
			OutOfCore: true, SpillDir: t.TempDir(), Tracer: tr})
		s.Call(fn, saStreamAddOne(streamSplitter{}), a)
		err := s.EvaluateContext(ctx)
		cancel()
		if err == nil {
			t.Fatalf("%s: evaluation succeeded", tc.name)
		}
		pressure := tr.ofKind(obs.EvPressure)
		if g.InUse() != 0 || g.Level() != PressureNormal ||
			len(pressure) == 0 || pressure[len(pressure)-1].Detail != "normal" {
			t.Errorf("%s: governor holds %d bytes at level %v, pressure events %+v; want 0 bytes, back to normal",
				tc.name, g.InUse(), g.Level(), pressure)
		}
	}
}

// TestStreamingUsesWindowViews: when every split input implements
// SplitterAt, the runtime takes one window view per input per window
// instead of driving absolute coordinates over materialized storage.
func TestStreamingUsesWindowViews(t *testing.T) {
	const n = 4096
	a := seq(n)
	budget := int64(n) * 16 / 4
	g := NewGovernor(budget)
	s := NewSession(Options{Workers: 2, BatchElems: 64, Governor: g,
		OutOfCore: true, SpillDir: t.TempDir()})

	var views atomic.Int64
	sp := countingSplitAt{n: &views}
	fut := s.Call(fnStreamAddOne, saStreamAddOne(sp), a)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Get(); err != nil {
		t.Fatal(err)
	}
	// windowElems = budget/(2*sumElemBytes) = n/8, so 8 windows and one
	// view per window for the single split input.
	if got := views.Load(); got != 8 {
		t.Errorf("SplitAt called %d times, want 8 (one per window)", got)
	}
}

// TestStreamingFoldsReductions: an output without a PieceCodec keeps its
// window partials and merges them once through its associative Merge
// instead of spilling. (The name is from when each window's partial was
// folded into a running accumulator.) The input's
// splitter (the package default arraySplitter) has no SplitterAt either, so
// this also exercises the absolute-coordinate path.
func TestStreamingFoldsReductions(t *testing.T) {
	const n = 8192
	a := seq(n)
	budget := int64(n) * 8 / 4
	g := NewGovernor(budget)
	s := NewSession(Options{Workers: 3, BatchElems: 64, Governor: g,
		OutOfCore: true, SpillDir: t.TempDir()})

	fut := s.Call(fnSum, saSum, a)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := fut.Get()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, x := range a {
		want += x
	}
	if rel := math.Abs(got.(float64)-want) / (1 + math.Abs(want)); rel > 1e-9 {
		t.Errorf("streamed sum = %v, want %v", got, want)
	}
	st := s.Stats()
	if st.StreamedStages != 1 {
		t.Errorf("StreamedStages = %d, want 1", st.StreamedStages)
	}
	if st.SpilledFrames != 0 {
		t.Errorf("reduction spilled %d frames, want 0", st.SpilledFrames)
	}
}

// TestStreamingInPlaceMutation: in-place mut arguments need no merge at all
// out of core — absolute-coordinate windows mutate the original storage
// directly, and the stage produces no spill.
func TestStreamingInPlaceMutation(t *testing.T) {
	const n = 4096
	a := seq(n)
	out := make([]float64, n)
	// size + a + out model 16 bytes per element.
	budget := int64(n) * 16 / 4
	g := NewGovernor(budget)
	s := NewSession(Options{Workers: 3, BatchElems: 64, Governor: g,
		OutOfCore: true, SpillDir: t.TempDir()})

	s.Call(testLog1p, saUnary("log1p"), n, a, out)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Log1p(a[i])
	}
	if !almostEqual(out, want) {
		t.Fatal("in-place streamed result differs")
	}
	st := s.Stats()
	if st.StreamedStages != 1 {
		t.Errorf("StreamedStages = %d, want 1", st.StreamedStages)
	}
	if st.SpilledFrames != 0 {
		t.Errorf("in-place stage spilled %d frames, want 0", st.SpilledFrames)
	}
	if hw := g.HighWater(); hw > budget {
		t.Errorf("high water %d exceeds budget %d", hw, budget)
	}
}

// TestStreamingOffWithoutOptIn: the same oversized stage without
// Options.OutOfCore must take the blocking in-core path (clamped admission),
// not the streaming one — degradation is opt-in.
func TestStreamingOffWithoutOptIn(t *testing.T) {
	const n = 4096
	a := seq(n)
	g := NewGovernor(int64(n) * 16 / 4)
	s := NewSession(Options{Workers: 2, BatchElems: 64, Governor: g,
		SpillDir: t.TempDir()})
	fut := s.Call(fnStreamAddOne, saStreamAddOne(streamSplitter{}), a)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Get(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.StreamedStages != 0 || st.SpilledFrames != 0 {
		t.Errorf("streamed without opt-in: %+v", st)
	}
	if lvl := g.MaxLevel(); lvl == PressureOutOfCore {
		t.Errorf("reached out-of-core without opt-in")
	}
}

// ---- the out-of-core oracle -----------------------------------------------

// floatPlacer is placement for []float64 outputs (PlaceSplitter). It refuses
// a piece whose length is not its range's, so a frame placed at the wrong
// offset or a window destination of the wrong size fails the evaluation.
type floatPlacer struct{}

func (floatPlacer) AllocMerged(exemplar any, t SplitType, total int64) (any, error) {
	return make([]float64, total), nil
}

func (floatPlacer) Place(dst, piece any, t SplitType, start, end int64) error {
	d, p := dst.([]float64), piece.([]float64)
	if start < 0 || end > int64(len(d)) || int64(len(p)) != end-start {
		return fmt.Errorf("place: piece of %d elements into [%d,%d) of %d", len(p), start, end, len(d))
	}
	copy(d[start:end], p)
	return nil
}

// placeCodecSplitter outputs spill out of core, and the finale places the
// frames into one destination.
type placeCodecSplitter struct {
	streamSplitter
	floatPlacer
}

// placeSplitter outputs have no codec: out of core the window destinations
// are collected and merged once at the finale.
type placeSplitter struct {
	arraySplitter
	floatPlacer
}

// arrOver is the split type Arr over sp, parameterized by the length of the
// call's first argument. An output typed Arr is the input's kind, so the §5.2
// byte model counts it (an output of a split type no argument has is a
// reduction to the model).
func arrOver(sp Splitter) TypeExpr {
	return Concrete("Arr", sp, func(args []any) (SplitType, error) {
		return NewSplitType("Arr", int64(len(args[0].([]float64)))), nil
	})
}

// TestOutOfCoreOracle is the §3.4 oracle for the out-of-core finale: every
// kind of output, under every window shape, at one and two workers, over
// window views and over absolute coordinates, equals the in-memory session
// and the unsplit call bit for bit, and leaves no byte admitted, no store
// open and no file behind. The kinds are an output placed at the finale from
// spilled frames, a spilled one merged once (no placement), a placed one
// without a codec whose window destinations are merged once, and a
// reduction. The shapes are a stage of whole windows, one whose last window
// is short, and a single window (a one-element stage under a budget smaller
// than its element).
func TestOutOfCoreOracle(t *testing.T) {
	kinds := []struct {
		name      string
		out       TypeExpr
		fn        Func
		spills    bool
		elemBytes int64 // the stage's Σ element bytes (§5.2): 8 in, plus 8 out unless reduced
	}{
		{"placed+codec", arrOver(placeCodecSplitter{}), fnStreamAddOne, true, 16},
		{"codec", arrOver(streamSplitter{}), fnStreamAddOne, true, 16},
		{"placed", arrOver(placeSplitter{}), fnStreamAddOne, false, 16},
		{"reduction", Concrete("SumSplit", sumSplitter{}, FixedCtor(NewSplitType("SumSplit"))), fnSum, false, 8},
	}
	shapes := []struct {
		name          string
		total, window int64
	}{{"whole", 8 * 16, 16}, {"short", 8*16 + 5, 16}, {"single", 1, 1}}
	for _, kind := range kinds {
		for _, shape := range shapes {
			for _, views := range []bool{true, false} {
				for workers := 1; workers <= 2; workers++ {
					coords, in := "absolute", Splitter(arraySplitter{})
					if views {
						coords, in = "views", streamSplitter{}
					}
					name := fmt.Sprintf("%s/%s/%s/workers=%d", kind.name, shape.name, coords, workers)
					t.Run(name, func(t *testing.T) {
						a := seq(int(shape.total))
						out := kind.out
						sa := &Annotation{FuncName: "oracle", Params: []Param{{Name: "a", Type: arrOver(in)}}, Ret: &out}
						want, err := kind.fn([]any{a})
						if err != nil {
							t.Fatal(err)
						}
						// Windows of half the budget; a single window needs a
						// budget below one element's bytes.
						budget := 2 * kind.elemBytes * shape.window
						if shape.window == shape.total {
							budget = kind.elemBytes / 2
						}
						windows := (shape.total + shape.window - 1) / shape.window
						g, dir, tr := NewGovernor(budget), t.TempDir(), &recordingTracer{}
						mem := NewSession(Options{Workers: workers, BatchElems: 4})
						ooc := NewSession(Options{Workers: workers, BatchElems: 4, Governor: g,
							OutOfCore: true, SpillDir: dir, Tracer: tr})
						futs := []*Future{mem.Call(kind.fn, sa, a), ooc.Call(kind.fn, sa, a)}
						ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
						defer cancel()
						for i, f := range futs {
							got, err := f.GetContext(ctx)
							if err != nil {
								t.Fatalf("session %d: %v", i, err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("session %d (0 in memory, 1 out of core): got %v, want %v", i, got, want)
							}
						}

						st := ooc.Stats()
						admissions := int64(len(tr.ofKind(obs.EvAdmission)))
						frames := int64(0)
						if kind.spills {
							frames = windows
						}
						if st.StreamedStages != 1 || admissions != windows || st.SpilledFrames != frames {
							t.Errorf("StreamedStages = %d, %d windows admitted, %d frames; want 1, %d, %d",
								st.StreamedStages, admissions, st.SpilledFrames, windows, frames)
						}
						if g.InUse() != 0 || g.HighWater() > budget {
							t.Errorf("governor holds %d bytes, high water %d; want 0 and at most %d", g.InUse(), g.HighWater(), budget)
						}
						if n := spill.OpenStores(); n != 0 {
							t.Errorf("%d spill stores open", n)
						}
						if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
							t.Errorf("spill directory holds %d entries (%v)", len(left), err)
						}
					})
				}
			}
		}
	}
}

// TestSetBudgetWakesWaiter: a mid-wait SetBudget must wake the blocked
// admission and re-clamp its request against the new budget — the seam the
// faultinject budget squeeze (and its recovery) depends on.
func TestSetBudgetWakesWaiter(t *testing.T) {
	g := NewGovernor(4)
	if adm, err := g.admit(context.Background(), 4); err != nil || adm != 4 {
		t.Fatalf("admit(4) = %d, %v", adm, err)
	}
	ch := make(chan int64, 1)
	go func() {
		adm, err := g.admit(context.Background(), 10)
		if err != nil {
			t.Error(err)
		}
		ch <- adm
	}()
	for i := 0; g.Waits() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if g.Waits() == 0 {
		t.Fatal("second admission never blocked")
	}
	g.SetBudget(16)
	select {
	case adm := <-ch:
		if adm != 10 {
			t.Errorf("re-clamped admission = %d, want 10", adm)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken by SetBudget")
	}
	g.release(10)
	g.release(4)
	if g.InUse() != 0 {
		t.Errorf("inUse = %d after releases", g.InUse())
	}
}

// TestSetBudgetShrinkReclampsWaiter: shrinking mid-wait must not strand a
// waiter whose original request no longer fits the new budget whole.
func TestSetBudgetShrinkReclampsWaiter(t *testing.T) {
	g := NewGovernor(100)
	if adm, _ := g.admit(context.Background(), 100); adm != 100 {
		t.Fatal("setup")
	}
	ch := make(chan int64, 1)
	go func() {
		adm, _ := g.admit(context.Background(), 80)
		ch <- adm
	}()
	for i := 0; g.Waits() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	// Shrink below the waiter's request. It stays blocked (100 still in
	// use), but once the holder releases, the waiter must admit at the
	// clamped 10 — not wait forever for 80.
	g.SetBudget(10)
	g.release(100)
	select {
	case adm := <-ch:
		if adm != 10 {
			t.Errorf("clamped admission after shrink = %d, want 10", adm)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded by mid-wait budget shrink")
	}
}
