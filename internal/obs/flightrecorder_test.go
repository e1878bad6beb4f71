package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mozart/internal/core"
	"mozart/internal/faultinject"
	"mozart/internal/obs"
	"mozart/internal/plan"
)

// chunkSplitter is a minimal []float64 splitter for driving real sessions.
type chunkSplitter struct{}

func (chunkSplitter) InPlace() bool { return false }

func (chunkSplitter) Info(v any, t core.SplitType) (core.RuntimeInfo, error) {
	return core.RuntimeInfo{Elems: int64(len(v.([]float64))), ElemBytes: 8}, nil
}

func (chunkSplitter) Split(v any, t core.SplitType, start, end int64) (any, error) {
	return v.([]float64)[start:end], nil
}

func (chunkSplitter) Merge(pieces []any, t core.SplitType) (any, error) {
	var out []float64
	for _, p := range pieces {
		out = append(out, p.([]float64)...)
	}
	return out, nil
}

func doubleFn(args []any) (any, error) {
	in := args[0].([]float64)
	out := make([]float64, len(in))
	for i, x := range in {
		out[i] = 2 * x
	}
	return out, nil
}

// chunkAnnotation builds a unary []float64 -> []float64 annotation around
// the given splitter.
func chunkAnnotation(name string, sp core.Splitter) *core.Annotation {
	sexpr := core.Concrete("Chunk", sp, func(args []any) (core.SplitType, error) {
		return core.NewSplitType("Chunk", int64(len(args[0].([]float64)))), nil
	})
	ret := sexpr
	return &core.Annotation{FuncName: name, Params: []core.Param{{Name: "a", Type: sexpr}}, Ret: &ret}
}

// evalOnce runs one real evaluation of a 64-element doubling call through
// the given handle (as tracer + plan callback), with fn/sp optionally
// fault-wrapped.
func evalOnce(t *testing.T, h *obs.FlightHandle, fn core.Func, sp core.Splitter, name string) error {
	t.Helper()
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i)
	}
	s := core.NewSession(core.Options{Workers: 2, BatchElems: 8,
		Tracer: h, OnPlan: h.OnPlan})
	v := s.Call(fn, chunkAnnotation(name, sp), data)
	if err := s.EvaluateContext(context.Background()); err != nil {
		return err
	}
	got, err := v.Get()
	if err != nil {
		return err
	}
	if out := got.([]float64); out[5] != 10 {
		t.Fatalf("out[5] = %v, want 10", out[5])
	}
	return nil
}

// TestFlightRecorderRingBound: the ring retains exactly the last N
// evaluations, with monotonically increasing sequence numbers, plan
// renderings, and session brackets.
func TestFlightRecorderRingBound(t *testing.T) {
	rec := obs.NewFlightRecorder(3)
	h := rec.Session()
	for i := 0; i < 7; i++ {
		if err := evalOnce(t, h, doubleFn, chunkSplitter{}, "double"); err != nil {
			t.Fatal(err)
		}
	}
	rs := rec.Recordings()
	if len(rs) != 3 || rec.Len() != 3 {
		t.Fatalf("retained %d recordings, want 3", len(rs))
	}
	for i, r := range rs {
		if want := int64(5 + i); r.Seq != want {
			t.Errorf("recording %d seq = %d, want %d (oldest dropped)", i, r.Seq, want)
		}
		if r.Err != "" {
			t.Errorf("recording %d unexpectedly failed: %s", i, r.Err)
		}
		if !strings.Contains(r.Plan, "double") {
			t.Errorf("recording %d plan rendering = %q, want the call pipeline", i, r.Plan)
		}
		if len(r.Events) < 4 {
			t.Fatalf("recording %d has %d events", i, len(r.Events))
		}
		if r.Events[0].Kind != obs.EvSessionBegin || r.Events[len(r.Events)-1].Kind != obs.EvSessionEnd {
			t.Errorf("recording %d not bracketed by session events", i)
		}
		if r.End.Before(r.Begin) {
			t.Errorf("recording %d ends before it begins", i)
		}
	}
}

// TestFlightRecorderEventCap: beyond the event cap a recording counts
// drops instead of buffering, and the session-end event is still retained.
func TestFlightRecorderEventCap(t *testing.T) {
	rec := obs.NewFlightRecorder(1)
	rec.SetEventCap(4)
	h := rec.Session()
	if err := evalOnce(t, h, doubleFn, chunkSplitter{}, "double"); err != nil {
		t.Fatal(err)
	}
	rs := rec.Recordings()
	if len(rs) != 1 {
		t.Fatalf("recordings = %d", len(rs))
	}
	r := rs[0]
	if len(r.Events) != 5 { // cap(4) + the always-retained session end
		t.Errorf("events = %d, want 5", len(r.Events))
	}
	if r.Dropped == 0 {
		t.Error("expected dropped events beyond the cap")
	}
	if r.Events[len(r.Events)-1].Kind != obs.EvSessionEnd {
		t.Error("session end must survive the cap")
	}
}

// TestFlightRecorderConcurrentSessionsAndFaultDump is the -race workout:
// several sessions record into one recorder concurrently, one of them hits
// an injected split fault, and the faulting evaluation auto-dumps. The
// ring bound holds under concurrency and fault attribution lands on the
// right recording.
func TestFlightRecorderConcurrentSessionsAndFaultDump(t *testing.T) {
	const sessions = 8
	const evalsEach = 5
	rec := obs.NewFlightRecorder(sessions * evalsEach) // retain everything

	var dumpBuf bytes.Buffer
	rec.AutoDump(&dumpBuf)

	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := rec.Session()
			for i := 0; i < evalsEach; i++ {
				fn, sp := core.Func(doubleFn), core.Splitter(chunkSplitter{})
				name := fmt.Sprintf("double-%d", g)
				inject := g == 0 && i == 2
				if inject {
					inj := faultinject.New(0)
					inj.ErrorOnNthSplit(name, 1)
					sp = inj.WrapSplitter(name, sp)
				}
				err := evalOnce(t, h, fn, sp, name)
				if inject {
					if err == nil {
						errCh <- fmt.Errorf("injected split fault did not fail the evaluation")
					}
				} else if err != nil {
					errCh <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	rs := rec.Recordings()
	if len(rs) != sessions*evalsEach {
		t.Fatalf("recordings = %d, want %d", len(rs), sessions*evalsEach)
	}
	var faulted int
	for _, r := range rs {
		if r.Err != "" {
			faulted++
			if !strings.Contains(r.Err, "injected split fault") {
				t.Errorf("faulting recording carries %q", r.Err)
			}
			// The events of the faulting recording belong to the faulting
			// session: per-session handles keep concurrent sessions apart.
			for _, e := range r.Events {
				if e.Calls != "" && !strings.Contains(e.Calls, "double-0") {
					t.Errorf("fault recording contains another session's event: %+v", e)
				}
			}
		}
	}
	if faulted != 1 {
		t.Fatalf("faulting recordings = %d, want 1", faulted)
	}

	// The auto-dump fired exactly once, with the faulting recording as
	// parseable JSON.
	var dumped obs.Recording
	if err := json.Unmarshal(dumpBuf.Bytes(), &dumped); err != nil {
		t.Fatalf("auto-dump is not one JSON recording: %v\n%s", err, dumpBuf.String())
	}
	if dumped.Err == "" || !strings.Contains(dumped.Err, "injected split fault") {
		t.Errorf("auto-dumped recording err = %q", dumped.Err)
	}

	// Dump renders the whole ring.
	var all bytes.Buffer
	if err := rec.Dump(&all); err != nil {
		t.Fatal(err)
	}
	var list []obs.Recording
	if err := json.Unmarshal(all.Bytes(), &list); err != nil {
		t.Fatalf("Dump is not a JSON list: %v", err)
	}
	if len(list) != sessions*evalsEach {
		t.Errorf("Dump rendered %d recordings, want %d", len(list), sessions*evalsEach)
	}
}

// tripleFn is a second, differently named call so one session can produce
// two different plans.
func tripleFn(args []any) (any, error) {
	in := args[0].([]float64)
	out := make([]float64, len(in))
	for i, x := range in {
		out[i] = 3 * x
	}
	return out, nil
}

// TestFlightRecordingRendersPlanAtReadTime: the recorder retains each
// evaluation's plan IR and renders Plan only when a recording is read. Every
// read surface — Recordings, Find, Dump, the fault hook — shows byte for byte
// what plan.Render produced when the plan was made, also after the same
// session has planned and run a second, different evaluation: the retained
// IR is immutable once OnPlan has seen it.
func TestFlightRecordingRendersPlanAtReadTime(t *testing.T) {
	rec := obs.NewFlightRecorder(4)
	var dumped []obs.Recording
	rec.OnFault(func(r obs.Recording) { dumped = append(dumped, r) })
	h := rec.Session()

	var plans []*plan.Plan
	var eager, frozen []string // plan.Render and the IR's JSON, taken inside OnPlan
	tc := obs.NewTraceContext()
	s := core.NewSession(core.Options{Workers: 2, BatchElems: 8, Tracer: h, Trace: &tc,
		OnPlan: func(p *plan.Plan) {
			j, _ := json.Marshal(p)
			plans, eager, frozen = append(plans, p), append(eager, plan.Render(p)), append(frozen, string(j))
			h.OnPlan(p)
		}})
	inj := faultinject.New(0)
	inj.ErrorOnNthSplit("triple", 1)
	s.Call(doubleFn, chunkAnnotation("double", chunkSplitter{}), make([]float64, 64))
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Call(tripleFn, chunkAnnotation("triple", inj.WrapSplitter("triple", chunkSplitter{})), make([]float64, 40))
	if err := s.EvaluateContext(context.Background()); err == nil {
		t.Fatal("injected split fault did not fail the second evaluation")
	}
	if len(eager) != 2 || eager[0] == eager[1] {
		t.Fatalf("want two different plans, got %q", eager)
	}
	for i, p := range plans {
		if j, _ := json.Marshal(p); string(j) != frozen[i] {
			t.Errorf("plan %d changed after OnPlan returned:\n%s\nwas:\n%s", i, j, frozen[i])
		}
	}

	rs := rec.Recordings()
	if len(rs) != 2 || rs[0].Plan != eager[0] || rs[1].Plan != eager[1] {
		t.Fatalf("Recordings plans = %q, want %q", []string{rs[0].Plan, rs[1].Plan}, eager)
	}
	if found, ok := rec.Find(tc.TraceID.String()); !ok || found.Seq != 2 || found.Plan != eager[1] {
		t.Errorf("Find: ok %v, seq %d, plan %q; want the newest recording with plan %q", ok, found.Seq, found.Plan, eager[1])
	}
	if len(dumped) != 1 || dumped[0].Plan != eager[1] || dumped[0].Err == "" {
		t.Errorf("fault hook saw %+v, want the failed evaluation with plan %q", dumped, eager[1])
	}
	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	var list []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &list); err != nil || len(list) != 2 {
		t.Fatalf("Dump: %v\n%s", err, buf.String())
	}
	for i, m := range list {
		if m["plan"] != eager[i] {
			t.Errorf(`Dump recording %d "plan" = %q, want %q`, i, m["plan"], eager[i])
		}
	}
}

// TestFlightHandleOnPlanAllocatesNothing: recording a plan is a pointer
// store; no rendering, no allocation.
func TestFlightHandleOnPlanAllocatesNothing(t *testing.T) {
	h := obs.NewFlightRecorder(1).Session()
	h.Emit(obs.Event{Kind: obs.EvSessionBegin})
	p := &plan.Plan{Stages: []plan.Stage{{Calls: []plan.Call{{Name: "a"}, {Name: "b"}}}}}
	if n := testing.AllocsPerRun(100, func() { h.OnPlan(p) }); n != 0 {
		t.Errorf("FlightHandle.OnPlan: %v allocations per call, want 0", n)
	}
}
