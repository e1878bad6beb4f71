package httpdebug_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mozart/internal/core"
	"mozart/internal/obs"
	"mozart/internal/obs/httpdebug"
	"mozart/internal/plan"
)

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

// TestDebugEndpointsRoundTrip drives one real evaluation with every sink
// attached, mounts the debug surface, and round-trips each endpoint
// through a live httptest server.
func TestDebugEndpointsRoundTrip(t *testing.T) {
	metrics := obs.NewMetrics()
	trace := obs.NewChromeTrace()
	rec := obs.NewFlightRecorder(4)
	plans := httpdebug.NewPlanLog(4)

	h := rec.Session()
	sexpr := core.Concrete("Chunk", chunkSplitter{}, func(args []any) (core.SplitType, error) {
		return core.NewSplitType("Chunk", int64(len(args[0].([]float64)))), nil
	})
	ret := sexpr
	sa := &core.Annotation{FuncName: "scale", Params: []core.Param{{Name: "a", Type: sexpr}}, Ret: &ret}
	scale := func(args []any) (any, error) {
		in := args[0].([]float64)
		out := make([]float64, len(in))
		for i, x := range in {
			out[i] = 3 * x
		}
		return out, nil
	}

	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i)
	}
	s := core.NewSession(core.Options{Workers: 2, BatchElems: 8,
		Tracer: obs.Multi(metrics, trace, h),
		OnPlan: func(p *plan.Plan) { plans.OnPlan(p); h.OnPlan(p) }})
	s.Call(scale, sa, data)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	httpdebug.Mount(mux, httpdebug.Options{
		Metrics: metrics, Plans: plans, Trace: trace, Recorder: rec,
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, body)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// /metrics: Prometheus text, consistent with the sink's own renderer.
	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if body != metrics.PrometheusText() {
		t.Error("/metrics body differs from the sink's own rendering")
	}
	if !strings.Contains(body, "mozart_evaluations_total 1") {
		t.Errorf("/metrics missing the evaluation counter:\n%s", body)
	}

	// /debug/mozart/plans: the EXPLAIN rendering of the captured plan.
	body, ctype = get("/debug/mozart/plans")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/plans content type %q", ctype)
	}
	if !strings.Contains(body, "evaluation 1") || !strings.Contains(body, "scale") {
		t.Errorf("/plans body:\n%s", body)
	}

	// /debug/mozart/trace: valid Chrome trace JSON with events.
	body, ctype = get("/debug/mozart/trace")
	if ctype != "application/json" {
		t.Errorf("/trace content type %q", ctype)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("/trace has no events")
	}

	// /debug/mozart/flight: the recorder's retained evaluations.
	body, _ = get("/debug/mozart/flight")
	var recs []obs.Recording
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("/flight is not a JSON list: %v", err)
	}
	if len(recs) != 1 || len(recs[0].Events) == 0 || !strings.Contains(recs[0].Plan, "scale") {
		t.Errorf("/flight recordings: %+v", recs)
	}

	// Non-GET is rejected.
	resp, err := http.Post(srv.URL+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", resp.StatusCode)
	}
}

// TestMountNilComponents: unmounted surfaces 404 instead of panicking.
func TestMountNilComponents(t *testing.T) {
	mux := http.NewServeMux()
	httpdebug.Mount(mux, httpdebug.Options{Metrics: obs.NewMetrics()})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for path, want := range map[string]int{
		"/metrics":             http.StatusOK,
		"/debug/mozart/plans":  http.StatusNotFound,
		"/debug/mozart/trace":  http.StatusNotFound,
		"/debug/mozart/flight": http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestPlanLogRing: the plan log drops oldest entries beyond its bound.
func TestPlanLogRing(t *testing.T) {
	l := httpdebug.NewPlanLog(2)
	for i := 0; i < 5; i++ {
		l.OnPlan(&plan.Plan{})
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
	var b strings.Builder
	if _, err := l.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "evaluation 4") || !strings.Contains(b.String(), "evaluation 5") {
		t.Errorf("retained plans:\n%s", b.String())
	}
	if strings.Contains(b.String(), "evaluation 3") {
		t.Error("oldest plan should have been dropped")
	}
}

// TestPlanLogRendersAtReadTime: the log retains plan IRs and renders them in
// WriteTo, byte for byte as an eager plan.Render at OnPlan time would have;
// recording a plan into a full ring allocates nothing.
func TestPlanLogRendersAtReadTime(t *testing.T) {
	mk := func(names ...string) *plan.Plan {
		st := plan.Stage{Kind: plan.StageSplit, Inputs: []plan.Value{{Binding: 1, Split: "Chunk<64>", Elems: 64, ElemBytes: 8}}}
		for _, n := range names {
			st.Calls = append(st.Calls, plan.Call{Name: n, Args: []plan.Arg{{Binding: 1, Name: "a", Split: "Chunk<64>"}}})
		}
		return &plan.Plan{Stages: []plan.Stage{st}, Pipelining: true}
	}
	l := httpdebug.NewPlanLog(2)
	var want strings.Builder
	for i, p := range []*plan.Plan{mk("scale"), mk("scale", "shift")} {
		if i > 0 {
			want.WriteString("\n")
		}
		fmt.Fprintf(&want, "=== evaluation %d ===\n%s", i+1, plan.Render(p))
		l.OnPlan(p)
	}
	var got strings.Builder
	if _, err := l.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("WriteTo:\n%s\nwant:\n%s", got.String(), want.String())
	}
	p := mk("scale")
	if n := testing.AllocsPerRun(100, func() { l.OnPlan(p) }); n != 0 {
		t.Errorf("PlanLog.OnPlan into a full ring: %v allocations per call, want 0", n)
	}
}
