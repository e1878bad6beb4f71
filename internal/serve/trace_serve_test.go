package serve_test

// End-to-end tracing through mozartd's serving layer: traceparent echo on
// success and error paths, the span tree behind /debug/mozart/spans, the
// OpenMetrics exemplar negotiation, trace-keyed flight lookups on timeout,
// and the SLO burn rates a violating tenant exposes. These run under the
// -race gate next to the soak.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mozart/internal/core"
	"mozart/internal/faultinject"
	"mozart/internal/obs"
	"mozart/internal/plan"
	"mozart/internal/serve"
)

const (
	testTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	testTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
)

func postTraced(t *testing.T, ts *httptest.Server, tenant, traceparent, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/eval", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Mozart-Tenant", tenant)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getBody(t *testing.T, ts *httptest.Server, path, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestTraceEchoSpanTreeExemplarAndBurn drives one traced evaluation
// through a real annotated pipeline and checks every surface the trace id
// must reach. The tenant's 1ns latency objective makes the success
// SLO-bad, so the burn rates must light up as well.
func TestTraceEchoSpanTreeExemplarAndBurn(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Registry: pipelineRegistry(faultinject.New(0)),
		SLO:      serve.SLOConfig{LatencyObjective: time.Nanosecond, Availability: 0.999},
	})

	resp, body := postTraced(t, ts, "", testTraceparent, `{"workload":"pipeline","scale":4096}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval: %d (%s)", resp.StatusCode, body)
	}
	// The response traceparent carries the inbound trace id but a fresh
	// parent span (the request's root span), still sampled.
	tc, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.Header.Get("traceparent"))
	}
	if tc.TraceID.String() != testTraceID || !tc.Sampled {
		t.Fatalf("response traceparent %q: wrong trace id or unsampled", resp.Header.Get("traceparent"))
	}
	if tc.SpanID.String() == "00f067aa0ba902b7" {
		t.Fatalf("response parent span must be the server's root span, not the caller's")
	}
	var er struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &er); err != nil || er.TraceID != testTraceID {
		t.Fatalf("body trace_id %q (err %v), want %s", er.TraceID, err, testTraceID)
	}

	// The span tree: request → session → stages → batches.
	resp, body = getBody(t, ts, "/debug/mozart/spans/"+testTraceID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("span tree: %d (%s)", resp.StatusCode, body)
	}
	tree := string(body)
	for _, want := range []string{"trace " + testTraceID, "POST /v1/eval", "session", "plan", "stage 0", "batch [", `tenant="default"`, `outcome="ok"`} {
		if !strings.Contains(tree, want) {
			t.Errorf("span tree missing %q:\n%s", want, tree)
		}
	}
	resp, body = getBody(t, ts, "/debug/mozart/spans/"+testTraceID+"?format=otlp", "")
	if resp.StatusCode != http.StatusOK || !json.Valid(body) {
		t.Fatalf("otlp export: %d, valid JSON %v", resp.StatusCode, json.Valid(body))
	}

	// OpenMetrics negotiation: exemplar + # EOF only when asked for.
	resp, body = getBody(t, ts, "/metrics", "application/openmetrics-text;version=1.0.0;q=0.8,text/plain;q=0.5")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("openmetrics content type %q", ct)
	}
	om := string(body)
	if !strings.HasSuffix(om, "# EOF\n") || !strings.Contains(om, `# {trace_id="`+testTraceID+`"}`) {
		t.Errorf("openmetrics exposition lacks exemplar or terminator")
	}
	if _, body = getBody(t, ts, "/metrics", ""); strings.Contains(string(body), "# EOF") {
		t.Errorf("classic exposition leaked OpenMetrics syntax")
	}

	// The 1ns objective makes the 200 bad: burn rates light up and the
	// worst trace is this request.
	_, body = getBody(t, ts, "/v1/tenants", "")
	var statuses []serve.TenantStatus
	if err := json.Unmarshal(body, &statuses); err != nil || len(statuses) != 1 {
		t.Fatalf("tenants: %s (%v)", body, err)
	}
	st := statuses[0]
	if st.SLOBad < 1 || st.SLOGood != 0 {
		t.Errorf("slo counts good=%d bad=%d, want the slow 200 counted bad", st.SLOGood, st.SLOBad)
	}
	if st.SLOBurnRate5m <= 0 || st.SLOBurnRate1h <= 0 {
		t.Errorf("burn rates (%g, %g) must be positive under a violated objective", st.SLOBurnRate5m, st.SLOBurnRate1h)
	}
	if st.SLOWorstTrace != testTraceID {
		t.Errorf("worst trace %q, want %s", st.SLOWorstTrace, testTraceID)
	}
	if _, body = getBody(t, ts, "/metrics", ""); !strings.Contains(string(body), `mozart_slo_burn_rate{tenant="default",window="5m"}`) {
		t.Errorf("plain scrape missing the slo burn-rate family:\n%s", body)
	}
}

// TestTraceMintedWhenAbsentOrMalformed: requests without a (valid)
// traceparent still get a full trace identity.
func TestTraceMintedWhenAbsentOrMalformed(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Registry: echoRegistry(1)})
	for _, inbound := range []string{"", "not-a-traceparent", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"} {
		resp, body := postTraced(t, ts, "", inbound, `{"workload":"echo"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("inbound %q: %d (%s)", inbound, resp.StatusCode, body)
		}
		tc, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
		if !ok || tc.TraceID.IsZero() {
			t.Fatalf("inbound %q: minted traceparent %q invalid", inbound, resp.Header.Get("traceparent"))
		}
		var er struct {
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal(body, &er); err != nil || er.TraceID != tc.TraceID.String() {
			t.Fatalf("inbound %q: body trace %q != header trace %q", inbound, er.TraceID, tc.TraceID.String())
		}
	}
}

// TestErrorResponsesCarryTrace: even requests that never reach a workload
// answer with the trace id and leave a retrievable root span.
func TestErrorResponsesCarryTrace(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Registry: echoRegistry(1)})
	resp, body := postTraced(t, ts, "", testTraceparent, `{"workload":"no-such-workload"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workload: %d", resp.StatusCode)
	}
	var ed struct {
		Error struct {
			TraceID string `json:"trace_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &ed); err != nil || ed.Error.TraceID != testTraceID {
		t.Fatalf("404 body trace %q (%v), want %s", ed.Error.TraceID, err, testTraceID)
	}
	resp, body = getBody(t, ts, "/debug/mozart/spans/"+testTraceID, "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `outcome="rejected"`) {
		t.Fatalf("rejected request left no span: %d\n%s", resp.StatusCode, body)
	}
}

// TestTimeoutTraceResolvesFlight: a deadline-exceeded evaluation's 504
// carries a trace-keyed flight reference that resolves to the recording of
// that very request.
func TestTimeoutTraceResolvesFlight(t *testing.T) {
	reg := map[string]serve.EvalFunc{
		"park": func(ctx context.Context, p serve.EvalParams, opts core.Options) (float64, error) {
			// Mimic the runtime's session lifecycle so the flight recorder
			// retains a trace-stamped recording for the doomed request.
			opts.Tracer.Emit(obs.Event{Kind: obs.EvSessionBegin, Time: time.Now(),
				Stage: -1, Worker: obs.RuntimeLane, Trace: opts.Trace})
			<-ctx.Done()
			opts.Tracer.Emit(obs.Event{Kind: obs.EvSessionEnd, Time: time.Now(),
				Stage: -1, Worker: obs.RuntimeLane, Detail: ctx.Err().Error(), Trace: opts.Trace})
			return 0, ctx.Err()
		},
	}
	_, ts := newTestServer(t, serve.Config{Registry: reg, MaxTimeout: time.Second})
	resp, body := postTraced(t, ts, "", testTraceparent, `{"workload":"park","timeout_ms":30}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("parked eval: %d (%s), want 504", resp.StatusCode, body)
	}
	var ed struct {
		Error struct {
			TraceID string `json:"trace_id"`
			Flight  string `json:"flight"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &ed); err != nil {
		t.Fatal(err)
	}
	if ed.Error.TraceID != testTraceID || !strings.Contains(ed.Error.Flight, "?trace="+testTraceID) {
		t.Fatalf("504 body lacks trace-keyed flight ref: %s", body)
	}
	resp, body = getBody(t, ts, ed.Error.Flight, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight lookup: %d (%s)", resp.StatusCode, body)
	}
	var rec struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &rec); err != nil || rec.TraceID != testTraceID {
		t.Fatalf("flight recording trace %q (%v), want %s", rec.TraceID, err, testTraceID)
	}
	// The timeout is SLO-bad: the tenant's burn rate reflects it.
	_, body = getBody(t, ts, "/v1/tenants", "")
	var statuses []serve.TenantStatus
	if err := json.Unmarshal(body, &statuses); err != nil || len(statuses) != 1 {
		t.Fatalf("tenants: %s (%v)", body, err)
	}
	if statuses[0].SLOBad < 1 || statuses[0].SLOBurnRate5m <= 0 {
		t.Errorf("504 not burning: bad=%d burn5m=%g", statuses[0].SLOBad, statuses[0].SLOBurnRate5m)
	}
}

// TestDebugPlansAndFlightRenderAtReadTime: the server retains each request's
// plan IR and renders it only when /debug/mozart/plans or a flight endpoint
// is read. What is read — after later, different requests have run — is byte
// for byte what plan.Render produced at the moment the plan was made.
func TestDebugPlansAndFlightRenderAtReadTime(t *testing.T) {
	var mu sync.Mutex
	var eager []string
	run := pipelineRegistry(faultinject.New(0))["pipeline"]
	_, ts := newTestServer(t, serve.Config{Registry: map[string]serve.EvalFunc{
		"pipeline": func(ctx context.Context, p serve.EvalParams, opts core.Options) (float64, error) {
			onPlan := opts.OnPlan
			opts.OnPlan = func(pl *plan.Plan) {
				mu.Lock()
				eager = append(eager, plan.Render(pl))
				mu.Unlock()
				onPlan(pl)
			}
			return run(ctx, p, opts)
		},
	}})

	if resp, body := postTraced(t, ts, "", testTraceparent, `{"workload":"pipeline","scale":4096}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("eval: %d (%s)", resp.StatusCode, body)
	}
	if resp, body := postTraced(t, ts, "", "", `{"workload":"pipeline","scale":512}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("eval: %d (%s)", resp.StatusCode, body)
	}
	if len(eager) != 2 || eager[0] == eager[1] {
		t.Fatalf("want two different plans, got %q", eager)
	}

	_, body := getBody(t, ts, "/debug/mozart/plans", "")
	if want := "=== evaluation 1 ===\n" + eager[0] + "\n=== evaluation 2 ===\n" + eager[1]; string(body) != want {
		t.Errorf("/debug/mozart/plans:\n%s\nwant:\n%s", body, want)
	}

	_, body = getBody(t, ts, "/debug/mozart/flight/default", "")
	var recs []obs.Recording
	if err := json.Unmarshal(body, &recs); err != nil || len(recs) != 2 {
		t.Fatalf("flight dump: %v (%s)", err, body)
	}
	for i, rec := range recs {
		if rec.Plan != eager[i] {
			t.Errorf("flight recording %d plan:\n%s\nwant:\n%s", i, rec.Plan, eager[i])
		}
	}

	_, body = getBody(t, ts, "/debug/mozart/flight/default?trace="+testTraceID, "")
	var rec obs.Recording
	if err := json.Unmarshal(body, &rec); err != nil || rec.TraceID != testTraceID || rec.Plan != eager[0] {
		t.Errorf("trace-keyed flight lookup: err %v, trace %q, plan:\n%s\nwant:\n%s", err, rec.TraceID, rec.Plan, eager[0])
	}
}
