package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mozart/internal/core"
	"mozart/internal/serve"
)

// echoRegistry returns a registry whose single "echo" workload returns a
// fixed checksum immediately.
func echoRegistry(v float64) map[string]serve.EvalFunc {
	return map[string]serve.EvalFunc{
		"echo": func(ctx context.Context, p serve.EvalParams, opts core.Options) (float64, error) {
			return v, nil
		},
	}
}

// blockingRegistry returns a registry whose "block" workload parks until
// release closes or the request context dies, plus the started channel that
// reports each entry.
func blockingRegistry(started chan struct{}, release chan struct{}) map[string]serve.EvalFunc {
	return map[string]serve.EvalFunc{
		"block": func(ctx context.Context, p serve.EvalParams, opts core.Options) (float64, error) {
			started <- struct{}{}
			select {
			case <-release:
				return 1, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		},
	}
}

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postEval(t *testing.T, ts *httptest.Server, tenant, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/eval", strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if tenant != "" {
		req.Header.Set("X-Mozart-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("POST /v1/eval: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

type evalResult struct {
	Tenant       string   `json:"tenant"`
	Session      string   `json:"session"`
	Checksum     float64  `json:"checksum"`
	SessionEvals int64    `json:"session_evals"`
	Degraded     []string `json:"degraded"`
}

type errResult struct {
	Error struct {
		Origin  string `json:"origin"`
		Stage   int    `json:"stage"`
		Call    string `json:"call"`
		Message string `json:"message"`
		Flight  string `json:"flight"`
	} `json:"error"`
}

func TestEvalSuccessAndSessionLedger(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Registry: echoRegistry(42)})
	for i := 1; i <= 2; i++ {
		resp, body := postEval(t, ts, "", `{"workload":"echo","session":"s1"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("eval %d: status %d (%s)", i, resp.StatusCode, body)
		}
		var er evalResult
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("eval %d: bad body %s: %v", i, body, err)
		}
		if er.Checksum != 42 {
			t.Fatalf("eval %d: checksum %v, want 42", i, er.Checksum)
		}
		if er.Tenant != "default" || er.Session != "s1" {
			t.Fatalf("eval %d: tenant/session %q/%q", i, er.Tenant, er.Session)
		}
		if er.SessionEvals != int64(i) {
			t.Fatalf("eval %d: session_evals %d, want %d (warm session ledger)", i, er.SessionEvals, i)
		}
	}
}

// TestSessionLedgerBounded posts 5,000 distinct session keys: the ledger
// keeps at most 4,096, evicting the least recently used, so a key used all
// along stays warm while the first one-off key starts over.
func TestSessionLedgerBounded(t *testing.T) {
	srv, err := serve.New(serve.Config{Registry: echoRegistry(1)})
	if err != nil {
		t.Fatal(err)
	}
	post := func(key string) int64 {
		t.Helper()
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"workload":"echo","session":%q}`, key)
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("session %q: status %d (%s)", key, rec.Code, rec.Body)
		}
		var er evalResult
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("session %q: bad body %s: %v", key, rec.Body, err)
		}
		return er.SessionEvals
	}
	warm := int64(0)
	for i := 0; i < 5000; i++ {
		if i%1000 == 0 {
			warm = post("warm")
		}
		post(fmt.Sprint("s", i))
	}
	if n := srv.Tenant("default").Status().Sessions; n > 4096 {
		t.Errorf("%d sessions in the ledger after 5,001 keys, want at most 4096", n)
	}
	if got := post("warm"); got != warm+1 {
		t.Errorf("warm session_evals %d, want %d: a recently used key was evicted", got, warm+1)
	}
	if got := post("s0"); got != 1 {
		t.Errorf("s0 session_evals %d, want 1: the least recently used key was kept", got)
	}
}

func TestNotFoundAndBadRequests(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Registry: echoRegistry(1),
		Tenants: []serve.TenantConfig{
			{Name: "a", BudgetBytes: 1 << 20},
			{Name: "b", BudgetBytes: 1 << 20},
		},
	})
	if resp, _ := postEval(t, ts, "nosuch", `{"workload":"echo"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want 404", resp.StatusCode)
	}
	// With several tenants, a request naming none is also unknown.
	if resp, _ := postEval(t, ts, "", `{"workload":"echo"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no tenant among several: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := postEval(t, ts, "a", `{"workload":"nosuch"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workload: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := postEval(t, ts, "a", `{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d, want 400", resp.StatusCode)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/eval")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET eval: status %d, want 405", resp.StatusCode)
	}
}

func TestOverBudgetTenantSheds(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{
		Registry: echoRegistry(1),
		Tenants:  []serve.TenantConfig{{Name: "tiny", BudgetBytes: 4 << 10}},
	})
	// scale 65536 models 1 MiB of arrays — far over tiny's 4 KiB carve.
	resp, body := postEval(t, ts, "tiny", `{"workload":"echo","scale":65536}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if serve.RetryAfter(resp.Header) <= 0 {
		t.Fatalf("429 without Retry-After")
	}
	var er errResult
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Origin != "shed" {
		t.Fatalf("shed body %s (err %v), want origin shed", body, err)
	}
	if got := srv.Tenant("tiny").Shed(); got != 1 {
		t.Fatalf("tenant shed counter = %d, want 1", got)
	}
	if got := srv.Tenant("tiny").Governor().InUse(); got != 0 {
		t.Fatalf("tenant governor holds %d bytes after shed", got)
	}
}

func TestTenantInFlightCapSheds(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	_, ts := newTestServer(t, serve.Config{
		Registry: blockingRegistry(started, release),
		Tenants:  []serve.TenantConfig{{Name: "a", BudgetBytes: 64 << 20, MaxInFlight: 1}},
	})
	done := make(chan int, 1)
	go func() {
		resp, _ := postEval(t, ts, "a", `{"workload":"block","timeout_ms":5000}`)
		done <- resp.StatusCode
	}()
	<-started
	resp, body := postEval(t, ts, "a", `{"workload":"block"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d (%s), want 429", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "in-flight cap") {
		t.Fatalf("shed body %s does not name the in-flight cap", body)
	}
	close(release)
	if got := <-done; got != http.StatusOK {
		t.Fatalf("first request finished %d, want 200", got)
	}
}

func TestGlobalInFlightCapSheds(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	_, ts := newTestServer(t, serve.Config{
		Registry:    blockingRegistry(started, release),
		MaxInFlight: 1,
		Tenants: []serve.TenantConfig{
			{Name: "a", BudgetBytes: 16 << 20},
			{Name: "b", BudgetBytes: 16 << 20},
		},
	})
	done := make(chan int, 1)
	go func() {
		resp, _ := postEval(t, ts, "a", `{"workload":"block","timeout_ms":5000}`)
		done <- resp.StatusCode
	}()
	<-started
	// A different tenant is shed by the *global* cap.
	resp, body := postEval(t, ts, "b", `{"workload":"block"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant b: status %d (%s), want 429", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "global in-flight cap") {
		t.Fatalf("shed body %s does not name the global cap", body)
	}
	close(release)
	if got := <-done; got != http.StatusOK {
		t.Fatalf("first request finished %d, want 200", got)
	}
}

func TestDeadlineMapsTo504(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{
		Registry: map[string]serve.EvalFunc{
			"wait": func(ctx context.Context, p serve.EvalParams, opts core.Options) (float64, error) {
				<-ctx.Done()
				return 0, ctx.Err()
			},
		},
	})
	resp, body := postEval(t, ts, "", `{"workload":"wait","timeout_ms":30}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	var er errResult
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Origin != "timeout" || er.Error.Flight == "" {
		t.Fatalf("error detail %+v: want origin timeout with a flight reference", er.Error)
	}
	st := srv.Tenant("default")
	if st.Governor().InUse() != 0 {
		t.Fatalf("governor holds bytes after timeout")
	}
}

func TestClientTimeoutClampedByMaxTimeout(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		MaxTimeout: 50 * time.Millisecond,
		Registry: map[string]serve.EvalFunc{
			"wait": func(ctx context.Context, p serve.EvalParams, opts core.Options) (float64, error) {
				<-ctx.Done()
				return 0, ctx.Err()
			},
		},
	})
	// The client asks for 60s; the server's clamp must bound the request.
	start := time.Now()
	resp, _ := postEval(t, ts, "", `{"workload":"wait","timeout_ms":60000}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request ran %v despite a 50ms MaxTimeout clamp", elapsed)
	}
}

func TestCanceledMapsTo499(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Registry: map[string]serve.EvalFunc{
			"canceled": func(ctx context.Context, p serve.EvalParams, opts core.Options) (float64, error) {
				return 0, fmt.Errorf("evaluation died: %w", context.Canceled)
			},
		},
	})
	resp, body := postEval(t, ts, "", `{"workload":"canceled"}`)
	if resp.StatusCode != 499 {
		t.Fatalf("status %d (%s), want 499", resp.StatusCode, body)
	}
}

func TestStageErrorMapsToStructured500(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Registry: map[string]serve.EvalFunc{
			"stagefail": func(ctx context.Context, p serve.EvalParams, opts core.Options) (float64, error) {
				return 0, &core.StageError{Stage: 2, Call: "vdAdd", Origin: core.OriginSplit, Err: errors.New("boom")}
			},
		},
	})
	resp, body := postEval(t, ts, "", `{"workload":"stagefail"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (%s), want 500", resp.StatusCode, body)
	}
	var er errResult
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Origin != "split" || er.Error.Stage != 2 || er.Error.Call != "vdAdd" {
		t.Fatalf("error detail %+v: want origin split, stage 2, call vdAdd", er.Error)
	}
	if !strings.Contains(er.Error.Flight, "/debug/mozart/flight/default") {
		t.Fatalf("error detail %+v lacks the flight-recorder reference", er.Error)
	}
}

func TestPanicIsolation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Registry: map[string]serve.EvalFunc{
			"panic": func(ctx context.Context, p serve.EvalParams, opts core.Options) (float64, error) {
				panic("handler bug")
			},
			"echo": func(ctx context.Context, p serve.EvalParams, opts core.Options) (float64, error) {
				return 7, nil
			},
		},
	})
	resp, body := postEval(t, ts, "", `{"workload":"panic"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic: status %d (%s), want 500", resp.StatusCode, body)
	}
	var er errResult
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Origin != "panic" {
		t.Fatalf("panic body %s (err %v), want structured origin panic", body, err)
	}
	// The server survives and keeps serving.
	if resp, _ := postEval(t, ts, "", `{"workload":"echo"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic eval: status %d, want 200", resp.StatusCode)
	}
}

func TestDrainLifecycle(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, ts := newTestServer(t, serve.Config{
		Registry:     blockingRegistry(started, release),
		DrainTimeout: 5 * time.Second,
	})

	ready := func() int {
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := ready(); got != http.StatusOK {
		t.Fatalf("readyz while serving: %d, want 200", got)
	}

	done := make(chan int, 1)
	go func() {
		resp, _ := postEval(t, ts, "", `{"workload":"block","timeout_ms":5000}`)
		done <- resp.StatusCode
	}()
	<-started
	srv.BeginDrain()

	if got := ready(); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", got)
	}
	resp, _ := postEval(t, ts, "", `{"workload":"block"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("eval while draining: %d, want 503", resp.StatusCode)
	}
	if serve.RetryAfter(resp.Header) <= 0 {
		t.Fatalf("draining 503 without Retry-After")
	}
	// healthz stays live through the drain.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", hresp.StatusCode)
	}

	// The in-flight evaluation finishes; drain completes cleanly.
	close(release)
	if got := <-done; got != http.StatusOK {
		t.Fatalf("in-flight request during drain finished %d, want 200", got)
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if srv.State() != serve.StateStopped {
		t.Fatalf("state after drain %q, want stopped", srv.State())
	}
	if got := srv.GlobalGovernor().InUse(); got != 0 {
		t.Fatalf("shared governor holds %d bytes after drain", got)
	}
}

func TestDrainForceCancelsStragglers(t *testing.T) {
	started := make(chan struct{}, 1)
	srv, ts := newTestServer(t, serve.Config{
		DrainTimeout: 50 * time.Millisecond,
		Registry: map[string]serve.EvalFunc{
			"stuck": func(ctx context.Context, p serve.EvalParams, opts core.Options) (float64, error) {
				started <- struct{}{}
				<-ctx.Done() // never finishes on its own
				return 0, ctx.Err()
			},
		},
	})
	done := make(chan int, 1)
	go func() {
		resp, _ := postEval(t, ts, "", `{"workload":"stuck","timeout_ms":9000}`)
		done <- resp.StatusCode
	}()
	<-started
	start := time.Now()
	if err := srv.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %v; force-cancel did not bound it", elapsed)
	}
	status := <-done
	if status != 499 && status != http.StatusGatewayTimeout {
		t.Fatalf("force-cancelled request finished %d, want 499 or 504", status)
	}
	if err := srv.Quiesced(); err != nil {
		t.Fatalf("Quiesced after forced drain: %v", err)
	}
}

func TestConstructionErrors(t *testing.T) {
	if _, err := serve.New(serve.Config{Tenants: []serve.TenantConfig{
		{Name: "a", BudgetBytes: 1 << 20},
		{Name: "a", BudgetBytes: 1 << 20},
	}}); err == nil {
		t.Fatalf("duplicate tenant accepted")
	}
	if _, err := serve.New(serve.Config{
		GlobalBudgetBytes: 1 << 20,
		Tenants: []serve.TenantConfig{
			{Name: "a", BudgetBytes: 1 << 20},
			{Name: "b", BudgetBytes: 1}, // over-carves the shared governor
		},
	}); err == nil {
		t.Fatalf("over-carved tenant budgets accepted")
	}
	if _, err := serve.New(serve.Config{Tenants: []serve.TenantConfig{{Name: "", BudgetBytes: 1}}}); err == nil {
		t.Fatalf("empty tenant name accepted")
	}
}

func TestStatusAndDebugEndpoints(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Registry: echoRegistry(1),
		Tenants: []serve.TenantConfig{
			{Name: "a", BudgetBytes: 1 << 20},
			{Name: "b", BudgetBytes: 1 << 20},
		},
	})
	if resp, _ := postEval(t, ts, "a", `{"workload":"echo","scale":128}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("eval: %d", resp.StatusCode)
	}
	get := func(path string) (int, []byte) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	code, body := get("/v1/tenants")
	if code != http.StatusOK {
		t.Fatalf("/v1/tenants: %d", code)
	}
	var statuses []serve.TenantStatus
	if err := json.Unmarshal(body, &statuses); err != nil {
		t.Fatalf("/v1/tenants body %s: %v", body, err)
	}
	if len(statuses) != 2 || statuses[0].Name != "a" || statuses[0].Served != 1 {
		t.Fatalf("tenant statuses %+v", statuses)
	}
	code, body = get("/debug/mozart/flight")
	if code != http.StatusOK || !strings.Contains(string(body), "/debug/mozart/flight/a") {
		t.Fatalf("flight index: %d %s", code, body)
	}
	if code, _ = get("/debug/mozart/flight/a"); code != http.StatusOK {
		t.Fatalf("tenant flight dump: %d", code)
	}
	if code, _ = get("/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if code, _ = get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
}

// TestConcurrentMixedLoad hammers one tenant with short echo evaluations
// from many goroutines while status endpoints are polled — a -race
// regression net over the admission bookkeeping.
func TestConcurrentMixedLoad(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{
		Registry: echoRegistry(3),
		Tenants:  []serve.TenantConfig{{Name: "a", BudgetBytes: 32 << 20, MaxInFlight: 4}},
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, _ := postEval(t, ts, "a", `{"workload":"echo","scale":1024}`)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("status %d, want 200 or 429", resp.StatusCode)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		resp, err := ts.Client().Get(ts.URL + "/v1/tenants")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	wg.Wait()
	if err := srv.Drain(); err != nil {
		t.Fatalf("Drain after load: %v", err)
	}
}
