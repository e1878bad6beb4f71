package serve_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"mozart/internal/core"
	"mozart/internal/serve"
)

// recordingBudget is the tenant carve of the recording server: 64 KiB
// admits any scale up to 4096 (16 modeled bytes per element).
const recordingBudget = 64 << 10

// recordingServer serves every workload name the serve tests post through
// one EvalFunc that allocates nothing: it counts its calls and records any
// call the byte budget should have shed — a scale whose modeled demand
// exceeds the tenant carve on a request that did not opt into degradation
// (opts.OutOfCore mirrors the request's "degrade").
func recordingServer(t testing.TB) (h http.Handler, calls *atomic.Int64, overBudget *atomic.Int64) {
	calls, overBudget = new(atomic.Int64), new(atomic.Int64)
	rec := func(ctx context.Context, p serve.EvalParams, opts core.Options) (float64, error) {
		calls.Add(1)
		if !opts.OutOfCore && int64(p.Scale) > recordingBudget/16 {
			overBudget.Store(int64(p.Scale))
		}
		return 1, nil
	}
	reg := map[string]serve.EvalFunc{}
	for _, name := range []string{"echo", "block", "wait", "panic", "stagefail", "blackscholes-ooc"} {
		reg[name] = rec
	}
	srv, err := serve.New(serve.Config{
		Registry: reg,
		Tenants:  []serve.TenantConfig{{Name: "t", BudgetBytes: recordingBudget}},
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	return srv.Handler(), calls, overBudget
}

func serveEval(h http.Handler, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(body)))
	return rr
}

// A scale whose modeled demand (16 bytes per element) overflows int64 must
// still shed: the estimate saturates rather than wrapping to a demand of
// zero or less, which the governor would admit without a reservation.
func TestHugeScaleSheds(t *testing.T) {
	h, calls, _ := recordingServer(t)
	for _, scale := range []string{"576460752303423488", "1152921504606846976", "9223372036854775807"} {
		rr := serveEval(h, `{"workload":"echo","scale":`+scale+`}`)
		if rr.Code != http.StatusTooManyRequests {
			t.Errorf("scale %s: status %d (%s), want 429", scale, rr.Code, rr.Body)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("over-budget requests reached the workload %d times", n)
	}
}

// FuzzEvalBody drives arbitrary /v1/eval bodies through the handler. It
// must never panic (the recording workload returns no error, so a 500 can
// only be a panic the handler recovered), and the byte budget must shed
// every request whose modeled demand exceeds the tenant carve unless the
// request opted into degradation.
func FuzzEvalBody(f *testing.F) {
	for _, body := range []string{
		`{"workload":"echo"}`,
		`{"workload":"echo","session":"s1"}`,
		`{"workload":"echo","scale":128}`,
		`{"workload":"echo","scale":1024}`,
		`{"workload":"echo","scale":65536}`,
		`{"workload":"echo","scale":1152921504606846976}`,
		`{"workload":"block","timeout_ms":5000}`,
		`{"workload":"wait","timeout_ms":30}`,
		`{"workload":"stagefail","threads":64}`,
		`{"workload":"blackscholes-ooc","scale":65536,"degrade":true}`,
		`{"workload":"echo","tenant":"t","variant":"base","scale":-1}`,
		`{"workload":"nosuch"}`,
		`{"workload":"echo","bogus":1}`,
		`{not json`,
		``,
	} {
		f.Add(body)
	}
	h, _, overBudget := recordingServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		overBudget.Store(0)
		rr := serveEval(h, body)
		if rr.Code == http.StatusInternalServerError {
			t.Fatalf("body %q: handler panicked: %s", body, rr.Body)
		}
		if s := overBudget.Load(); s != 0 {
			t.Fatalf("body %q: workload ran at scale %d, over the %d-byte budget, without degrade", body, s, recordingBudget)
		}
	})
}
