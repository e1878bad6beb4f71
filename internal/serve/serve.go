// Package serve is mozartd's engine: a long-lived, multi-tenant HTTP
// front end over the Mozart runtime that is robust by construction.
//
// Every request names a workload, a tenant, and a logical session. The
// admission path never queues without bound: a request is either admitted
// — against a global in-flight cap, the tenant's in-flight cap, and a
// byte reservation on the tenant's memory budget — or shed immediately
// with 429 and a Retry-After. Budgets are carved per tenant out of one
// shared core.Governor at registration, so the process-wide working set
// stays bounded while no tenant can starve another's carve. Deadlines are
// first-class: the client-supplied timeout is clamped by a server maximum
// and propagated through context into EvaluateContext (and lazy Future
// reads via Options.BaseContext), so partial work is cancelled on client
// disconnect, deadline expiry, or forced drain. Each tenant gets its own
// circuit-breaker group, metrics sink, and flight recorder — one tenant's
// faulting annotation degrades only that tenant. Lifecycle: /healthz
// (liveness), /readyz (admission state), and a drain state machine —
// serving → draining (stop admitting, finish in-flight within a deadline,
// then force-cancel) → stopped (budgets returned, Quiesced verifiable).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mozart/internal/core"
	"mozart/internal/obs"
	"mozart/internal/obs/httpdebug"
	"mozart/internal/plan"
	"mozart/internal/spill"
	"mozart/internal/tune"
)

// Server states (State / readyz).
const (
	StateServing  = "serving"
	StateDraining = "draining"
	StateStopped  = "stopped"
)

// statusClientClosedRequest is the de-facto (nginx) status for "client
// disconnected before the response": the evaluation was cancelled, nobody
// is listening, but access logs should not count it as a server fault.
const statusClientClosedRequest = 499

// Config configures a Server.
type Config struct {
	// GlobalBudgetBytes is the shared Governor's budget from which every
	// tenant's BudgetBytes is carved. Defaults to 1 GiB.
	GlobalBudgetBytes int64
	// MaxInFlight caps concurrent evaluations across all tenants; excess
	// requests shed with 429. Defaults to 32.
	MaxInFlight int
	// DefaultTimeout applies when a request carries no timeout_ms.
	// Defaults to 2s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-supplied timeouts. Defaults to 10s.
	MaxTimeout time.Duration
	// DrainTimeout bounds graceful drain: in-flight evaluations get this
	// long to finish after SIGTERM before their contexts are force-
	// cancelled. Defaults to 5s.
	DrainTimeout time.Duration
	// DefaultScale substitutes for a request without a scale. Defaults to
	// 65536 elements.
	DefaultScale int
	// MaxWorkers clamps a request's threads field. Defaults to 8.
	MaxWorkers int
	// Tenants declares the tenants. Empty declares a single "default"
	// tenant owning the whole global budget.
	Tenants []TenantConfig
	// Registry maps workload names to implementations. Nil selects
	// WorkloadRegistry() (the paper's 15 workloads).
	Registry map[string]EvalFunc
	// Fallback, Retry, and Breaker are the resilience policies applied to
	// every evaluation. The zero Fallback is upgraded to
	// FallbackQuarantine so tenant breaker groups engage.
	Fallback core.FallbackPolicy
	Retry    core.RetryPolicy
	Breaker  core.BreakerPolicy
	// SpillDir is where degraded (out-of-core) evaluations place their
	// spill stores; empty selects the OS temp directory.
	SpillDir string
	// RetryJitterSeed seeds the 429 Retry-After jitter so tests can pin
	// the sequence; 0 seeds from the clock.
	RetryJitterSeed int64
	// Tune gives every tenant a calibrating batch tuner in its warm
	// ledger: evaluations sharing a structural plan signature sweep batch
	// sizes online and pin the winner (see internal/tune). Off by default
	// — plans then match the static §5.2 heuristic byte for byte.
	Tune bool
	// TuneConfig overrides the tuner parameters when Tune is set; the zero
	// value selects the tune package defaults.
	TuneConfig tune.Config
	// SLO is the default per-tenant service-level objective; tenants
	// override it via TenantConfig.SLO. The zero value selects 500ms
	// latency at 99.9% availability.
	SLO SLOConfig
	// Logger, when set, receives one structured summary line per /v1/eval
	// request (trace id, tenant, workload, mode, status, outcome, latency)
	// via log/slog. Nil logs nothing — tests and embedders that only want
	// the lifecycle Logf stay quiet.
	Logger *slog.Logger
	// SpanDepth is how many completed request span trees the server
	// retains behind /debug/mozart/spans (<= 0 selects 64).
	SpanDepth int
	// Logf receives server lifecycle lines (nil discards).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.GlobalBudgetBytes <= 0 {
		c.GlobalBudgetBytes = 1 << 30
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.DefaultScale <= 0 {
		c.DefaultScale = 1 << 16
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 8
	}
	if c.Fallback == core.FallbackOff {
		c.Fallback = core.FallbackQuarantine
	}
	if len(c.Tenants) == 0 {
		c.Tenants = []TenantConfig{{Name: "default", BudgetBytes: c.GlobalBudgetBytes}}
	}
	if c.Registry == nil {
		c.Registry = WorkloadRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the multi-tenant evaluation server. Build with New, serve
// Handler() on a listener the caller owns, and stop with Drain.
type Server struct {
	cfg     Config
	global  *core.Governor
	tenants map[string]*Tenant
	order   []string // tenant names, registration order

	metrics *obs.Metrics // server-wide sink behind /metrics
	plans   *httpdebug.PlanLog
	spans   *obs.SpanRing // completed request span trees behind /debug/mozart/spans
	mux     *http.ServeMux

	stateMu  sync.RWMutex // guards state transitions vs request admission
	state    atomic.Int32 // 0 serving, 1 draining, 2 stopped
	inFlight atomic.Int64 // global in-flight evaluations
	wg       sync.WaitGroup

	rngMu sync.Mutex // guards rng (Retry-After jitter)
	rng   *rand.Rand

	hardCtx    context.Context // cancelled when the drain deadline passes
	hardCancel context.CancelFunc
}

const (
	stServing int32 = iota
	stDraining
	stStopped
)

// New builds a server: carves each tenant's budget out of the shared
// Governor and mounts the API plus the httpdebug telemetry mux.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		global:  core.NewGovernor(cfg.GlobalBudgetBytes),
		tenants: map[string]*Tenant{},
		metrics: obs.NewMetrics(),
		plans:   httpdebug.NewPlanLog(16),
		spans:   obs.NewSpanRing(cfg.SpanDepth),
		mux:     http.NewServeMux(),
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	seed := cfg.RetryJitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	s.rng = rand.New(rand.NewSource(seed))
	for _, tc := range cfg.Tenants {
		if _, dup := s.tenants[tc.Name]; dup {
			s.closeTenants()
			return nil, fmt.Errorf("serve: duplicate tenant %q", tc.Name)
		}
		var tuneCfg *tune.Config
		if cfg.Tune {
			tcopy := cfg.TuneConfig
			tuneCfg = &tcopy
		}
		t, err := newTenant(tc, s.global, cfg.Breaker, tuneCfg, cfg.SLO)
		if err != nil {
			s.closeTenants()
			return nil, err
		}
		s.tenants[tc.Name] = t
		s.order = append(s.order, tc.Name)
	}
	// Reserved-bytes gauges: the shared Governor plus every tenant carve,
	// sampled live at each /metrics scrape.
	const reservedHelp = "Bytes currently reserved against the governor budget."
	s.metrics.RegisterGauge("governor_reserved_bytes", reservedHelp,
		map[string]string{"scope": "global"},
		func() float64 { return float64(s.global.InUse()) })
	for _, name := range s.order {
		t := s.tenants[name]
		s.metrics.RegisterGauge("governor_reserved_bytes", reservedHelp,
			map[string]string{"scope": "tenant", "tenant": name},
			func() float64 { return float64(t.gov.InUse()) })
	}
	// SLO families, sampled live per scrape: classified request counts,
	// multi-window burn rates, remaining error budget over the hour, and
	// the objective itself (so dashboards need no out-of-band config).
	for _, name := range s.order {
		t := s.tenants[name]
		s.metrics.RegisterFunc("slo_requests_total",
			"Requests classified against the tenant SLO, by outcome.", "counter",
			map[string]string{"tenant": name, "outcome": "good"},
			func() float64 { g, _ := t.slo.totals(); return float64(g) })
		s.metrics.RegisterFunc("slo_requests_total",
			"Requests classified against the tenant SLO, by outcome.", "counter",
			map[string]string{"tenant": name, "outcome": "bad"},
			func() float64 { _, b := t.slo.totals(); return float64(b) })
		s.metrics.RegisterFunc("slo_burn_rate",
			"Error-budget burn rate over the trailing window (1 = spending exactly at the objective).", "gauge",
			map[string]string{"tenant": name, "window": "5m"},
			func() float64 { return t.slo.burnRate(time.Now(), 5*time.Minute) })
		s.metrics.RegisterFunc("slo_burn_rate",
			"Error-budget burn rate over the trailing window (1 = spending exactly at the objective).", "gauge",
			map[string]string{"tenant": name, "window": "1h"},
			func() float64 { return t.slo.burnRate(time.Now(), time.Hour) })
		s.metrics.RegisterFunc("slo_error_budget_remaining",
			"Fraction of the hourly error budget left (clamped at 0).", "gauge",
			map[string]string{"tenant": name},
			func() float64 {
				rem := 1 - t.slo.burnRate(time.Now(), time.Hour)
				if rem < 0 {
					rem = 0
				}
				return rem
			})
		s.metrics.RegisterFunc("slo_latency_objective_seconds",
			"The tenant's good/bad latency threshold.", "gauge",
			map[string]string{"tenant": name},
			func() float64 { return t.slo.cfg.LatencyObjective.Seconds() })
	}
	s.routes()
	return s, nil
}

func (s *Server) closeTenants() {
	for _, t := range s.tenants {
		t.close()
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("/v1/eval", s.protect(s.handleEval))
	s.mux.HandleFunc("/v1/tenants", s.protect(s.handleTenants))
	s.mux.HandleFunc("/healthz", s.protect(s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.protect(s.handleReadyz))
	// The live-telemetry mux: server-wide /metrics and the retained plan
	// renderings. The flight recorders are per tenant, so they mount on
	// per-tenant paths below rather than through httpdebug.Options.
	httpdebug.Mount(s.mux, httpdebug.Options{Metrics: s.metrics, Plans: s.plans, Spans: s.spans, Service: "mozartd"})
	s.mux.HandleFunc("/debug/mozart/flight", s.protect(s.handleFlightIndex))
	for name, t := range s.tenants {
		t := t
		s.mux.HandleFunc("/debug/mozart/flight/"+name, s.protect(func(w http.ResponseWriter, r *http.Request) {
			// ?trace=<id> resolves one recording by the trace id stamped on
			// its session events — the link a 500/504 body's flight ref
			// carries, so a failing request's post-mortem is one GET away.
			if id := r.URL.Query().Get("trace"); id != "" {
				rec, ok := t.recorder.Find(id)
				if !ok {
					writeError(w, http.StatusNotFound, errorDetail{
						Message: fmt.Sprintf("no retained recording for trace %q", id), TraceID: id})
					return
				}
				writeJSON(w, http.StatusOK, rec)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = t.recorder.Dump(w)
		}))
	}
}

// Handler returns the server's HTTP handler; the caller owns the listener
// (mozartd wires it into an http.Server, tests into httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Tenant returns the named tenant, or nil.
func (s *Server) Tenant(name string) *Tenant { return s.tenants[name] }

// TenantNames returns the tenants in registration order.
func (s *Server) TenantNames() []string { return append([]string(nil), s.order...) }

// Metrics returns the server-wide metrics sink behind /metrics.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// GlobalGovernor returns the shared Governor tenant budgets are carved
// from.
func (s *Server) GlobalGovernor() *core.Governor { return s.global }

// InFlight returns the number of currently-running evaluations.
func (s *Server) InFlight() int64 { return s.inFlight.Load() }

// State reports the lifecycle state: serving, draining, or stopped.
func (s *Server) State() string {
	switch s.state.Load() {
	case stDraining:
		return StateDraining
	case stStopped:
		return StateStopped
	default:
		return StateServing
	}
}

// ---- lifecycle -------------------------------------------------------------

// BeginDrain flips the server to draining: /readyz turns 503 and new
// evaluations are refused, while in-flight ones keep running.
func (s *Server) BeginDrain() {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.state.CompareAndSwap(stServing, stDraining)
}

// Drain runs the graceful-shutdown state machine: stop admitting, wait up
// to Config.DrainTimeout for in-flight evaluations, force-cancel the
// stragglers (workers stop at their next batch boundary), return every
// tenant's carve to the shared Governor, and verify quiescence. Safe to
// call once; returns the result of Quiesced.
func (s *Server) Drain() error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		s.cfg.Logf("serve: drain deadline (%v) passed with %d in flight; force-cancelling",
			s.cfg.DrainTimeout, s.inFlight.Load())
		s.hardCancel()
		<-done // cancellation stops workers at batch boundaries; bounded
	}
	s.closeTenants()
	s.state.Store(stStopped)
	return s.Quiesced()
}

// Quiesced verifies the post-drain invariants: nothing in flight, every
// tenant governor empty, and the shared Governor's carves all returned.
func (s *Server) Quiesced() error {
	if n := s.inFlight.Load(); n != 0 {
		return fmt.Errorf("serve: %d evaluations still in flight", n)
	}
	for _, name := range s.order {
		if in := s.tenants[name].gov.InUse(); in != 0 {
			return fmt.Errorf("serve: tenant %q governor holds %d bytes after drain", name, in)
		}
	}
	if s.state.Load() == stStopped {
		if in := s.global.InUse(); in != 0 {
			return fmt.Errorf("serve: shared governor holds %d bytes after tenant close", in)
		}
		// Byte-clean also means disk-clean: every out-of-core evaluation's
		// spill store must have been removed with its session.
		if open := spill.OpenStores(); open != 0 {
			return fmt.Errorf("serve: %d spill stores still open after drain", open)
		}
	}
	return nil
}

// ---- request plumbing ------------------------------------------------------

// admit takes the global in-flight slot and registers with the drain
// WaitGroup, under the state read-lock so BeginDrain serializes against
// in-progress admissions. The returned release undoes both.
func (s *Server) admit() (release func(), ok bool) {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.state.Load() != stServing {
		return nil, false
	}
	for {
		n := s.inFlight.Load()
		if n >= int64(s.cfg.MaxInFlight) {
			return nil, false
		}
		if s.inFlight.CompareAndSwap(n, n+1) {
			break
		}
	}
	s.wg.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			s.inFlight.Add(-1)
			s.wg.Done()
		})
	}, true
}

// protect panic-isolates a handler: a panic in the serving path (e.g. a
// malformed capture-phase call that panics before evaluation starts)
// becomes a structured 500 instead of a torn connection.
func (s *Server) protect(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.cfg.Logf("serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				writeError(w, http.StatusInternalServerError, errorDetail{
					Origin:  "panic",
					Message: fmt.Sprint(v),
				})
			}
		}()
		h(w, r)
	}
}

// ---- request/response shapes -----------------------------------------------

type evalRequest struct {
	Workload  string `json:"workload"`
	Variant   string `json:"variant,omitempty"`
	Scale     int    `json:"scale,omitempty"`
	Threads   int    `json:"threads,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Session   string `json:"session,omitempty"`
	Tenant    string `json:"tenant,omitempty"` // alternative to X-Mozart-Tenant
	// Degrade opts the request into graceful degradation: when the
	// tenant's byte budget cannot cover it, the evaluation runs out of
	// core (streaming windows, spilled partials) instead of shedding 429.
	Degrade bool `json:"degrade,omitempty"`
}

type evalResponse struct {
	Tenant       string   `json:"tenant"`
	Session      string   `json:"session"`
	Workload     string   `json:"workload"`
	Variant      string   `json:"variant"`
	Checksum     float64  `json:"checksum"`
	ElapsedMS    float64  `json:"elapsed_ms"`
	SessionEvals int64    `json:"session_evals"`
	Mode         string   `json:"mode"`                  // highest pressure level: normal | constrained | out-of-core
	SpillBytes   int64    `json:"spill_bytes,omitempty"` // payload bytes spilled while out of core
	Degraded     []string `json:"degraded,omitempty"`    // open breakers after the run
	TraceID      string   `json:"trace_id"`              // key into /debug/mozart/spans/<id>
}

type errorDetail struct {
	Origin  string `json:"origin,omitempty"` // timeout | canceled | shed | panic | a FaultOrigin
	Stage   int    `json:"stage,omitempty"`
	Call    string `json:"call,omitempty"`
	Message string `json:"message"`
	Flight  string `json:"flight,omitempty"`   // flight-recorder lookup path for post-mortems
	TraceID string `json:"trace_id,omitempty"` // the request's trace: key into /debug/mozart/spans/<id>
}

type errorBody struct {
	Error errorDetail `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, d errorDetail) {
	writeJSON(w, status, errorBody{Error: d})
}

// shed writes the load-shedding response: 429 plus a jittered Retry-After
// in [1, 3] seconds, the "come back, don't queue" contract. The jitter
// desynchronizes retry storms — shedding a burst with a constant delay
// just reschedules the same burst. The body echoes the request's trace id
// so even refused requests stay correlatable.
func (s *Server) shed(w http.ResponseWriter, traceID, msg string) {
	s.rngMu.Lock()
	retry := 1 + s.rng.Intn(3)
	s.rngMu.Unlock()
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusTooManyRequests, errorDetail{Origin: "shed", Message: msg, TraceID: traceID})
}

// statusWriter captures the response status so the request finalizer can
// classify the outcome (SLO good/bad, log line) after the handler ran.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// pressureWatch distills one request's pressure episode from its event
// stream: the highest level entered and the bytes spilled, reported back
// to the client in the response.
type pressureWatch struct {
	mu    sync.Mutex
	level core.PressureLevel
	spill int64
}

func (p *pressureWatch) Emit(e obs.Event) {
	switch e.Kind {
	case obs.EvPressure:
		var l core.PressureLevel
		switch e.Detail {
		case core.PressureConstrained.String():
			l = core.PressureConstrained
		case core.PressureOutOfCore.String():
			l = core.PressureOutOfCore
		}
		p.mu.Lock()
		if l > p.level {
			p.level = l
		}
		p.mu.Unlock()
	case obs.EvSpill:
		if e.Detail == "append" {
			p.mu.Lock()
			p.spill += e.Bytes
			p.mu.Unlock()
		}
	}
}

// snapshot returns the episode's peak level and spilled bytes.
func (p *pressureWatch) snapshot() (core.PressureLevel, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.level, p.spill
}

// ---- handlers --------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up, even while draining.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	state := s.State()
	status := http.StatusOK
	if state != StateServing {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"state":     state,
		"in_flight": s.inFlight.Load(),
	})
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	out := make([]TenantStatus, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.tenants[name].status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFlightIndex(w http.ResponseWriter, r *http.Request) {
	names := append([]string(nil), s.order...)
	sort.Strings(names)
	links := make([]string, len(names))
	for i, n := range names {
		links[i] = "/debug/mozart/flight/" + n
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": links})
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	// Trace identity first, before any outcome is possible: parse the
	// caller's W3C traceparent or mint one, so every response — success,
	// shed, refused, failed — carries the trace id in header and body, and
	// every request leaves a span tree in the ring.
	tc, hadTraceparent := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !hadTraceparent {
		tc = obs.NewTraceContext()
	}
	rec := obs.NewSpanRecorder(tc, "POST /v1/eval")
	traceID := tc.TraceID.String()
	sw := &statusWriter{ResponseWriter: w}
	w = sw
	w.Header().Set("traceparent", rec.Context().Traceparent())

	var (
		req        evalRequest
		tenant     *Tenant
		tenantName string
		evalErr    string // the evaluation error, for the root span
	)
	watch := &pressureWatch{}
	start := time.Now()
	defer func() {
		latency := time.Since(start)
		status := sw.status()
		outcome := outcomeForStatus(status)
		level, _ := watch.snapshot()
		rec.Annotate("tenant", tenantName)
		rec.Annotate("outcome", outcome)
		rec.AnnotateInt("http.status_code", int64(status))
		s.spans.Add(rec.Finish(evalErr))
		if tenant != nil {
			if good, counted := tenant.slo.classify(status, latency); counted {
				tenant.slo.record(time.Now(), good, latency, traceID)
			}
		}
		s.logRequest(traceID, tenantName, req, level.String(), status, outcome, latency)
	}()

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, errorDetail{Message: "POST only", TraceID: traceID})
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, errorDetail{Message: "bad request body: " + err.Error(), TraceID: traceID})
		return
	}
	tenantName = r.Header.Get("X-Mozart-Tenant")
	if tenantName == "" {
		tenantName = req.Tenant
	}
	if tenantName == "" && len(s.order) == 1 {
		tenantName = s.order[0]
	}
	t := s.tenants[tenantName]
	if t == nil {
		writeError(w, http.StatusNotFound, errorDetail{Message: fmt.Sprintf("unknown tenant %q", tenantName), TraceID: traceID})
		return
	}
	tenant = t
	rec.Annotate("workload", req.Workload)
	rec.Annotate("variant", variantOrDefault(req.Variant))
	registry := t.registry
	if registry == nil {
		registry = s.cfg.Registry
	}
	fn := registry[req.Workload]
	if fn == nil {
		writeError(w, http.StatusNotFound, errorDetail{Message: fmt.Sprintf("unknown workload %q", req.Workload), TraceID: traceID})
		return
	}

	// Defaults and clamps before any admission math, so the byte estimate
	// prices the run the evaluation will actually do.
	if req.Scale <= 0 {
		req.Scale = s.cfg.DefaultScale
	}
	if req.Threads <= 0 {
		req.Threads = 2
	}
	if req.Threads > s.cfg.MaxWorkers {
		req.Threads = s.cfg.MaxWorkers
	}

	// Admission. Order: global cap, tenant cap, tenant byte reservation.
	// Every refusal is an immediate 429 — the server never queues requests.
	releaseGlobal, ok := s.admit()
	if !ok {
		if s.State() != StateServing {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, errorDetail{Origin: "draining", Message: "server is draining", TraceID: traceID})
			return
		}
		t.shed.Add(1)
		s.shed(w, traceID, fmt.Sprintf("global in-flight cap (%d) exhausted", s.cfg.MaxInFlight))
		return
	}
	defer releaseGlobal()
	if !t.acquire() {
		t.shed.Add(1)
		s.shed(w, traceID, fmt.Sprintf("tenant %q in-flight cap (%d) exhausted", tenantName, t.maxInFlight))
		return
	}
	defer t.release()
	demand := estimateRequestBytes(req.Scale)
	releaseHold, ok := t.gov.TryAdmit(t.requestHold(demand))
	if !ok {
		if !req.Degrade {
			t.shed.Add(1)
			s.shed(w, traceID, fmt.Sprintf("tenant %q memory budget exhausted (%d of %d bytes in use, request models %d)",
				tenantName, t.gov.InUse(), t.gov.Budget(), demand))
			return
		}
		// Degradation preferred over 429: run without a request-level hold.
		// An out-of-core stage admits window by window against the tenant
		// governor, so actual reservations stay bounded by the budget even
		// though the nominal demand did not fit.
		releaseHold = func() {}
		t.degraded.Add(1)
	}
	defer releaseHold()

	// Deadline: client ask, clamped by the server, rooted in the request
	// context so client disconnects cancel partial work; forced drain
	// cancels it too.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	stopHard := context.AfterFunc(s.hardCtx, cancel)
	defer stopHard()

	// Tenant-scoped session options: the per-request flight handle, the
	// tenant metrics and breaker group, the server-wide sinks, and the
	// request's span recorder — one event stream, fanned out to all of
	// them. The Trace stamp keys the shared sinks' retained state (latency
	// exemplars, flight recordings) by this request's trace id.
	evalTC := rec.Context()
	flight := t.recorder.Session()
	opts := core.Options{
		Workers:        req.Threads,
		Governor:       t.gov,
		Breakers:       t.breakers,
		FallbackPolicy: s.cfg.Fallback,
		RetryPolicy:    s.cfg.Retry,
		OutOfCore:      req.Degrade,
		SpillDir:       s.cfg.SpillDir,
		Trace:          &evalTC,
		Tracer:         obs.Multi(s.metrics, t.metrics, flight, watch, rec),
		OnPlan: func(p *plan.Plan) {
			s.plans.OnPlan(p)
			flight.OnPlan(p)
		},
		BaseContext: func() context.Context { return ctx },
	}
	if t.tuner != nil {
		// The tenant's warm tuner: a typed-nil guard matters here — leaving
		// the field unset for untuned tenants keeps their sessions on the
		// exact static path (no EvTune telemetry, no signature hashing).
		opts.Tuner = t.tuner
	}
	p := EvalParams{
		Workload: req.Workload,
		Variant:  req.Variant,
		Scale:    req.Scale,
		Threads:  req.Threads,
		Session:  req.Session,
	}
	evalStart := time.Now()
	checksum, err := fn(ctx, p, opts)
	elapsed := time.Since(evalStart)
	evals := t.touchSession(req.Session, err)
	if err != nil {
		evalErr = err.Error()
		s.writeEvalError(w, r, t, tenantName, traceID, err)
		return
	}
	t.served.Add(1)
	mode, spilled := watch.snapshot()
	writeJSON(w, http.StatusOK, evalResponse{
		Tenant:       tenantName,
		Session:      sessionKeyOrDefault(req.Session),
		Workload:     req.Workload,
		Variant:      variantOrDefault(req.Variant),
		Checksum:     checksum,
		ElapsedMS:    float64(elapsed.Microseconds()) / 1e3,
		SessionEvals: evals,
		Mode:         mode.String(),
		SpillBytes:   spilled,
		Degraded:     t.breakers.OpenNames(),
		TraceID:      traceID,
	})
}

// outcomeForStatus folds an HTTP status into the outcome vocabulary used
// by the request log and the root span.
func outcomeForStatus(status int) string {
	switch {
	case status == http.StatusOK:
		return "ok"
	case status == http.StatusTooManyRequests:
		return "shed"
	case status == http.StatusServiceUnavailable:
		return "draining"
	case status == http.StatusGatewayTimeout:
		return "timeout"
	case status == statusClientClosedRequest:
		return "canceled"
	case status >= 500:
		return "failed"
	default:
		return "rejected"
	}
}

// logRequest emits the one structured summary line per /v1/eval request
// (Config.Logger; nil logs nothing). Level tracks severity: 2xx info,
// client-side refusals warn, server faults error.
func (s *Server) logRequest(traceID, tenant string, req evalRequest, mode string, status int, outcome string, latency time.Duration) {
	if s.cfg.Logger == nil {
		return
	}
	lvl := slog.LevelInfo
	switch {
	case status >= 500:
		lvl = slog.LevelError
	case status != http.StatusOK:
		lvl = slog.LevelWarn
	}
	s.cfg.Logger.LogAttrs(context.Background(), lvl, "eval",
		slog.String("trace_id", traceID),
		slog.String("tenant", tenant),
		slog.String("workload", req.Workload),
		slog.String("variant", variantOrDefault(req.Variant)),
		slog.Int("scale", req.Scale),
		slog.String("mode", mode),
		slog.Int("status", status),
		slog.String("outcome", outcome),
		slog.Duration("latency", latency),
	)
}

func sessionKeyOrDefault(k string) string {
	if k == "" {
		return "default"
	}
	return k
}

func variantOrDefault(v string) string {
	if v == "" {
		return "mozart"
	}
	return v
}

// writeEvalError maps an evaluation failure onto the wire: deadline → 504,
// client disconnect / forced drain → 499, StageError → structured 500 with
// a flight-recorder reference, anything else → plain 500. Every body
// carries the trace id, and the flight reference is keyed by it, so the
// error, the flight recording, and the span tree all resolve to the same
// request.
func (s *Server) writeEvalError(w http.ResponseWriter, r *http.Request, t *Tenant, tenantName, traceID string, err error) {
	flightRef := "/debug/mozart/flight/" + tenantName + "?trace=" + traceID
	var st *core.StageError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		t.timedOut.Add(1)
		d := errorDetail{Origin: "timeout", Message: err.Error(), Flight: flightRef, TraceID: traceID}
		if errors.As(err, &st) {
			d.Stage, d.Call = st.Stage, st.Call
		}
		writeError(w, http.StatusGatewayTimeout, d)
	case errors.Is(err, context.Canceled):
		t.failed.Add(1)
		// Either the client went away or the drain deadline force-
		// cancelled us; the status is best-effort in the former case.
		writeError(w, statusClientClosedRequest, errorDetail{Origin: "canceled", Message: err.Error(), Flight: flightRef, TraceID: traceID})
	case errors.As(err, &st):
		t.failed.Add(1)
		writeError(w, http.StatusInternalServerError, errorDetail{
			Origin:  st.Origin.String(),
			Stage:   st.Stage,
			Call:    st.Call,
			Message: err.Error(),
			Flight:  flightRef,
			TraceID: traceID,
		})
	default:
		t.failed.Add(1)
		writeError(w, http.StatusInternalServerError, errorDetail{Message: err.Error(), Flight: flightRef, TraceID: traceID})
	}
}

// estimateRequestBytes is the nominal demand model priced at admission:
// scale elements flowing through a pipeline touches an input and an output
// array of float64s (the same first-order shape as the §5.2 working-set
// model; stage admission later charges the precise per-stage footprint).
// It saturates instead of wrapping: a scale past 2^59 would otherwise price
// at or below zero, which TryAdmit admits without a reservation.
func estimateRequestBytes(scale int) int64 {
	const perElem = 8 * 2
	if int64(scale) > math.MaxInt64/perElem {
		return math.MaxInt64
	}
	return int64(scale) * perElem
}

// RetryAfter parses a response's Retry-After seconds (helper for load
// drivers; 0 when absent or malformed).
func RetryAfter(h http.Header) int {
	n, _ := strconv.Atoi(h.Get("Retry-After"))
	return n
}
