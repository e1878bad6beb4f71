package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mozart/internal/core"
	"mozart/internal/obs"
	"mozart/internal/tune"
)

// TenantConfig declares one tenant at server construction.
type TenantConfig struct {
	// Name keys the tenant; requests select it with the X-Mozart-Tenant
	// header (or the "tenant" request field).
	Name string
	// BudgetBytes is the tenant's memory budget. It is carved out of the
	// server's shared Governor at registration — the sum of all tenant
	// budgets must fit under Config.GlobalBudgetBytes — and gates both
	// request admission (shed with 429 when exhausted) and the §5.2
	// stage-level working set of the tenant's evaluations.
	BudgetBytes int64
	// MaxInFlight caps the tenant's concurrent evaluations. Defaults to 4.
	MaxInFlight int
	// Registry, when non-nil, overrides the server's workload registry
	// for this tenant (used by tests to give tenants different — e.g.
	// fault-injected — implementations of the same workload name).
	Registry map[string]EvalFunc
	// FlightDepth is how many evaluations the tenant's flight recorder
	// retains (<= 0 selects 8).
	FlightDepth int
	// SLO, when non-nil, overrides the server-wide Config.SLO objectives
	// for this tenant.
	SLO *SLOConfig
}

// Tenant is the per-tenant slice of the server: a memory budget carved
// from the shared Governor, its own circuit-breaker group, metrics sink,
// and flight recorder — so one tenant's faulting annotation, budget
// pressure, or post-mortem traffic cannot poison another's — plus the
// session ledger that keeps state warm across requests.
type Tenant struct {
	name        string
	budget      int64
	maxInFlight int64
	gov         *core.Governor
	carve       func() // returns the budget to the shared Governor
	breakers    *core.BreakerGroup
	metrics     *obs.Metrics
	recorder    *obs.FlightRecorder
	registry    map[string]EvalFunc
	// tuner is the tenant's calibrating BatchSource (Config.Tune). It lives
	// in the warm ledger — per-signature calibration state accumulates
	// across requests even though each request builds a fresh core.Session
	// — and is scoped per tenant so one tenant's traffic never perturbs
	// another's batch choices. Nil when tuning is off.
	tuner *tune.Tuner
	// slo classifies every finished request against the tenant's latency
	// and availability objectives and derives the multi-window burn rates
	// surfaced on /metrics and /v1/tenants. Always non-nil.
	slo *sloTracker

	inFlight atomic.Int64
	served   atomic.Int64 // 200s
	shed     atomic.Int64 // 429s
	timedOut atomic.Int64 // 504s
	failed   atomic.Int64 // 5xx evaluation failures
	degraded atomic.Int64 // requests run out-of-core instead of shedding

	mu       sync.Mutex
	sessions map[string]*sessionState
}

// sessionState is the warm per-(tenant, session-key) ledger: evaluation
// counts and liveness survive across requests even though each request
// builds a fresh core.Session (the breaker group and governor carry the
// heavyweight warm state).
type sessionState struct {
	evals    int64
	lastUsed time.Time
}

// maxSessions caps a tenant's session ledger. The keys are the clients'
// own, so a request naming a new key when the ledger is full evicts the
// least recently used one rather than grow the server without bound.
const maxSessions = 4096

func newTenant(tc TenantConfig, global *core.Governor, pol core.BreakerPolicy, tuneCfg *tune.Config, slo SLOConfig) (*Tenant, error) {
	if tc.Name == "" {
		return nil, fmt.Errorf("serve: tenant with empty name")
	}
	if tc.BudgetBytes <= 0 {
		return nil, fmt.Errorf("serve: tenant %q: budget must be positive, got %d", tc.Name, tc.BudgetBytes)
	}
	carve, ok := global.TryAdmit(tc.BudgetBytes)
	if !ok {
		return nil, fmt.Errorf("serve: tenant %q: budget %d does not fit in the shared governor (available %d of %d)",
			tc.Name, tc.BudgetBytes, global.Available(), global.Budget())
	}
	maxInFlight := tc.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 4
	}
	t := &Tenant{
		name:        tc.Name,
		budget:      tc.BudgetBytes,
		maxInFlight: int64(maxInFlight),
		gov:         core.NewGovernor(tc.BudgetBytes),
		carve:       carve,
		breakers:    core.NewBreakerGroup(pol),
		metrics:     obs.NewMetrics(),
		recorder:    obs.NewFlightRecorder(tc.FlightDepth),
		registry:    tc.Registry,
		sessions:    map[string]*sessionState{},
	}
	if tuneCfg != nil {
		t.tuner = tune.New(*tuneCfg)
	}
	if tc.SLO != nil {
		slo = *tc.SLO
	}
	t.slo = newSLOTracker(slo)
	return t, nil
}

// close returns the tenant's carved budget to the shared Governor. Called
// only once all in-flight evaluations have drained.
func (t *Tenant) close() { t.carve() }

// Governor returns the tenant's stage-admission governor (its carved
// budget).
func (t *Tenant) Governor() *core.Governor { return t.gov }

// Breakers returns the tenant's circuit-breaker group.
func (t *Tenant) Breakers() *core.BreakerGroup { return t.breakers }

// Metrics returns the tenant's metrics sink.
func (t *Tenant) Metrics() *obs.Metrics { return t.metrics }

// Recorder returns the tenant's flight recorder.
func (t *Tenant) Recorder() *obs.FlightRecorder { return t.recorder }

// Tuner returns the tenant's calibrating BatchSource (nil when Config.Tune
// is off).
func (t *Tenant) Tuner() *tune.Tuner { return t.tuner }

// InFlight returns the tenant's currently-running evaluation count.
func (t *Tenant) InFlight() int64 { return t.inFlight.Load() }

// Shed returns how many of the tenant's requests were load-shed (429).
func (t *Tenant) Shed() int64 { return t.shed.Load() }

// DegradedRuns returns how many of the tenant's requests opted into
// out-of-core degradation and ran without a request-level hold after their
// modeled demand was refused.
func (t *Tenant) DegradedRuns() int64 { return t.degraded.Load() }

// acquire claims one of the tenant's in-flight slots; refusal means the
// request must shed, never queue.
func (t *Tenant) acquire() bool {
	for {
		n := t.inFlight.Load()
		if n >= t.maxInFlight {
			return false
		}
		if t.inFlight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (t *Tenant) release() { t.inFlight.Add(-1) }

// requestHold computes the per-request byte reservation taken on the
// tenant governor while a request runs. The raw demand (the request's
// modeled arrays) is capped at budget/(2*maxInFlight): with at most
// maxInFlight concurrent holds the reservations can never claim more than
// half the budget, so stage-level admissions — which shrink toward
// whatever is available — always have headroom and can never deadlock
// against the holds. A demand larger than the whole budget is NOT capped;
// TryAdmit refuses it outright and the request sheds (it could never
// run within this tenant's carve).
func (t *Tenant) requestHold(demandBytes int64) int64 {
	cap := t.budget / (2 * t.maxInFlight)
	if cap < 1 {
		cap = 1
	}
	if demandBytes > t.budget {
		return demandBytes // TryAdmit will refuse: deterministic shed
	}
	if demandBytes > cap {
		return cap
	}
	return demandBytes
}

// touchSession counts one evaluation under the session key and returns the
// key's count so far.
func (t *Tenant) touchSession(key string) (evals int64) {
	if key == "" {
		key = "default"
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	ss := t.sessions[key]
	if ss == nil {
		if len(t.sessions) >= maxSessions {
			t.evictSession()
		}
		ss = &sessionState{}
		t.sessions[key] = ss
	}
	ss.evals++
	ss.lastUsed = now
	return ss.evals
}

// evictSession drops the least recently used key from the ledger. t.mu is
// held.
func (t *Tenant) evictSession() {
	var oldest string
	var at time.Time
	for k, ss := range t.sessions {
		if oldest == "" || ss.lastUsed.Before(at) {
			oldest, at = k, ss.lastUsed
		}
	}
	delete(t.sessions, oldest)
}

// Status returns a snapshot of the tenant's counters and budget use (the
// same shape GET /v1/tenants serves).
func (t *Tenant) Status() TenantStatus { return t.status() }

// TenantStatus is the JSON shape of one row of GET /v1/tenants.
type TenantStatus struct {
	Name           string   `json:"name"`
	BudgetBytes    int64    `json:"budget_bytes"`
	InUseBytes     int64    `json:"in_use_bytes"`
	HighWaterBytes int64    `json:"high_water_bytes"`
	InFlight       int64    `json:"in_flight"`
	MaxInFlight    int64    `json:"max_in_flight"`
	Served         int64    `json:"served"`
	Shed           int64    `json:"shed"`
	DegradedRuns   int64    `json:"degraded_runs"`
	TimedOut       int64    `json:"timed_out"`
	Failed         int64    `json:"failed"`
	BreakerTrips   int64    `json:"breaker_trips"`
	OpenBreakers   []string `json:"open_breakers,omitempty"`
	Sessions       int      `json:"sessions"`
	// Tuner counters (zero / absent when Config.Tune is off): how many
	// structural plan signatures the tenant's tuner tracks, and how many
	// of them are currently pinned to a calibrated batch.
	TunerSignatures int `json:"tuner_signatures,omitempty"`
	TunerCalibrated int `json:"tuner_calibrated,omitempty"`
	// SLO fields: the tenant's objectives, the cumulative good/bad
	// classification counts, the 5m/1h burn rates at snapshot time, and
	// the slowest counted request in the last hour with its trace id (the
	// direct link from a burn-rate alert to one request's span tree under
	// /debug/mozart/spans/<trace-id>).
	SLOLatencyObjectiveMS float64 `json:"slo_latency_objective_ms"`
	SLOAvailability       float64 `json:"slo_availability"`
	SLOGood               int64   `json:"slo_good"`
	SLOBad                int64   `json:"slo_bad"`
	SLOBurnRate5m         float64 `json:"slo_burn_rate_5m"`
	SLOBurnRate1h         float64 `json:"slo_burn_rate_1h"`
	SLOWorstLatencyMS     float64 `json:"slo_worst_latency_ms,omitempty"`
	SLOWorstTrace         string  `json:"slo_worst_trace,omitempty"`
}

func (t *Tenant) status() TenantStatus {
	t.mu.Lock()
	nsess := len(t.sessions)
	t.mu.Unlock()
	var nsigs, ncal int
	for _, ss := range t.tuner.States() {
		nsigs++
		if ss.Phase == tune.PhaseCalibrated {
			ncal++
		}
	}
	now := time.Now()
	sloGood, sloBad := t.slo.totals()
	_, _, worstNS, worstTrace := t.slo.window(now, time.Hour)
	return TenantStatus{
		Name:           t.name,
		BudgetBytes:    t.budget,
		InUseBytes:     t.gov.InUse(),
		HighWaterBytes: t.gov.HighWater(),
		InFlight:       t.inFlight.Load(),
		MaxInFlight:    t.maxInFlight,
		Served:         t.served.Load(),
		Shed:           t.shed.Load(),
		DegradedRuns:   t.degraded.Load(),
		TimedOut:       t.timedOut.Load(),
		Failed:         t.failed.Load(),
		BreakerTrips:   t.breakers.Trips(),
		OpenBreakers:   t.breakers.OpenNames(),
		Sessions:       nsess,

		TunerSignatures: nsigs,
		TunerCalibrated: ncal,

		SLOLatencyObjectiveMS: float64(t.slo.cfg.LatencyObjective.Microseconds()) / 1e3,
		SLOAvailability:       t.slo.cfg.Availability,
		SLOGood:               sloGood,
		SLOBad:                sloBad,
		SLOBurnRate5m:         t.slo.burnRate(now, 5*time.Minute),
		SLOBurnRate1h:         t.slo.burnRate(now, time.Hour),
		SLOWorstLatencyMS:     float64(worstNS) / 1e6,
		SLOWorstTrace:         worstTrace,
	}
}

// SLO returns the tenant's resolved objectives.
func (t *Tenant) SLO() SLOConfig { return t.slo.cfg }
