// Package tune closes the telemetry→plan loop: a Tuner is a
// plan.Calibrator that caches calibration state per structural plan
// signature (plan.Signature) and folds measured evaluation throughput back
// into the next evaluation's batch size and worker count.
//
// Per signature, the Tuner runs a four-phase state machine:
//
//		static ──baseline measured──▶ sweeping ──converged──▶ calibrated
//		                                  │                        │
//		                                  └──no win over static────┴──>10% drop──▶ reverted
//
//	  - static: the session's policy runs untouched while the Tuner records a
//	    baseline throughput.
//	  - sweeping: a golden-section search over a powers-of-two batch grid
//	    (the paper's Fig. 6 ablation as an online loop). Each evaluation runs
//	    one probe batch; Observe records its throughput and advances the
//	    interval. The search converges within Config.Budget evaluations.
//	  - calibrated: the best probe won over the static baseline by at least
//	    the hysteresis margin and is now pinned. Throughput stays monitored;
//	    two consecutive observations more than Config.RegressionGuard below
//	    the sweep's best revert the signature to static for good.
//	  - reverted: the static policy, permanently (no re-sweeping churn).
//
// Determinism: the Tuner takes an injectable clock and a seed (the seed
// picks the first golden probe), and its zero value is inert — PlanBatch
// returns the zero decision and Observe is a no-op, reproducing the static
// planner byte for byte. Only New enables calibration.
//
// A single Tuner is safe for concurrent use by many sessions (the serve
// layer keeps one per tenant); probe observations carry the batch they ran
// with, so interleaved evaluations of the same signature cannot corrupt
// the sweep — a stale probe result is simply discarded.
package tune

import (
	"math"
	"sort"
	"sync"
	"time"

	"mozart/internal/plan"
)

// Config parameterizes a Tuner. The zero value of every field selects a
// sensible default.
type Config struct {
	// Clock stamps state transitions; nil means time.Now.
	Clock func() time.Time
	// Seed makes tie-breaks deterministic: it chooses which golden-section
	// interior point is probed first.
	Seed int64
	// MinBatch and MaxBatch bound the sweep grid (powers of two from
	// MinBatch up to MaxBatch). Defaults: 512 and 4Mi elements, spanning
	// the paper's Fig. 6 ablation.
	MinBatch int64
	MaxBatch int64
	// Budget caps sweep probes per signature; exhausting it ends the sweep
	// at the best batch measured so far. Default 12.
	Budget int
	// BaselineEvals is how many static evaluations are measured before the
	// sweep starts. Default 1.
	BaselineEvals int
	// Hysteresis is the margin the sweep's best must beat the static
	// baseline by to be adopted (0.05 = 5%). Default 0.05.
	Hysteresis float64
	// RegressionGuard reverts a calibrated signature to static when
	// measured throughput drops below best×(1−RegressionGuard) twice in a
	// row. Default 0.10.
	RegressionGuard float64
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.MinBatch <= 0 {
		c.MinBatch = 512
	}
	if c.MaxBatch < c.MinBatch {
		c.MaxBatch = 4 << 20
	}
	if c.Budget <= 0 {
		c.Budget = 12
	}
	if c.BaselineEvals <= 0 {
		c.BaselineEvals = 1
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 0.05
	}
	if c.RegressionGuard <= 0 {
		c.RegressionGuard = 0.10
	}
	return c
}

// Phase is a signature's position in the state machine.
type Phase int

const (
	PhaseStatic Phase = iota
	PhaseSweeping
	PhaseCalibrated
	PhaseReverted
)

func (p Phase) String() string {
	switch p {
	case PhaseSweeping:
		return "sweeping"
	case PhaseCalibrated:
		return "calibrated"
	case PhaseReverted:
		return "reverted"
	default:
		return "static"
	}
}

// sigState is one structural plan signature's calibration state. All
// access is under Tuner.mu.
type sigState struct {
	phase Phase
	since time.Time

	// baseline is the measured static-policy throughput (elems/s).
	baseline  float64
	baselineN int

	// sweep state: grid is the candidate batch ladder, memo the measured
	// throughput per grid index, [lo,hi] the live golden-section interval,
	// pending the index the next evaluation probes.
	grid    []int64
	memo    map[int]float64
	lo, hi  int
	pending int
	evals   int

	// calibrated state.
	best    int     // grid index
	bestThr float64 // throughput the sweep measured at best
	badRuns int     // consecutive regression-guard violations
}

// Tuner is a calibrating plan.BatchSource. The zero value is inert (static
// behavior everywhere); use New to enable calibration.
type Tuner struct {
	mu      sync.Mutex
	enabled bool
	cfg     Config
	sigs    map[string]*sigState
}

// New returns an enabled Tuner.
func New(cfg Config) *Tuner {
	return &Tuner{enabled: true, cfg: cfg.withDefaults(), sigs: map[string]*sigState{}}
}

var _ plan.Calibrator = (*Tuner)(nil)

// PlanBatch answers the planner. It is read-only with respect to sweep
// state (a peek via Session.Plan or Explain returns the same decision the
// next evaluation will run) and never creates state for a signature it has
// not observed.
func (t *Tuner) PlanBatch(req plan.BatchRequest) plan.BatchDecision {
	if t == nil || !t.enabled {
		return plan.BatchDecision{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.sigs[req.Signature]
	if st == nil {
		return plan.BatchDecision{}
	}
	switch st.phase {
	case PhaseSweeping:
		return plan.BatchDecision{
			BatchElems: st.grid[st.pending],
			Workers:    workersFor(req, st.grid[st.pending]),
			Provenance: plan.BatchSweeping,
		}
	case PhaseCalibrated:
		return plan.BatchDecision{
			BatchElems: st.grid[st.best],
			Workers:    workersFor(req, st.grid[st.best]),
			Provenance: plan.BatchCalibrated,
		}
	default: // static, reverted
		return plan.BatchDecision{}
	}
}

// workersFor folds the batch decision into the worker count: scheduling
// more workers than there are batches only adds spawn and merge overhead,
// so the override is min(configured, ⌈elems/batch⌉). 0 means "no override".
func workersFor(req plan.BatchRequest, batch int64) int {
	if req.Elems <= 0 || batch <= 0 || req.Workers <= 1 {
		return 0
	}
	batches := (req.Elems + batch - 1) / batch
	if batches < 1 {
		batches = 1
	}
	if batches < int64(req.Workers) {
		return int(batches)
	}
	return 0
}

// Observe feeds one evaluation's measured actuals back. This is the only
// way state advances.
func (t *Tuner) Observe(o plan.Observation) {
	if t == nil || !t.enabled {
		return
	}
	thr := o.Throughput()
	if thr <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.sigs[o.Signature]
	if st == nil {
		st = &sigState{phase: PhaseStatic, since: t.cfg.Clock()}
		t.sigs[o.Signature] = st
	}
	switch st.phase {
	case PhaseStatic:
		if o.BatchElems != 0 {
			return // stale probe from a pre-revert interleaving
		}
		st.baseline = fold(st.baseline, thr, st.baselineN)
		st.baselineN++
		if st.baselineN >= t.cfg.BaselineEvals {
			t.startSweep(st, o)
		}
	case PhaseSweeping:
		if o.BatchElems == 0 {
			// A concurrent session planned before the sweep started;
			// fold its static measurement into the baseline.
			st.baseline = fold(st.baseline, thr, st.baselineN)
			st.baselineN++
			return
		}
		if o.BatchElems != st.grid[st.pending] {
			return // stale probe; discard
		}
		st.memo[st.pending] = math.Max(st.memo[st.pending], thr)
		st.evals++
		t.advance(st)
	case PhaseCalibrated:
		if o.BatchElems != st.grid[st.best] {
			return
		}
		if thr < st.bestThr*(1-t.cfg.RegressionGuard) {
			st.badRuns++
			if st.badRuns >= 2 {
				st.phase = PhaseReverted
				st.since = t.cfg.Clock()
			}
			return
		}
		st.badRuns = 0
	case PhaseReverted:
		// Terminal: no re-sweeping churn.
	}
}

// fold is the running mean used for baseline estimates.
func fold(mean, x float64, n int) float64 {
	return (mean*float64(n) + x) / float64(n+1)
}

// startSweep builds the probe grid (powers of two in [MinBatch, MaxBatch],
// capped one rung above the observed element count — probing batches far
// larger than the data just re-measures "one batch") and opens the
// golden-section interval.
func (t *Tuner) startSweep(st *sigState, o plan.Observation) {
	for b := t.cfg.MinBatch; b <= t.cfg.MaxBatch; b *= 2 {
		st.grid = append(st.grid, b)
		if o.Elems > 0 && b >= o.Elems {
			break
		}
	}
	if len(st.grid) < 2 {
		// Nothing to search over; stay static.
		st.phase = PhaseReverted
		st.since = t.cfg.Clock()
		return
	}
	st.memo = map[int]float64{}
	st.lo, st.hi = 0, len(st.grid)-1
	st.phase = PhaseSweeping
	st.since = t.cfg.Clock()
	c, d := interior(st.lo, st.hi)
	if t.cfg.Seed&1 == 1 {
		st.pending = d
	} else {
		st.pending = c
	}
}

const invphi = 0.6180339887498949

// interior places the two golden-section probe points inside [lo, hi] on
// the discrete index grid, nudging apart on rounding collisions.
func interior(lo, hi int) (c, d int) {
	span := float64(hi - lo)
	c = lo + int(math.Round((1-invphi)*span))
	d = lo + int(math.Round(invphi*span))
	if c == d {
		if d < hi {
			d++
		} else if c > lo {
			c--
		}
	}
	return c, d
}

// advance shrinks the golden-section interval using everything measured so
// far and either schedules the next probe or finishes the sweep.
// Memoization makes re-visited interior points free, so the loop keeps
// shrinking until it needs a measurement it does not have.
func (t *Tuner) advance(st *sigState) {
	for {
		if st.evals >= t.cfg.Budget || st.hi-st.lo <= 1 {
			t.finishSweep(st)
			return
		}
		c, d := interior(st.lo, st.hi)
		fc, okc := st.memo[c]
		if !okc {
			st.pending = c
			return
		}
		fd, okd := st.memo[d]
		if !okd {
			st.pending = d
			return
		}
		// Maximizing: if the lower interior point is at least as good, the
		// peak cannot be above d; otherwise it cannot be below c. On a
		// discrete grid the collision-nudged probes can pin an endpoint
		// (d == hi on a span-2 interval); no shrinkage means converged.
		oldLo, oldHi := st.lo, st.hi
		if fc >= fd {
			st.hi = d
		} else {
			st.lo = c
		}
		if st.lo == oldLo && st.hi == oldHi {
			t.finishSweep(st)
			return
		}
	}
}

// finishSweep picks the best measured batch (ties to the smaller batch —
// less memory for equal throughput) and applies the hysteresis gate.
func (t *Tuner) finishSweep(st *sigState) {
	best, bestThr := -1, 0.0
	idxs := make([]int, 0, len(st.memo))
	for i := range st.memo {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		if st.memo[i] > bestThr {
			best, bestThr = i, st.memo[i]
		}
	}
	if best < 0 || bestThr <= st.baseline*(1+t.cfg.Hysteresis) {
		st.phase = PhaseReverted
		st.since = t.cfg.Clock()
		return
	}
	st.best, st.bestThr = best, bestThr
	st.badRuns = 0
	st.phase = PhaseCalibrated
	st.since = t.cfg.Clock()
}

// SignatureState is one signature's calibration state, for telemetry and
// debugging.
type SignatureState struct {
	Signature      string
	Phase          Phase
	SweepEvals     int
	Baseline       float64 // measured static throughput, elems/s
	BestBatch      int64   // 0 until calibrated
	BestThroughput float64 // 0 until calibrated
	Since          time.Time
}

// States snapshots every signature's state, sorted by signature.
func (t *Tuner) States() []SignatureState {
	if t == nil || !t.enabled {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SignatureState, 0, len(t.sigs))
	for sig, st := range t.sigs {
		ss := SignatureState{
			Signature:  sig,
			Phase:      st.phase,
			SweepEvals: st.evals,
			Baseline:   st.baseline,
			Since:      st.since,
		}
		if st.phase == PhaseCalibrated {
			ss.BestBatch = st.grid[st.best]
			ss.BestThroughput = st.bestThr
		}
		out = append(out, ss)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Signature < out[j].Signature })
	return out
}
