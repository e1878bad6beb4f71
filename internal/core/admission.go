package core

import (
	"context"
	"sync"
	"time"

	"mozart/internal/obs"
)

// PressureLevel is the Governor's graceful-degradation ladder. Memory
// pressure is a mode change, not a failure: Normal stages run with the
// heuristic batch and full parallelism; Constrained stages shrank their
// batch or shed workers to fit the remaining budget; OutOfCore stages could
// not fit their §5.2 working set at all and execute in windows admitted one
// at a time (see Options.OutOfCore), spilling each window's outputs to disk
// when their splitter has a PieceCodec.
type PressureLevel int32

// The pressure ladder, in escalation order.
const (
	PressureNormal PressureLevel = iota
	PressureConstrained
	PressureOutOfCore
)

// String returns the level's stable lowercase name (the Detail of pressure
// events and the level label of the Prometheus transition counter).
func (l PressureLevel) String() string {
	switch l {
	case PressureConstrained:
		return "constrained"
	case PressureOutOfCore:
		return "out-of-core"
	}
	return "normal"
}

// Governor is a memory-budget admission controller: a weighted semaphore
// keyed on modeled bytes. Each stage's footprint is the §5.2 batching model
// — workers × batch × Σ elemBytes, the working set the batch heuristic sizes
// against the L2 cache — and a stage only starts once that footprint fits
// under the budget. A Governor can be shared by any number of sessions
// (Options.Governor) to bound the process-wide working set of concurrent
// Evaluates, or held by one session alone for a private budget.
type Governor struct {
	mu        sync.Mutex
	cond      *sync.Cond
	budget    int64
	inUse     int64
	highWater int64
	waits     int64

	// Pressure-ladder telemetry: the current level (last stage admission
	// wins under sharing), the highest level ever reached, and how many
	// times the level changed.
	level       PressureLevel
	maxLevel    PressureLevel
	transitions int64
}

// NewGovernor creates a governor with the given byte budget. A budget of
// zero or less admits everything (the governor is inert).
func NewGovernor(budgetBytes int64) *Governor {
	g := &Governor{budget: budgetBytes}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Budget returns the configured byte budget.
func (g *Governor) Budget() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.budget
}

// InUse returns the bytes currently admitted.
func (g *Governor) InUse() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inUse
}

// Available returns the bytes not currently admitted.
func (g *Governor) Available() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.budget - g.inUse
}

// HighWater returns the maximum bytes ever admitted at once — by
// construction never above the budget, which is what the budget guarantee
// tests probe.
func (g *Governor) HighWater() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.highWater
}

// Waits returns how many admissions had to block for capacity.
func (g *Governor) Waits() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waits
}

// SetBudget changes the byte budget at runtime and wakes every waiter so
// blocked admissions re-evaluate (and re-clamp) against the new budget.
// Shrinking below the current inUse does not evict admitted stages — they
// finish and release — but new admissions see the squeeze immediately.
// This is the seam the faultinject budget-squeeze fault drives.
func (g *Governor) SetBudget(bytes int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.budget = bytes
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Level returns the governor's current pressure level.
func (g *Governor) Level() PressureLevel {
	if g == nil {
		return PressureNormal
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.level
}

// MaxLevel returns the highest pressure level ever reached.
func (g *Governor) MaxLevel() PressureLevel {
	if g == nil {
		return PressureNormal
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.maxLevel
}

// PressureTransitions returns how many times the pressure level changed.
func (g *Governor) PressureTransitions() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.transitions
}

// notePressure records the level the most recent stage admission ran at
// and reports whether that changed the current level.
func (g *Governor) notePressure(l PressureLevel) bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if l == g.level {
		return false
	}
	g.level = l
	if l > g.maxLevel {
		g.maxLevel = l
	}
	g.transitions++
	return true
}

// admit blocks until bytes fit under the budget, then reserves them and
// returns the amount actually reserved. Requests above the whole budget
// are clamped to it (a stage larger than the budget runs alone rather
// than deadlocking); the clamp is re-evaluated on every wakeup so a
// mid-wait SetBudget shrink cannot strand a waiter asking for more than
// the new budget. Canceling ctx abandons the wait.
func (g *Governor) admit(ctx context.Context, bytes int64) (int64, error) {
	if g == nil || bytes <= 0 {
		return 0, nil
	}
	// Wake waiters when the context dies so cond.Wait cannot hang.
	stop := context.AfterFunc(ctx, func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		g.cond.Broadcast()
	})
	defer stop()

	g.mu.Lock()
	defer g.mu.Unlock()
	waited := false
	for {
		if g.budget <= 0 {
			return 0, nil
		}
		req := bytes
		if req > g.budget {
			req = g.budget
		}
		if g.inUse+req <= g.budget {
			g.inUse += req
			if g.inUse > g.highWater {
				g.highWater = g.inUse
			}
			return req, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if !waited {
			waited = true
			g.waits++
		}
		g.cond.Wait()
	}
}

// TryAdmit reserves bytes if they fit under the budget right now and
// returns an idempotent release closure; ok=false means the reservation
// would have had to wait. This is the fast-path load-shedding probe a
// server runs at request admission: shed (429) instead of queueing.
//
// Unlike admit, TryAdmit does not clamp oversized requests: a request that
// could never fit reports ok=false rather than being silently shrunk —
// a caller shedding load wants the refusal, not a partial reservation. A
// nil or inert (budget <= 0) governor admits everything with a no-op
// release.
func (g *Governor) TryAdmit(bytes int64) (release func(), ok bool) {
	noop := func() {}
	if g == nil || bytes <= 0 {
		return noop, true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.budget <= 0 {
		return noop, true
	}
	if bytes > g.budget-g.inUse { // not inUse+bytes, which can wrap
		return noop, false
	}
	g.inUse += bytes
	if g.inUse > g.highWater {
		g.highWater = g.inUse
	}
	var once sync.Once
	return func() { once.Do(func() { g.release(bytes) }) }, true
}

// release returns admitted bytes to the budget and wakes waiters. bytes
// must match the (possibly clamped) amount admit reserved, which
// Session.admit returns.
func (g *Governor) release(bytes int64) {
	if g == nil || bytes <= 0 {
		return
	}
	g.mu.Lock()
	g.inUse -= bytes
	if g.inUse < 0 {
		g.inUse = 0
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// admitStage gates an in-memory stage on the session's governor. Under
// pressure it degrades before queueing — first shrinking the batch toward
// what is currently available (smaller working set, same parallelism), then
// shedding workers — and only blocks when even the shrunken footprint does
// not fit. It returns the possibly-adjusted batch and worker count plus the
// bytes reserved, which the caller releases.
func (s *Session) admitStage(ctx context.Context, ex *stageExec, total, batch int64, workers int) (int64, int, int64, error) {
	g := s.opts.Governor
	if g == nil || g.Budget() <= 0 {
		return batch, workers, 0, nil
	}
	sumElemBytes := max(ex.elemBytes, 1)
	batch0, workers0 := batch, workers
	footprint := func(b int64, w int) int64 { return b * int64(w) * sumElemBytes }

	// Shrink toward what is currently available (avoiding a wait when
	// possible), or toward the whole budget when nothing is free — the
	// reservation must cover the footprint the stage actually runs with,
	// otherwise concurrent stages could exceed the budget.
	target := g.Available()
	if target <= 0 || target > g.Budget() {
		target = g.Budget()
	}
	if footprint(batch, workers) > target {
		if nb := target / (int64(workers) * sumElemBytes); nb < batch {
			batch = clamp64(nb, 1, total)
		}
		if footprint(batch, workers) > target {
			if nw := target / (batch * sumElemBytes); nw < int64(workers) {
				workers = int(clamp64(nw, 1, int64(workers)))
			}
		}
	}
	admitted, err := s.admit(ctx, ex, footprint(batch, workers), 0, total, batch, workers)
	if err != nil {
		return batch, workers, 0, err
	}
	level := PressureNormal
	if batch < batch0 || workers < workers0 {
		level = PressureConstrained
	}
	s.notePressure(g, ex.si, ex.calls, level)
	return batch, workers, admitted, nil
}

// admit reserves req modeled bytes on the session's governor for elements
// [lo, hi) of ex's stage, run in batches of batch on workers workers: an
// in-memory stage's footprint, or an out-of-core window's. A request over the
// whole budget — even one worker on a one-element batch can model over it —
// is clamped to the budget, so the window runs alone instead of deadlocking.
// The wait lands in Stats.AdmissionWaitNS and an EvAdmission span; the
// caller releases the returned bytes.
func (s *Session) admit(ctx context.Context, ex *stageExec, req, lo, hi, batch int64, workers int) (int64, error) {
	t0 := time.Now()
	admitted, err := s.opts.Governor.admit(ctx, req)
	wait := time.Since(t0)
	s.stats.add(&s.stats.AdmissionWaitNS, wait)
	if err != nil {
		return 0, s.stageErr(ex.st, originFromContext(err), err)
	}
	if tr := s.opts.Tracer; tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvAdmission, Time: time.Now(), Dur: wait,
			Stage: ex.si, Worker: obs.RuntimeLane, Calls: ex.calls,
			Start: lo, End: hi, Bytes: admitted, BatchElems: batch, Workers: workers})
	}
	return admitted, nil
}

// notePressure records a pressure-level observation on the governor and
// emits an EvPressure event when the level actually changed.
func (s *Session) notePressure(g *Governor, si int, calls string, level PressureLevel) {
	if !g.notePressure(level) {
		return
	}
	if tr := s.opts.Tracer; tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvPressure, Time: time.Now(),
			Stage: si, Worker: obs.RuntimeLane, Calls: calls,
			Bytes: g.InUse(), Detail: level.String()})
	}
}
