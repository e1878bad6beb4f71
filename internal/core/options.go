package core

import (
	"context"
	"runtime"
	"time"

	"mozart/internal/obs"
	ir "mozart/internal/plan"
)

// FallbackPolicy selects how the runtime reacts when a stage fails because
// of an annotation fault (a Split/Merge/Info error or a recovered panic —
// see StageError.AnnotationFault). Splitting is an optimization over an
// unmodified library, so the always-correct degraded path is to run the
// stage's calls whole, unsplit and unpipelined, exactly as the plain
// library would.
type FallbackPolicy int

const (
	// FallbackOff (the default) fails Evaluate with a StageError.
	FallbackOff FallbackPolicy = iota
	// FallbackWholeCall re-executes an annotation-faulted stage via the
	// whole-call path: in-place-mutated inputs are restored from a
	// pre-stage snapshot and every call runs once over full values.
	FallbackWholeCall
	// FallbackQuarantine is FallbackWholeCall plus quarantining: the
	// faulty annotation (the failing call when known, otherwise every call
	// in the stage) is planned as a whole, unsplit stage for the rest of
	// the session, so later evaluations never touch its splitters again.
	FallbackQuarantine
)

// Options configure a Session (the paper's runtime knobs: worker count is
// user-configured, batch size is derived from the L2 cache size, §5.2).
type Options struct {
	// Workers is the number of worker threads. Defaults to GOMAXPROCS.
	Workers int
	// L2CacheBytes is the per-core L2 cache size used by the batch-size
	// heuristic. Defaults to 256 KiB (the paper's Xeon E5-2676 v3).
	L2CacheBytes int64
	// BatchElems, when non-zero, overrides the batch-size heuristic with a
	// fixed number of elements per batch (used by the Fig. 6 sweep).
	BatchElems int64
	// DisablePipelining makes every annotated call its own stage: data is
	// still split and parallelized, but merged between calls. This is the
	// Mozart(-pipe) ablation of Table 4.
	DisablePipelining bool
	// StageTimeout, when non-zero, bounds the wall-clock time of each
	// stage. A stage that exceeds it is canceled: workers stop claiming
	// batches (in-flight library calls run to completion first, since
	// unmodified library code cannot be preempted) and Evaluate returns a
	// StageError wrapping context.DeadlineExceeded.
	StageTimeout time.Duration
	// FallbackPolicy controls graceful degradation when an annotation
	// fault (Split/Merge/Info error or recovered panic) breaks a stage:
	// off (fail), whole-call re-execution, or re-execution plus
	// quarantining the faulty annotation for the session. See the
	// FallbackPolicy constants. Library-function errors, Pedantic-mode
	// errors, timeouts, and cancellations never fall back.
	FallbackPolicy FallbackPolicy
	// Pedantic enables the §7.1 debugging mode: evaluation fails with a
	// descriptive error if a function receives splits with differing
	// element counts, receives no elements, or receives nil data.
	Pedantic bool
	// RetryPolicy enables batch-granular retry of transient faults: a
	// Split or library-call error the policy classifies as transient
	// (default: wrapping ErrTransient) replays only the failed batch,
	// with its in-place-mutated pieces restored from a pre-attempt
	// snapshot, instead of failing the stage. See RetryPolicy.
	RetryPolicy RetryPolicy
	// Governor, when set, admits this session's stages against a byte
	// budget: each stage's §5.2 footprint (workers × batch × Σ elemBytes)
	// must fit, and stages shrink their batches under pressure. Every
	// session holding the same Governor shares the budget; a session-private
	// budget is Governor: NewGovernor(n).
	Governor *Governor
	// Breakers, when set, makes the session consult and transition a
	// shared BreakerGroup instead of a session-private breaker set: the
	// group's quarantine state outlives any one session, so serving
	// setups that build a fresh Session per request keep breaker
	// dispositions warm across requests, scoped to whoever owns the
	// group (one group per tenant). The group's BreakerPolicy tunes the
	// breakers (a non-zero Cooldown lets tripped annotations heal via
	// half-open probes). Nil means a session-private set under the zero
	// policy: one annotation fault quarantines the annotation for the rest
	// of the session.
	Breakers *BreakerGroup
	// Tracer, when set, receives structured execution events: session
	// begin/end, the produced plan, stage begin/end with split-type and
	// batch-size detail, per-batch spans with worker id and phase
	// timings, retries, breaker transitions, admission waits, and
	// fallback re-executions. See internal/obs for the taxonomy and the
	// built-in Chrome-trace and metrics sinks. A nil Tracer (the
	// default) is the fast path: every emission site is nil-guarded, so
	// disabled tracing adds no allocations to the per-batch hot loop.
	Tracer obs.Tracer
	// Trace, when set, is the request-scoped trace context the session is
	// being evaluated under (a parsed or generated W3C traceparent). The
	// runtime stamps it onto session-begin and session-end events — a
	// shared pointer copy, so the stamp costs no allocation and the nil
	// default costs nothing at all — letting shared sinks (latency
	// exemplars, flight recordings) key what they retain by the
	// originating request's trace id. Pair it with a per-request
	// obs.SpanRecorder in Tracer to capture the full span tree.
	Trace *obs.TraceContext
	// ProfileLabels, when true, wraps each worker's batch loop in pprof
	// labels (mozart_stage, mozart_split) so CPU profiles attribute
	// samples to stages and split types (go tool pprof -tagfocus).
	ProfileLabels bool
	// Logf, when set, receives a log line per function call per split
	// piece (the §7.1 call log). Signature matches testing.T.Logf.
	Logf func(format string, args ...any)
	// OnPlan, when set, receives the plan IR produced for each evaluation
	// just before execution starts (after the plan event is emitted). The
	// IR is a snapshot holding no session state, and it is immutable from
	// here on: the runtime never writes to it again and callbacks must not
	// either, because sinks (the flight recorder, httpdebug.PlanLog) retain
	// the pointer and render it when read. For a plan without evaluating,
	// use Session.Plan.
	OnPlan func(*ir.Plan)
	// BaseContext, when set, supplies the context for evaluations forced
	// without an explicit one — Future.Get/Value/Float64s. Serving setups
	// use it to propagate a request's deadline and disconnect-cancellation
	// into lazy reads deep inside library wrappers that never see a context
	// parameter. A nil function (the default) or a nil returned context
	// means context.Background(); EvaluateContext and GetContext ignore it.
	BaseContext func() context.Context
	// OutOfCore enables the streaming degradation mode: when a stage's
	// §5.2 working set (total × Σ elemBytes) exceeds the Governor's whole
	// budget, the stage executes in admission-bounded element windows
	// instead of blocking — each window is split, executed, and its
	// outputs placed or merged before its bytes are released back to the
	// Governor. Each output's window pieces are merged once, at the stage's
	// finale, and wait for it in a CRC-framed temp-file store when the
	// output's splitter implements PieceCodec. Requires a Governor;
	// without one the option is inert. Inputs whose splitters implement
	// SplitterAt stream as window views; other inputs stay materialized and
	// only their split windows are driven incrementally.
	OutOfCore bool
	// SpillDir is the directory for out-of-core spill files. Empty means
	// the OS temp dir. Spill files are CRC-checked, crash-safe (orphans
	// from dead processes are sweepable), and removed at stage finale.
	SpillDir string
	// WorkerPool, when set, is the pool a stage's shares 1…W−1 are offered
	// to (share 0, and any share no helper has started by the time the
	// evaluating goroutine is free, run on the evaluating goroutine).
	// Defaults to one process-wide pool created at first use and sized at
	// GOMAXPROCS, so sessions built per request reuse each other's parked
	// workers; pass a private pool to isolate a group of sessions or to
	// bound its helper goroutines (the pool's cap; offers beyond it queue).
	// See WorkerPool and Stats.WorkerSpawns (zero spawns across
	// steady-state evaluations is the reuse proof).
	WorkerPool *WorkerPool
	// PoisonPools is a debug mode for the session's buffer pools: every
	// buffer returned to a pool has its slots overwritten with a sentinel
	// before reuse, so any code path that retains a reference past the
	// hand-back observes the sentinel instead of stale data and fails
	// loudly. Used by the pool leak tests; off in production.
	PoisonPools bool
	// Tuner, when set, is consulted once per plan build for a batch-size
	// and worker-count override (a plan.BatchSource — typically a
	// *tune.Tuner). The decision is recorded in the plan IR (FixedElems,
	// Workers, Provenance) so Explain, the counter simulation, and the
	// executor all see the calibrated values; after each evaluation the
	// session reports measured actuals back through plan.Calibrator.Observe
	// and emits an EvTune event. A nil Tuner (the default) — or any source
	// returning the zero decision — reproduces the static §5.2 heuristic
	// exactly. Share one Tuner across sessions to keep calibration warm
	// (it must then be concurrency-safe, as *tune.Tuner is).
	Tuner ir.BatchSource
}

// batchPolicy is the §5.2 batch rule these options denote, as recorded in
// the plan IR. It is the single implementation of the batch heuristic,
// shared with the modeled workloads (internal/workloads) so the two can
// never silently fork.
func (o Options) batchPolicy() ir.BatchPolicy {
	return ir.BatchPolicy{FixedElems: o.BatchElems, Constant: ir.DefaultBatchConstant, L2CacheBytes: o.L2CacheBytes}
}

// cacheTargetBytes is the batch heuristic's C×L2 working-set target, the
// denominator of the cache-batch utilization metric.
func (o Options) cacheTargetBytes() int64 {
	return o.batchPolicy().CacheTargetBytes()
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.L2CacheBytes <= 0 {
		o.L2CacheBytes = ir.DefaultL2CacheBytes
	}
	if o.WorkerPool == nil {
		o.WorkerPool = defaultWorkerPool()
	}
	return o
}

// batchSize implements the §5.2 heuristic: C * L2CacheSize / sum of element
// sizes, clamped to [1, total].
func (o Options) batchSize(sumElemBytes, total int64) int64 {
	return clamp64(o.batchPolicy().Elems(sumElemBytes, total), 1, total)
}

func clamp64(v, lo, hi int64) int64 {
	if hi < lo {
		hi = lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
