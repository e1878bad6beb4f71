// Package mozart is the public API of this repository's implementation of
// split annotations (SAs) and the Mozart runtime from "Optimizing
// Data-Intensive Computations in Existing Libraries with Split Annotations"
// (Palkar & Zaharia, SOSP 2019).
//
// The paper's three components map to this module as follows:
//
//   - The SA interface and the Mozart client library + runtime live in
//     internal/core and are re-exported here: Session captures a lazy
//     dataflow graph of annotated calls, plans it into pipelineable stages
//     by split type, and executes cache-sized batches across workers.
//
//   - Library integrations (the annotations + splitting APIs an annotator
//     writes, §7) live under internal/annotations: vmathsa (Intel
//     MKL-style vector math), tensorsa (NumPy-style ndarrays), framesa
//     (Pandas-style DataFrames), nlpsa (spaCy-style NLP), imagesa
//     (ImageMagick-style images), and gensa (wrappers generated by
//     cmd/annotate from the SA DSL).
//
//   - The annotated substrate libraries themselves (internal/vmath,
//     tensor, frame, nlp, imagelib) are unmodified by Mozart, which is the
//     point of the technique.
//
// A minimal session:
//
//	s := mozart.NewSession(mozart.Options{Workers: 8})
//	vmathsa.Log1p(s, n, d1, d1)
//	vmathsa.Add(s, n, d1, tmp, d1)
//	vmathsa.Div(s, n, d1, vol, d1)
//	if err := s.EvaluateContext(ctx); err != nil { ... }
//
// The three calls pipeline: each worker pulls one cache-sized batch of the
// arrays through all three functions before touching the next batch, so
// every element is loaded from DRAM once instead of three times.
package mozart

import (
	"mozart/internal/core"
	"mozart/internal/obs"
	"mozart/internal/plan"
)

// Session lazily captures annotated calls and evaluates them with
// splitting, pipelining, and parallelism. See core.Session.
type Session = core.Session

// Options configure a Session (workers, batch heuristic, ablations).
type Options = core.Options

// Future is a lazy result handle; accessing it forces evaluation.
type Future = core.Future

// Annotation is a split annotation over one function.
type Annotation = core.Annotation

// Param is one annotated parameter.
type Param = core.Param

// TypeExpr is a split type expression inside an annotation.
type TypeExpr = core.TypeExpr

// SplitType is a parameterized split type.
type SplitType = core.SplitType

// Splitter is the splitting API annotators implement per split type.
type Splitter = core.Splitter

// RuntimeInfo is the sizing information splitters report to the runtime.
type RuntimeInfo = core.RuntimeInfo

// Ctor is a split type constructor.
type Ctor = core.Ctor

// SplitterCaps is the unified splitter capability bitset: one probe
// (CapabilitiesOf) covers the optional splitter extensions — in-place
// pieces, zero-copy view splits, streaming windows, spill codecs — instead
// of scattered interface assertions.
type SplitterCaps = core.SplitterCaps

// Splitter capability bits.
const (
	// CapInPlace: pieces alias the source's storage; mutations need no merge.
	CapInPlace = core.CapInPlace
	// CapView: the splitter fills caller-provided reuse slots without
	// allocating (ViewSplitter), making the split hot loop allocation-free.
	CapView = core.CapView
	// CapWindow: the splitter produces bounded window views for out-of-core
	// streaming (SplitterAt).
	CapWindow = core.CapWindow
	// CapCodec: the splitter encodes/decodes pieces to byte frames for
	// spilling (PieceCodec).
	CapCodec = core.CapCodec
	// CapPlace: the splitter allocates the merged value up front and copies
	// each batch's piece into its element range (PlaceSplitter).
	CapPlace = core.CapPlace
)

// ViewSplitter is the zero-copy split capability: Split with an explicit
// reuse slot, letting the runtime recycle piece views across batches.
type ViewSplitter = core.ViewSplitter

// PlaceSplitter is the placed-output capability: AllocMerged sizes the
// merged value once and Place copies one batch's piece into it, so workers
// assemble an output in parallel instead of collecting pieces for Merge.
type PlaceSplitter = core.PlaceSplitter

// CapsDeclarer lets wrapping splitters declare their capability set
// explicitly, overriding interface-based derivation.
type CapsDeclarer = core.CapsDeclarer

// CapabilitiesOf probes a splitter's capability set: an explicit
// CapsDeclarer wins, otherwise the set derives from the optional interfaces.
func CapabilitiesOf(s Splitter) SplitterCaps { return core.CapabilitiesOf(s) }

// WorkerPool is a persistent pool of evaluation helpers: share 0 of a stage
// runs on the goroutine that called EvaluateContext, and shares 1…W−1 are
// offered to goroutines that park in the pool between stages instead of
// being respawned, so steady-state evaluations spawn zero goroutines. A share
// no helper has started by the time the evaluating goroutine is free runs on
// that goroutine instead, so an evaluation never waits for a helper to wake.
// Every session shares one process-wide pool unless Options.WorkerPool names
// another.
type WorkerPool = core.WorkerPool

// NewWorkerPool creates a worker pool of at most max helper goroutines;
// offers beyond that wait in the pool for a helper to free up.
func NewWorkerPool(max int) *WorkerPool { return core.NewWorkerPool(max) }

// Func is the calling convention for registered library functions
// (Session.Call).
type Func = core.Func

// FuncInto is the calling convention for a library function that can write
// its result into storage it is handed and whose result shares storage with
// none of its arguments (NumPy's out=), registered through Session.CallInto:
// inside a stage the runtime hands such a call the piece it returned for the
// previous batch once nothing can see it any more, so a batch's intermediates
// are rewritten in cache instead of allocated per call per batch.
type FuncInto = core.FuncInto

// StatsSnapshot is the per-phase time breakdown and counter set of a
// session, as returned by Session.Stats: a plain value with no live fields.
type StatsSnapshot = core.StatsSnapshot

// StageError describes a failure during staged execution: which stage,
// which call, which batch range, and — for recovered panics — the panic
// value and stack. Returned (possibly wrapped) by Evaluate on failure.
type StageError = core.StageError

// FaultOrigin classifies which runtime surface a StageError came from.
type FaultOrigin = core.FaultOrigin

// FaultOrigin values. Info, Split, and Merge faults (and any recovered
// panic) are annotation faults and eligible for whole-call fallback;
// Call, Pedantic, Timeout, Canceled, and Internal are not.
const (
	OriginInfo     = core.OriginInfo
	OriginSplit    = core.OriginSplit
	OriginCall     = core.OriginCall
	OriginMerge    = core.OriginMerge
	OriginPedantic = core.OriginPedantic
	OriginTimeout  = core.OriginTimeout
	OriginCanceled = core.OriginCanceled
	OriginInternal = core.OriginInternal
)

// FallbackPolicy selects what Evaluate does when a stage fails with an
// annotation fault (Options.FallbackPolicy).
type FallbackPolicy = core.FallbackPolicy

// FallbackPolicy values.
const (
	FallbackOff        = core.FallbackOff
	FallbackWholeCall  = core.FallbackWholeCall
	FallbackQuarantine = core.FallbackQuarantine
)

// Snapshotter lets a mutable data type participate in whole-call fallback.
type Snapshotter = core.Snapshotter

// RetryPolicy enables batch-granular retry of transient faults
// (Options.RetryPolicy): a Split or library-call error classified as
// transient replays only the failed batch, with its in-place-mutated pieces
// restored from a pre-attempt snapshot, under exponential backoff with
// deterministic seeded jitter.
type RetryPolicy = core.RetryPolicy

// ErrTransient is the sentinel for recoverable faults: the default
// RetryPolicy classifier retries errors wrapping it and treats everything
// else as permanent.
var ErrTransient = core.ErrTransient

// Governor is a memory-budget admission controller shared across sessions
// (Options.Governor): stages admit their modeled byte footprint
// (workers × batch × Σ elemBytes) against a budget, shrinking batches under
// pressure before queueing.
type Governor = core.Governor

// NewGovernor creates a Governor with the given byte budget.
func NewGovernor(budgetBytes int64) *Governor { return core.NewGovernor(budgetBytes) }

// BreakerPolicy tunes the per-annotation circuit breakers behind
// FallbackQuarantine (the policy of a BreakerGroup in Options.Breakers): N
// annotation faults trip an annotation into whole-call planning; after a
// cooldown a half-open probe re-tries splitting and success restores full
// parallelism.
type BreakerPolicy = core.BreakerPolicy

// BreakerGroup is a set of per-annotation circuit breakers shared across
// sessions (Options.Breakers): quarantine state earned by one evaluation
// stays warm for every later session holding the same group, and distinct
// groups are fully isolated — the per-tenant breaker scoping mozartd uses.
type BreakerGroup = core.BreakerGroup

// NewBreakerGroup creates a shared breaker group with the given policy.
func NewBreakerGroup(pol BreakerPolicy) *BreakerGroup { return core.NewBreakerGroup(pol) }

// ErrNotEvaluated is returned when reading a value whose evaluation never
// completed; after a failed Evaluate the error carries the failure as its
// cause (errors.Is(err, ErrNotEvaluated) still holds).
var ErrNotEvaluated = core.ErrNotEvaluated

// ErrDiscarded is returned when reading a value that was pipelined away.
var ErrDiscarded = core.ErrDiscarded

// NewSession creates a session.
func NewSession(opts Options) *Session { return core.NewSession(opts) }

// NewSplitType constructs a concrete split type value.
func NewSplitType(name string, params ...int64) SplitType {
	return core.NewSplitType(name, params...)
}

// Missing returns the "_" (broadcast) type expression.
func Missing() TypeExpr { return core.Missing() }

// Generic returns a generic type expression.
func Generic(name string) TypeExpr { return core.Generic(name) }

// Unknown returns the unknown type expression.
func Unknown() TypeExpr { return core.Unknown() }

// Concrete returns a concrete type expression with its splitter and
// constructor.
func Concrete(name string, s Splitter, ctor Ctor) TypeExpr {
	return core.Concrete(name, s, ctor)
}

// FixedCtor returns a constructor ignoring arguments.
func FixedCtor(t SplitType) Ctor { return core.FixedCtor(t) }

// RegisterDefaultSplit registers the fallback splitter for a data type.
func RegisterDefaultSplit(sample any, s Splitter, ctor func(v any) (SplitType, error)) {
	core.RegisterDefaultSplit(sample, s, ctor)
}

// RegisterSnapshot registers a snapshot/restore function for a mutable data
// type so whole-call fallback can undo partial in-place mutation.
func RegisterSnapshot(sample any, fn func(v any) (restore func() error, err error)) {
	core.RegisterSnapshot(sample, fn)
}

// CheckConfig configures CheckAnnotation.
type CheckConfig = core.CheckConfig

// CheckSpec names everything CheckAnnotation needs: the function, its
// annotation, a deterministic argument generator, an equality predicate,
// and the check configuration.
type CheckSpec = core.CheckSpec

// CheckAnnotation fuzz-checks an annotation's §3.4 soundness condition by
// comparing whole-function results against split/merged execution under
// randomized worker counts and batch sizes (the §7.1 tooling).
func CheckAnnotation(spec CheckSpec) error {
	return core.CheckAnnotation(spec)
}

// ---- plan IR ---------------------------------------------------------------

// Plan is the explicit plan IR the §5.1 planner produces for one
// evaluation: stages (each an ordered pipeline of calls whose split types
// match) and the §5.2 batch policy. One plan, three consumers: the
// executor runs it, internal/planlower compiles it into the machine model,
// and Explain renders it. Obtain one without evaluating via
// Session.Plan, or observe every evaluation's plan via Options.OnPlan.
type Plan = plan.Plan

// PlanStage is one stage of a Plan.
type PlanStage = plan.Stage

// PlanCall is one library call inside a PlanStage.
type PlanCall = plan.Call

// PlanArg is one argument (or return) of a PlanCall.
type PlanArg = plan.Arg

// PlanValue is a stage boundary value (split input or merged output).
type PlanValue = plan.Value

// BatchPolicy is the §5.2 batch-size rule recorded in a Plan.
type BatchPolicy = plan.BatchPolicy

// StageKind says how a PlanStage executes (split or whole).
type StageKind = plan.StageKind

// Plan IR enum values.
const (
	StageSplit = plan.StageSplit
	StageWhole = plan.StageWhole
)

// BatchSource is the pluggable batch/worker selection seam consulted by
// the planner once per plan build (Options.Tuner). PlanBatch must be
// read-only; state advances only through BatchCalibrator.Observe.
type BatchSource = plan.BatchSource

// BatchCalibrator is a BatchSource that learns from measured actuals
// reported after each evaluation (e.g. *tune.Tuner).
type BatchCalibrator = plan.Calibrator

// BatchRequest is what the planner tells a BatchSource about the plan
// being built.
type BatchRequest = plan.BatchRequest

// BatchDecision is a BatchSource's answer; the zero value keeps the
// static §5.2 policy.
type BatchDecision = plan.BatchDecision

// BatchObservation is one evaluation's measured actuals fed back to a
// BatchCalibrator.
type BatchObservation = plan.Observation

// BatchProvenance records where a Plan's batch decision came from,
// rendered by Explain as [static|sweeping|calibrated].
type BatchProvenance = plan.BatchProvenance

// BatchProvenance values.
const (
	BatchStatic     = plan.BatchStatic
	BatchSweeping   = plan.BatchSweeping
	BatchCalibrated = plan.BatchCalibrated
)

// PlanSignature returns the plan's structural signature — the key
// calibration state is cached under (see plan.Signature).
func PlanSignature(p *Plan) string { return plan.Signature(p) }

// RenderPlan renders a Plan as the multi-line EXPLAIN tree: a header with
// stage count, scheduling mode, batch policy, and batch provenance, then
// per stage its pipeline, inputs, working set and batch size, outputs, and
// calls.
func RenderPlan(p *Plan) string { return plan.Render(p) }

// Explain plans the session's pending dataflow graph without evaluating it
// and renders the EXPLAIN tree. Planning is read-only: circuit breakers
// are consulted but not transitioned and no lazy value is perturbed, so
// Explain before Evaluate never changes what Evaluate does.
//
//	s := mozart.NewSession(mozart.Options{})
//	vmathsa.Log1p(s, n, a, a)
//	fmt.Println(mozart.Explain(s)) // "plan: 1 stage, ..." + stage tree
func Explain(s *Session) (string, error) {
	p, err := s.Plan()
	if err != nil {
		return "", err
	}
	return plan.Render(p), nil
}

// ---- observability ---------------------------------------------------------

// Tracer receives structured runtime events (Options.Tracer): session
// begin/end, the produced plan, stage begin/end with split-type and
// batch-size detail, per-batch spans with worker id and phase timings,
// retries, breaker transitions, admission waits, and fallback
// re-executions. Implementations must be safe for concurrent use. A nil
// Tracer is the fast path: tracing disabled costs the hot loop nothing.
type Tracer = obs.Tracer

// TraceEvent is one structured runtime event delivered to a Tracer.
type TraceEvent = obs.Event

// TraceEventKind classifies a TraceEvent.
type TraceEventKind = obs.EventKind

// ChromeTrace is a Tracer sink rendering events in the Chrome trace_event
// JSON format — one lane per worker plus a runtime lane — viewable in
// chrome://tracing or https://ui.perfetto.dev.
type ChromeTrace = obs.ChromeTrace

// NewChromeTrace creates a ChromeTrace sink with timestamps relative to now.
func NewChromeTrace() *ChromeTrace { return obs.NewChromeTrace() }

// Metrics is a Tracer sink aggregating per-stage counters: batches,
// elements, bytes moved under the §5.2 model, cache-batch utilization, and
// retry/fallback/admission/breaker counts. Export a snapshot with
// Metrics.Snapshot, render a table with Metrics.String, or publish it via
// expvar with Metrics.Publish.
type Metrics = obs.Metrics

// NewMetrics creates an empty Metrics sink.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// MultiTracer fans events out to several tracers (e.g. a ChromeTrace and a
// Metrics sink at once). Nil tracers are skipped.
func MultiTracer(ts ...Tracer) Tracer { return obs.Multi(ts...) }

// WithTracer returns a copy of opts with the tracer installed, for the
// common "default options plus tracing" construction:
//
//	trace := mozart.NewChromeTrace()
//	s := mozart.NewSession(mozart.WithTracer(mozart.Options{Workers: 8}, trace))
func WithTracer(opts Options, t Tracer) Options {
	opts.Tracer = t
	return opts
}

// WithWorkerPool returns a copy of opts that takes its stage helpers from
// pool instead of the process-wide default, to bound or isolate a group of
// sessions (a tenant, a test):
//
//	pool := mozart.NewWorkerPool(4) // at most 4 helper goroutines for this group
//	s1 := mozart.NewSession(mozart.WithWorkerPool(mozart.Options{Workers: 4}, pool))
//	s2 := mozart.NewSession(mozart.WithWorkerPool(mozart.Options{Workers: 4}, pool))
//
// The cap bounds the helpers, not the work: under a NewWorkerPool(1) a
// Workers: 4 stage runs on the caller plus one helper, which between them
// take all four shares.
//
// A session without an explicit pool uses the process-wide one (created at
// first use, sized at GOMAXPROCS), which is what a session built per request
// wants: it revives the workers the previous request parked.
func WithWorkerPool(opts Options, pool *WorkerPool) Options {
	opts.WorkerPool = pool
	return opts
}

// WithTuner returns a copy of opts with a batch/worker tuner installed,
// for the common "default options plus self-tuning" construction:
//
//	tuner := tune.New(tune.Config{})
//	s := mozart.NewSession(mozart.WithTuner(mozart.Options{Workers: 8}, tuner))
//
// Share one tuner across sessions of the same workload shape to keep
// calibration warm; the source must then be safe for concurrent use (as
// *tune.Tuner is).
func WithTuner(opts Options, src BatchSource) Options {
	opts.Tuner = src
	return opts
}

// MetricsSnapshot is one consistent copy of everything a Metrics sink has
// aggregated: evaluation and error counts, the evaluate-latency histogram,
// breaker transitions, and per-stage rows.
type MetricsSnapshot = obs.MetricsSnapshot

// StageMetrics is one per-stage row of a MetricsSnapshot.
type StageMetrics = obs.StageMetrics

// FlightRecorder retains the last N evaluations' full event streams and
// plan renderings in a bounded ring — raw detail for post-hoc debugging,
// where Metrics keeps only aggregates. Wire it into a session with
// WithFlightRecorder; dump with FlightRecorder.Dump or serve it via
// internal/obs/httpdebug.
type FlightRecorder = obs.FlightRecorder

// FlightHandle records one session's evaluations into a FlightRecorder
// (obtained from FlightRecorder.Session; wired by WithFlightRecorder).
type FlightHandle = obs.FlightHandle

// FlightRecording is one retained evaluation: events, plan, and outcome.
type FlightRecording = obs.Recording

// NewFlightRecorder creates a recorder retaining the last n evaluations
// (n <= 0 selects the default of 8).
func NewFlightRecorder(n int) *FlightRecorder { return obs.NewFlightRecorder(n) }

// WithFlightRecorder returns a copy of opts with a fresh per-session
// recorder handle wired in as both tracer (fanned out with any existing
// tracer) and plan callback (chained after any existing one):
//
//	rec := mozart.NewFlightRecorder(16)
//	s := mozart.NewSession(mozart.WithFlightRecorder(mozart.Options{Workers: 8}, rec))
//
// Each session needs its own handle (events carry no session id), which is
// why this takes the recorder and not a handle.
func WithFlightRecorder(opts Options, rec *FlightRecorder) Options {
	h := rec.Session()
	opts.Tracer = obs.Multi(opts.Tracer, h)
	prev := opts.OnPlan
	opts.OnPlan = func(p *Plan) {
		if prev != nil {
			prev(p)
		}
		h.OnPlan(p)
	}
	return opts
}
