// Package obs is the Mozart runtime's observability layer: a structured
// event taxonomy covering everything the paper's own evaluation needed to
// see inside the runtime (the Figure 5 phase breakdown, the Figure 6
// batch-size behaviour), plus the resilience machinery added on top of it
// (retries, circuit breakers, admission control, whole-call fallback).
//
// The runtime emits events through the Tracer interface. A nil Tracer is
// the fast path: internal/core guards every emission site with a nil check,
// so disabled tracing adds no allocations and no work to the per-batch hot
// loop. Two sinks ship with the package:
//
//   - ChromeTrace renders events in the Chrome trace_event JSON format, one
//     lane per worker, viewable in chrome://tracing or https://ui.perfetto.dev.
//   - Metrics aggregates per-stage counters (batches, bytes moved under the
//     §5.2 model, cache-batch utilization, retry/breaker/admission counts)
//     and exports them via expvar and a plain-text snapshot.
//
// Events are plain value structs: emitting one never forces a heap
// allocation at the call site, and sinks that need to retain events copy
// them.
package obs

import "time"

// EventKind classifies a runtime event.
type EventKind uint8

// The event taxonomy. Span events (SessionEnd, Plan, StageEnd, Batch,
// Merge, Admission, Fallback) carry a Dur covering the work they describe;
// the remaining kinds are instants.
const (
	// EvSessionBegin marks the start of one Evaluate round. Elems carries
	// the number of pending captured calls.
	EvSessionBegin EventKind = iota
	// EvSessionEnd closes an Evaluate round; Dur spans the whole
	// evaluation and Detail carries the error, if any.
	EvSessionEnd
	// EvPlan reports the produced plan: Stages counts the stages, Dur is
	// the planner time, and Detail lists each stage's call pipeline.
	EvPlan
	// EvStageBegin reports a stage about to execute, with its resolved
	// split detail: Calls (pipeline), Split (split type), Elems (total
	// elements), BatchElems and Workers (after admission control), Bytes
	// (Σ element bytes across split inputs), and CacheBytes (the C×L2
	// target the batch heuristic sized against).
	EvStageBegin
	// EvStageEnd closes a stage; Dur spans split execution including any
	// fallback re-execution, Detail carries the error, if any.
	EvStageEnd
	// EvBatch is one executed batch: Worker identifies the lane, Start/End
	// the element range, Dur the whole batch, and SplitNS/TaskNS the phase
	// attribution within it (§5.2 Steps 1-2). Bytes is the batch's moved
	// bytes under the §5.2 model: (End-Start) × Σ element bytes. Attempt
	// is >1 when the batch succeeded on a retry replay.
	EvBatch
	// EvMerge is a merge span (§5.2 Step 3): per-worker pre-merges carry
	// the worker lane, the final merge runs on RuntimeLane.
	EvMerge
	// EvRetry is an instant preceding a batch replay: Attempt numbers the
	// failed attempt, Detail carries the transient error.
	EvRetry
	// EvBreaker is a circuit-breaker transition for the annotation named
	// in Calls; Detail is the new state ("open", "reopened", "half-open",
	// "closed").
	EvBreaker
	// EvAdmission is the memory-governor gate before a stage: Dur is the
	// wait, Bytes the reserved footprint, BatchElems/Workers the
	// possibly-shrunken execution shape.
	EvAdmission
	// EvFallback is a whole-call re-execution after an annotation fault;
	// Dur spans the re-execution, Detail carries the original fault.
	EvFallback
	// EvStageCounters reports a stage's simulated hardware counters: the
	// evaluation's plan IR lowered into the memsim machine model
	// (internal/planlower) and replayed through the cache hierarchy.
	// Counters carries the L1/L2/LLC hit/miss counts and DRAM bytes;
	// Stage/Calls/Split identify the stage the same way EvStageBegin does,
	// so metric sinks fold both into the same row. Emitted on the runtime
	// lane, once per stage per evaluation, only under
	// Options.SimulateCounters.
	EvStageCounters
	// EvPressure is a Governor pressure-level transition: Detail carries
	// the new level ("normal", "constrained", "out-of-core"), Bytes the
	// reserved bytes at the transition, Stage/Calls the stage whose
	// admission triggered it. Emitted on the runtime lane, only when the
	// level actually changed.
	EvPressure
	// EvSpill is one merge-side partial written to (or replayed from) the
	// out-of-core spill store: Bytes is the frame payload size, Start/End
	// the element window it covers, Detail "append" or "replay". Emitted
	// on the runtime lane by an out-of-core stage.
	EvSpill
	// EvTune closes the telemetry→plan loop: one per evaluation when a
	// Tuner (Options.Tuner) is configured, after execution. Detail carries
	// the batch provenance ("static", "sweeping", "calibrated"), BatchElems
	// the tuner's batch override (0 under the static policy), Workers the
	// worker count the evaluation ran with, Elems/Bytes the split-stage
	// totals processed, and Dur the execution wall time — the measured
	// throughput the tuner folds into its next decision. Emitted on the
	// runtime lane.
	EvTune
)

// String returns the kind's stable lowercase name.
func (k EventKind) String() string {
	switch k {
	case EvSessionBegin:
		return "session-begin"
	case EvSessionEnd:
		return "session-end"
	case EvPlan:
		return "plan"
	case EvStageBegin:
		return "stage-begin"
	case EvStageEnd:
		return "stage-end"
	case EvBatch:
		return "batch"
	case EvMerge:
		return "merge"
	case EvRetry:
		return "retry"
	case EvBreaker:
		return "breaker"
	case EvAdmission:
		return "admission"
	case EvFallback:
		return "fallback"
	case EvStageCounters:
		return "stage-counters"
	case EvPressure:
		return "pressure"
	case EvSpill:
		return "spill"
	case EvTune:
		return "tune"
	}
	return "unknown"
}

// RuntimeLane is the Worker value for events produced by the runtime's
// coordinating thread rather than a worker goroutine (planning, admission,
// final merges, breaker transitions).
const RuntimeLane = -1

// Event is one structured runtime event. It is a flat value struct so the
// runtime can emit it without allocating; fields that do not apply to a
// kind are zero. For span kinds, Time is the END of the span and Dur its
// length (start = Time.Add(-Dur)).
type Event struct {
	Kind EventKind
	Time time.Time     // instant, or span end
	Dur  time.Duration // span length; 0 for instants

	Stage  int // stage index within the plan; -1 when not stage-scoped
	Worker int // worker lane, or RuntimeLane

	Start, End int64 // element range for batch-scoped kinds

	Calls string // "a -> b -> c" pipeline (stage kinds) or annotation name (breaker)
	Split string // split type rendering, "whole" for unsplit stages

	SplitNS, TaskNS int64 // per-batch phase attribution (EvBatch)

	Elems      int64 // stage total elements (stage kinds), pending calls (session begin)
	Bytes      int64 // Σ elem bytes (stage begin), moved bytes (batch), reserved bytes (admission)
	BatchElems int64 // chosen batch size in elements
	CacheBytes int64 // the batch heuristic's C×L2 byte target
	Workers    int   // worker count for the stage
	Stages     int   // stage count (EvPlan)
	Attempt    int   // retry attempt number

	Detail string // human-readable extra: error text, breaker state, plan summary

	// Counters is the simulated hardware-counter payload of
	// EvStageCounters; zero for every other kind.
	Counters CacheCounters

	// Trace, when non-nil, is the request-scoped trace context the session
	// was evaluated under (core.Options.Trace). The runtime stamps it on
	// session-begin and session-end events — a shared pointer, so stamping
	// costs no allocation — letting shared sinks (latency exemplars, flight
	// recordings) key what they retain by the originating request's trace
	// id without a per-request sink.
	Trace *TraceContext `json:"trace,omitempty"`
}

// CacheCounters are simulated per-stage hardware counters, produced by
// lowering the evaluation's plan IR into the memsim machine model. Hit and
// miss counts come from the representative thread's access trace (their
// ratios are the signal); DRAMBytes is scaled to full size and all
// threads; ModelNS is the stage's modeled runtime.
type CacheCounters struct {
	L1Hits    int64 `json:"l1_hits"`
	L1Misses  int64 `json:"l1_misses"`
	L2Hits    int64 `json:"l2_hits"`
	L2Misses  int64 `json:"l2_misses"`
	LLCHits   int64 `json:"llc_hits"`
	LLCMisses int64 `json:"llc_misses"`
	DRAMBytes int64 `json:"dram_bytes"`
	ModelNS   int64 `json:"model_ns"`
}

// Zero reports whether no counter was recorded.
func (c CacheCounters) Zero() bool { return c == CacheCounters{} }

// add accumulates o into c.
func (c *CacheCounters) add(o CacheCounters) {
	c.L1Hits += o.L1Hits
	c.L1Misses += o.L1Misses
	c.L2Hits += o.L2Hits
	c.L2Misses += o.L2Misses
	c.LLCHits += o.LLCHits
	c.LLCMisses += o.LLCMisses
	c.DRAMBytes += o.DRAMBytes
	c.ModelNS += o.ModelNS
}

// Tracer receives runtime events. Implementations must be safe for
// concurrent use: workers emit batch events in parallel.
//
// Emit is called synchronously from the runtime's hot path, so sinks should
// do bounded work per event (append to a buffer, bump counters) and defer
// rendering to a later snapshot call.
type Tracer interface {
	Emit(Event)
}

// multi fans one event out to several tracers.
type multi []Tracer

func (m multi) Emit(e Event) {
	for _, t := range m {
		if t != nil {
			t.Emit(e)
		}
	}
}

// Multi returns a Tracer that forwards every event to each non-nil tracer
// in ts. Multi(nil...) and Multi() return a no-op tracer; prefer leaving
// Options.Tracer nil to disable tracing entirely, which is cheaper.
func Multi(ts ...Tracer) Tracer {
	out := make(multi, 0, len(ts))
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}
