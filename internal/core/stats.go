package core

import (
	"fmt"
	"sync/atomic"
	"time"
)

// StatsSnapshot is a plain value copy of the runtime statistics, matching
// the breakdown of Figure 5: client-library registration, unprotecting lazy
// values, planning, splitting, task execution, and merging, plus the
// fault-tolerance and resilience counters. It is the type Session.Stats
// returns: an atomic snapshot with no live fields, so callers can read,
// copy, and compare it without data-race footguns.
type StatsSnapshot struct {
	ClientNS    int64 // registering calls with the dataflow graph
	UnprotectNS int64 // simulated memory-(un)protection on guarded buffers
	PlannerNS   int64 // converting the graph into stages
	SplitNS     int64 // calls into splitters' Split
	TaskNS      int64 // executing library functions
	MergeNS     int64 // calls into splitters' Merge
	Evaluations int64 // number of Evaluate() rounds
	Stages      int64 // stages executed
	Batches     int64 // batches executed
	Calls       int64 // function invocations on split pieces

	// Fault-tolerance counters.
	RecoveredPanics  int64 // panics recovered from splitters and library calls
	FallbackStages   int64 // stages re-executed whole after an annotation fault
	QuarantinedCalls int64 // annotations with a currently open/half-open breaker

	// Resilience counters (retry, circuit breakers, admission control).
	RetriedBatches    int64 // batch replays after a transient fault
	RetryBackoffNS    int64 // time spent in retry backoff sleeps
	BreakerTrips      int64 // breaker transitions into the open state
	BreakerRecoveries int64 // half-open probes that closed a breaker
	AdmissionWaitNS   int64 // time spent waiting on the memory Governor

	// Out-of-core streaming counters (Options.OutOfCore).
	StreamedStages int64 // stages executed in windowed streaming mode
	SpilledBytes   int64 // merge-partial payload bytes written to the spill store
	SpilledFrames  int64 // merge-partial frames written to the spill store

	// Zero-copy hot-path counters (Options.WorkerPool, ViewSplitter).
	WorkerSpawns int64 // goroutines created for stage work (the pool was under its cap with nobody parked)
	PoolTasks    int64 // stage shares offered to the worker pool (W−1 per fan-out, whoever ends up running them)
	ViewSplits   int64 // input splits served by SplitView (aliasing, reuse-slotted)
	PlacedPieces int64 // output pieces copied straight into their merged destination (PlaceSplitter)
	ReusedPieces int64 // dead pieces handed back to their producer as a destination (FuncInto)
}

// Total returns the sum of all phase times.
func (sn StatsSnapshot) Total() time.Duration {
	return time.Duration(sn.ClientNS + sn.UnprotectNS + sn.PlannerNS + sn.SplitNS + sn.TaskNS + sn.MergeNS)
}

// String renders the breakdown as percentages of total, the way Figure 5
// reports it, followed by the fault and resilience counters when any are
// non-zero — so a fallback, retry, breaker trip, or admission wait is
// always visible in the rendered stats.
func (sn StatsSnapshot) String() string {
	tot := float64(sn.Total())
	if tot == 0 {
		return "no time recorded"
	}
	pct := func(ns int64) float64 { return 100 * float64(ns) / tot }
	out := fmt.Sprintf(
		"client %.2f%% | unprotect %.2f%% | planner %.2f%% | split %.2f%% | task %.2f%% | merge %.2f%% (total %v, %d stages, %d batches, %d calls)",
		pct(sn.ClientNS), pct(sn.UnprotectNS), pct(sn.PlannerNS),
		pct(sn.SplitNS), pct(sn.TaskNS), pct(sn.MergeNS),
		sn.Total(), sn.Stages, sn.Batches, sn.Calls)
	if sn.RecoveredPanics > 0 || sn.FallbackStages > 0 || sn.QuarantinedCalls > 0 {
		out += fmt.Sprintf(" [%d recovered panics, %d fallback stages, %d quarantined]",
			sn.RecoveredPanics, sn.FallbackStages, sn.QuarantinedCalls)
	}
	if sn.RetriedBatches > 0 || sn.BreakerTrips > 0 || sn.AdmissionWaitNS > 0 {
		out += fmt.Sprintf(" [%d retried batches (backoff %v), %d breaker trips, %d recoveries, admission wait %v]",
			sn.RetriedBatches, time.Duration(sn.RetryBackoffNS),
			sn.BreakerTrips, sn.BreakerRecoveries, time.Duration(sn.AdmissionWaitNS))
	}
	if sn.StreamedStages > 0 {
		out += fmt.Sprintf(" [%d streamed stages, %d spill frames, %d spilled bytes]",
			sn.StreamedStages, sn.SpilledFrames, sn.SpilledBytes)
	}
	if sn.PoolTasks > 0 || sn.ViewSplits > 0 {
		out += fmt.Sprintf(" [pool %d tasks / %d spawns, %d view splits]",
			sn.PoolTasks, sn.WorkerSpawns, sn.ViewSplits)
	}
	return out
}

// stats is the live, atomically-updated accumulator behind a session's
// statistics. Workers mutate it concurrently through add; readers must go
// through Snapshot. The public surface is the value-type StatsSnapshot
// returned by Session.Stats (the old exported alias is gone).
type stats struct {
	StatsSnapshot
}

// Total returns the sum of all phase times. Safe to call while workers are
// running: it totals a Snapshot, never the live fields.
func (s *stats) Total() time.Duration { return s.Snapshot().Total() }

// String renders a Snapshot of the breakdown; safe under concurrency.
func (s *stats) String() string { return s.Snapshot().String() }

// add accumulates o into s (atomically; workers report concurrently).
func (s *stats) add(field *int64, d time.Duration) {
	atomic.AddInt64(field, int64(d))
}

// Snapshot returns a consistent-enough copy of the statistics, read with
// atomic loads so it is safe to take while workers are still running.
func (s *stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		ClientNS:    atomic.LoadInt64(&s.ClientNS),
		UnprotectNS: atomic.LoadInt64(&s.UnprotectNS),
		PlannerNS:   atomic.LoadInt64(&s.PlannerNS),
		SplitNS:     atomic.LoadInt64(&s.SplitNS),
		TaskNS:      atomic.LoadInt64(&s.TaskNS),
		MergeNS:     atomic.LoadInt64(&s.MergeNS),
		Evaluations: atomic.LoadInt64(&s.Evaluations),
		Stages:      atomic.LoadInt64(&s.Stages),
		Batches:     atomic.LoadInt64(&s.Batches),
		Calls:       atomic.LoadInt64(&s.Calls),

		RecoveredPanics:  atomic.LoadInt64(&s.RecoveredPanics),
		FallbackStages:   atomic.LoadInt64(&s.FallbackStages),
		QuarantinedCalls: atomic.LoadInt64(&s.QuarantinedCalls),

		RetriedBatches:    atomic.LoadInt64(&s.RetriedBatches),
		RetryBackoffNS:    atomic.LoadInt64(&s.RetryBackoffNS),
		BreakerTrips:      atomic.LoadInt64(&s.BreakerTrips),
		BreakerRecoveries: atomic.LoadInt64(&s.BreakerRecoveries),
		AdmissionWaitNS:   atomic.LoadInt64(&s.AdmissionWaitNS),

		StreamedStages: atomic.LoadInt64(&s.StreamedStages),
		SpilledBytes:   atomic.LoadInt64(&s.SpilledBytes),
		SpilledFrames:  atomic.LoadInt64(&s.SpilledFrames),

		WorkerSpawns: atomic.LoadInt64(&s.WorkerSpawns),
		PoolTasks:    atomic.LoadInt64(&s.PoolTasks),
		ViewSplits:   atomic.LoadInt64(&s.ViewSplits),
		PlacedPieces: atomic.LoadInt64(&s.PlacedPieces),
		ReusedPieces: atomic.LoadInt64(&s.ReusedPieces),
	}
}
