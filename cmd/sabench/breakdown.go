package main

import (
	"mozart/internal/core"
	"mozart/internal/workloads"
)

// runWithBreakdown executes a workload's Mozart variant while observing the
// sessions it creates, and returns the summed phase statistics (Fig. 5).
func runWithBreakdown(spec workloads.Spec, cfg workloads.Config) (core.StatsSnapshot, error) {
	var sessions []*core.Session
	cfg.OnSession = func(s *core.Session) { sessions = append(sessions, s) }
	if _, err := spec.Run(workloads.Mozart, cfg); err != nil {
		return core.StatsSnapshot{}, err
	}
	var total core.StatsSnapshot
	for _, s := range sessions {
		st := s.Stats()
		total.ClientNS += st.ClientNS
		total.PlannerNS += st.PlannerNS
		total.SplitNS += st.SplitNS
		total.TaskNS += st.TaskNS
		total.MergeNS += st.MergeNS
		total.Stages += st.Stages
		total.Batches += st.Batches
		total.Calls += st.Calls
	}
	return total, nil
}
