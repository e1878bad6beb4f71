package planlower

import (
	"mozart/internal/memsim"
	"mozart/internal/plan"
)

// PlanElems derives a workload element count from a plan: the largest
// element count any stage's inputs reported at planning time. Returns -1
// when no stage knows its size (fully lazy or deferred inputs), in which
// case counter simulation has nothing to run on.
func PlanElems(p *plan.Plan) int64 {
	elems := int64(-1)
	for i := range p.Stages {
		if e := p.Stages[i].Elems(); e > elems {
			elems = e
		}
	}
	return elems
}

// SimulateCounters lowers p under o and replays its memory-access trace on
// machine m with the given thread count, returning one simulated counter
// set per plan stage (same order as p.Stages). Callers hand it an
// evaluation's real plan IR (captured through core.Options.OnPlan), so the
// per-stage cache behaviour is reported in the same units as the paper's
// Table 4 / Figure 6 analysis and derived from the planner's actual output,
// not a hand model. The runtime itself never calls it: its telemetry
// reports only what it measures.
//
// When o.Elems is zero it is filled from PlanElems; if the plan's size is
// unknown, SimulateCounters returns nil (there is no trace to replay).
func SimulateCounters(p *plan.Plan, o Options, m memsim.Machine, threads int) []memsim.StageCounters {
	if len(p.Stages) == 0 {
		return nil
	}
	if o.Elems <= 0 {
		o.Elems = PlanElems(p)
	}
	if o.Elems <= 0 {
		return nil
	}
	if o.ElemBytes <= 0 {
		o.ElemBytes = 8
	}
	if o.DefaultCyclesPerElem <= 0 {
		// Cache traffic depends on the access pattern, not the per-element
		// compute cost; a nominal cycle count keeps modeled Seconds sane for
		// calls missing from the cost table.
		o.DefaultCyclesPerElem = 1
	}
	w := Lower(p, o)
	res := memsim.Run(m, *w, threads)
	return res.PerStage
}
