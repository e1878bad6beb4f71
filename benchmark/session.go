package main

import (
	"fmt"
	"runtime"
	"time"

	"mozart"
	"mozart/internal/memsim"
	"mozart/internal/obs"
	"mozart/internal/plan"
	"mozart/internal/planlower"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    int64
	seconds float64 // length of the measured part of a pass
	cycles  int     // when > 0, run exactly this many cycles instead
	sizes   sizes
	workdir string    // spill files and the like go here
	spans   *spanLog  // non-nil keeps the traced pass's spans
	extra   extraCall // sensitivity self-test: an extra call on chain_membound
}

// opts is the evaluation every pass starts from: under the workload's memory
// budget where it has one, with the self-test's extra call where one is set.
func (cfg runConfig) opts(workers int) evalOpts {
	return evalOpts{workers: workers, budget: true, extra: cfg.extra}
}

// budget says whether a pass may start another cycle: a fixed cycle count
// when one is set, else until the pass's seconds are used up. Every pass
// runs at least two cycles so that a median exists.
type budget struct {
	cycles   int
	deadline time.Time
}

func (cfg runConfig) budget() budget {
	return budget{cycles: cfg.cycles, deadline: time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))}
}

func (b budget) more(done int) bool {
	if b.cycles > 0 {
		return done < b.cycles
	}
	return done < 2 || time.Now().Before(b.deadline)
}

// passResult is one pass over one workload.
type passResult struct {
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Failures  []string         `json:"failures,omitempty"` // the first few, for the report
	Metrics   map[string]value `json:"metrics"`
}

func (r *passResult) fail(n int, err error) {
	r.Failed += int64(n)
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, err.Error())
	}
}

// memDelta is what one timed sample allocated and how much the collector ran
// during it, per evaluation.
type memDelta struct {
	allocs, bytes, gcCycles, gcPause float64
}

func memBetween(before, after *runtime.MemStats, ops int) memDelta {
	n := float64(ops)
	return memDelta{
		allocs:   float64(after.Mallocs-before.Mallocs) / n,
		bytes:    float64(after.TotalAlloc-before.TotalAlloc) / n,
		gcCycles: float64(after.NumGC-before.NumGC) / n,
		gcPause:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9 / n,
	}
}

// timeBase is one timed sample of the unmodified library. The collection
// before it happens outside the timer, so that no sample pays for the
// garbage of the one before.
func (r *passResult) timeBase(c *sessionCase, threads int) float64 {
	if c.reset != nil {
		c.reset(false)
	}
	runtime.GC()
	start := time.Now()
	var err error
	for i := 0; i < c.baseBlock && err == nil; i++ {
		err = c.base(threads)
	}
	wall := time.Since(start)
	if err != nil {
		r.Attempted++
		r.fail(1, fmt.Errorf("base library: %w", err))
	}
	return wall.Seconds() / float64(c.baseBlock)
}

// timeEval is one timed sample of Mozart: a block of evaluations, then the
// oracle, which runs outside the timer. It returns seconds per evaluation.
func (r *passResult) timeEval(c *sessionCase, o evalOpts) (float64, memDelta) {
	if c.reset != nil {
		c.reset(true)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var err error
	for i := 0; i < c.block && err == nil; i++ {
		err = c.eval(o)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	r.Attempted += int64(c.block)
	if err == nil {
		err = c.check()
	}
	if err != nil {
		r.fail(c.block, err)
	}
	return wall.Seconds() / float64(c.block), memBetween(&before, &after, c.block)
}

// sessionEndToEnd measures a session workload with tracing off. Within a
// cycle the base library at 2 threads, Mozart at 2 workers and Mozart at 1
// worker run back to back, in an order that rotates from cycle to cycle, so
// that drift in the machine's speed falls on all three alike.
func sessionEndToEnd(c *sessionCase, cfg runConfig, tailQ float64) *passResult {
	r := &passResult{Metrics: map[string]value{}}
	s := samples{}
	var evalWall float64
	var evals int64
	b := cfg.budget()
	for cycle := 0; b.more(cycle); cycle++ {
		for k := 0; k < 3; k++ {
			switch (cycle + k) % 3 {
			case 0:
				s.add("base", r.timeBase(c, workers))
			case 1:
				failed := r.Failed
				d, mem := r.timeEval(c, cfg.opts(workers))
				s.add("eval_s", d)
				s.add("allocs_per_eval", mem.allocs)
				s.add("alloc_bytes_per_eval", mem.bytes)
				evalWall += d * float64(c.block)
				if r.Failed == failed {
					evals += int64(c.block)
				}
			case 2:
				d, _ := r.timeEval(c, cfg.opts(1))
				s.add("eval_w1_s", d)
			}
		}
	}
	report(r.Metrics, endToEnd, s)
	derive(r.Metrics, endToEnd, "tail_s", quantile(s["eval_s"], tailQ))
	derive(r.Metrics, endToEnd, "speedup_vs_base", ratio(s.median("base"), s.median("eval_s")))
	derive(r.Metrics, endToEnd, "goodput_rps", ratio(float64(evals), evalWall))
	return r
}

// sessionTraced is the per-layer pass. Each cycle interleaves the base
// library at 2 and 1 threads, Mozart untraced at 2 and 1 workers, Mozart at 2
// workers with the benchmark's collector attached, and Mozart with the
// shipped metrics and Chrome-trace sinks attached; ooc_stream also runs
// without its budget. The direct measurements of single layers come first,
// each for a fixed small count, and the cycles get the time that is left.
func sessionTraced(c *sessionCase, cfg runConfig) *passResult {
	r := &passResult{Metrics: map[string]value{}}
	s := samples{}
	out := r.Metrics
	b := cfg.budget()

	// Direct measurements: the planner read-only, the splitters alone, the
	// machine model of the plan.
	for i := 0; i < 20 && c.capture != nil; i++ {
		sess := mozart.NewSession(mozart.Options{Workers: workers})
		c.capture(sess)
		start := time.Now()
		if _, err := sess.Plan(); err != nil {
			r.fail(0, fmt.Errorf("explain: %w", err))
			break
		}
		s.add("plan.explain_s", time.Since(start).Seconds())
	}
	ns, allocs := c.roundtrip()
	derive(out, perLayer, "annotations.roundtrip_ns_per_piece", ns)
	derive(out, perLayer, "annotations.roundtrip_allocs", allocs)
	if c.gov != nil {
		app, rep, err := spillRates(cfg.workdir)
		if err != nil {
			r.fail(0, fmt.Errorf("spill store: %w", err))
		}
		derive(out, perLayer, "spill.append_mbps", app)
		derive(out, perLayer, "spill.replay_mbps", rep)
	}
	var lastPlan *plan.Plan

	variants := 6
	if c.gov != nil {
		variants = 7
	}
	for cycle := 0; b.more(cycle); cycle++ {
		for k := 0; k < variants; k++ {
			switch (cycle + k) % variants {
			case 0:
				s.add("lib.base_s", r.timeBase(c, workers))
			case 1:
				s.add("lib.base_w1_s", r.timeBase(c, 1))
			case 2:
				d, mem := r.timeEval(c, cfg.opts(workers))
				s.add("eval_s", d)
				s.add("allocs", mem.allocs)
				s.add("goruntime.gc_cycles", mem.gcCycles)
				s.add("goruntime.gc_pause_s", mem.gcPause)
			case 3:
				d, _ := r.timeEval(c, cfg.opts(1))
				s.add("eval_w1_s", d)
			case 4:
				lastPlan = r.tracedBlock(c, cfg, s)
			case 5:
				o := cfg.opts(workers)
				o.tracer = obs.Multi(obs.NewMetrics(), obs.NewChromeTrace())
				d, mem := r.timeEval(c, o)
				s.add("sinks_eval_s", d)
				s.add("sinks_allocs", mem.allocs)
			case 6:
				o := cfg.opts(workers)
				o.budget = false
				d, _ := r.timeEval(c, o)
				s.add("inmem_eval_s", d)
			}
		}
	}

	report(out, perLayer, s)
	evalS, evalW1 := s.median("eval_s"), s.median("eval_w1_s")
	baseS := s.median("lib.base_s")
	derive(out, perLayer, "mozart.capture_calls", float64(c.calls))
	derive(out, perLayer, "core.scaling_eff", ratio(evalW1, workers*evalS))
	derive(out, perLayer, "core.ooc_over_inmem", ratio(evalS, s.median("inmem_eval_s")))
	derive(out, perLayer, "lib.bytes_moved_computed", float64(c.bytesMoved))
	derive(out, perLayer, "lib.gbps_computed", ratio(float64(c.bytesMoved)/1e9, baseS))
	// Task time is summed over workers and base time is wall time at the
	// same thread count, so the fair ratio divides by the worker count.
	derive(out, perLayer, "lib.task_over_base", ratio(s.median("core.task_s")/workers, baseS))
	derive(out, perLayer, "obs.trace_overhead_ratio", ratio(s.median("traced_eval_s"), evalS))
	derive(out, perLayer, "obs.sinks_overhead_ratio", ratio(s.median("sinks_eval_s"), evalS))
	derive(out, perLayer, "obs.sinks_allocs_per_eval", s.median("sinks_allocs")-s.median("allocs"))
	if c.gov != nil {
		derive(out, perLayer, "spill.governor_high_water_bytes", float64(c.gov.HighWater()))
	}
	if lastPlan != nil {
		model := modelSeconds(lastPlan, c.lower)
		derive(out, perLayer, "memsim.model_s", model)
		derive(out, perLayer, "memsim.model_over_measured", ratio(model, evalS))
	}
	derive(out, perLayer, "bench.traced_ops", float64(len(s["traced_eval_s"])*c.block))
	return r
}

// tracedBlock runs one block of evaluations with the collector attached,
// each timed on its own, and records each one's breakdown as a sample. It
// returns the plan of the last evaluation.
func (r *passResult) tracedBlock(c *sessionCase, cfg runConfig, s samples) *plan.Plan {
	if c.reset != nil {
		c.reset(true)
	}
	runtime.GC()
	var last *plan.Plan
	var blockWall time.Duration
	for i := 0; i < c.block; i++ {
		col := &collector{}
		var st mozart.StatsSnapshot
		o := cfg.opts(workers)
		o.tracer, o.stats, o.onPlan = col, &st, func(p *plan.Plan) { last = p }
		start := time.Now()
		err := c.eval(o)
		end := time.Now()
		r.Attempted++
		if err == nil && i == c.block-1 {
			err = c.check()
		}
		if err != nil {
			r.fail(1, err)
			continue
		}
		blockWall += end.Sub(start)
		fold(col.events, start, end.Sub(start)).addTo(s)
		s.add("core.worker_spawns", float64(st.WorkerSpawns))
		s.add("core.pool_tasks", float64(st.PoolTasks))
		s.add("core.view_splits", float64(st.ViewSplits))
		s.add("core.streamed_stages", float64(st.StreamedStages))
		if trace, keep := cfg.spans.begin(); keep {
			cfg.spans.addEval(trace, 0, "eval", "mozart", col.events, start, end)
		}
	}
	s.add("traced_eval_s", blockWall.Seconds()/float64(c.block))
	return last
}

// modelSeconds lowers the evaluation's real plan into the machine model and
// returns the modeled runtime at the benchmark's worker count.
func modelSeconds(p *plan.Plan, lower planlower.Options) float64 {
	var total float64
	for _, st := range planlower.SimulateCounters(p, lower, memsim.DefaultMachine(), workers) {
		total += st.Seconds
	}
	return total
}
