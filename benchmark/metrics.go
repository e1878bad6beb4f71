package main

import (
	"math"
	"sort"
)

// workers is the fixed parallelism of every run: worker count, library
// threads and client connections. The benchmark pins GOMAXPROCS to it.
const workers = 2

// metricDef declares one metric. BENCHMARK.json carries name, unit, better
// and (end to end) bound; layer and moves are the interaction notes the
// report prints beside each per-layer metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end to end only: allowed worsening, as a share of the median
	Moves  string  // per layer only: the end-to-end metric and workload it should move
}

// endToEnd is what a user of the system sees. Every workload reports every
// metric; an "operation" is one evaluation on the five session workloads and
// one request on the two serve workloads.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "eval_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "eval_w1_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "tail_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "speedup_vs_base", Unit: "ratio", Better: "higher", Bound: 0.15},
	{Name: "goodput_rps", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "allocs_per_eval", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "alloc_bytes_per_eval", Unit: "bytes", Better: "lower", Bound: 0.05},
}

// perLayer is the traced pass. The name prefix is the repo module the metric
// belongs to. A metric that does not exist on a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "mozart.capture_s", Unit: "s", Better: "lower", Moves: "eval_s on tiny_pipeline, serve_small; nothing on chain_membound"},
	{Name: "mozart.capture_calls", Unit: "count", Better: "lower", Moves: "mozart.capture_s"},
	{Name: "plan.plan_s", Unit: "s", Better: "lower", Moves: "eval_s on tiny_pipeline"},
	{Name: "plan.stages", Unit: "count", Better: "lower", Moves: "core.merge_s: a stage boundary is a merge"},
	{Name: "plan.batch_elems", Unit: "count", Better: "higher", Moves: "eval_s on chain_membound (Fig. 6) and nowhere else"},
	{Name: "plan.explain_s", Unit: "s", Better: "lower", Moves: "plan.plan_s: the same planner, read-only"},
	{Name: "core.stage_wall_s", Unit: "s", Better: "lower", Moves: "eval_s on every session workload"},
	{Name: "core.batches", Unit: "count", Better: "lower", Moves: "core.batch_overhead_s"},
	{Name: "core.split_s", Unit: "s", Better: "lower", Moves: "eval_s on frame_clean, chain_membound"},
	{Name: "core.task_s", Unit: "s", Better: "lower", Moves: "eval_s; the only large share on blackscholes_compute"},
	{Name: "core.batch_overhead_s", Unit: "s", Better: "lower", Moves: "eval_s on chain_membound"},
	{Name: "core.merge_s", Unit: "s", Better: "lower", Moves: "eval_s, alloc_bytes_per_eval on frame_clean"},
	{Name: "core.admission_wait_s", Unit: "s", Better: "lower", Moves: "eval_s on ooc_stream"},
	{Name: "core.worker_imbalance", Unit: "ratio", Better: "lower", Moves: "eval_s at 2 workers on chain_membound, frame_clean"},
	{Name: "core.scaling_eff", Unit: "ratio", Better: "higher", Moves: "eval_s against eval_w1_s; bounded by core.worker_imbalance"},
	{Name: "core.unaccounted_s", Unit: "s", Better: "lower", Moves: "eval_s, allocs_per_eval on tiny_pipeline, serve_small"},
	{Name: "core.worker_spawns", Unit: "count", Better: "lower", Moves: "allocs_per_eval, eval_s on tiny_pipeline"},
	{Name: "core.pool_tasks", Unit: "count", Better: "lower", Moves: "allocs_per_eval, eval_s on tiny_pipeline"},
	{Name: "core.view_splits", Unit: "count", Better: "higher", Moves: "core.split_s"},
	{Name: "core.streamed_stages", Unit: "count", Better: "lower", Moves: "eval_s on ooc_stream; 0 everywhere else"},
	{Name: "core.ooc_over_inmem", Unit: "ratio", Better: "lower", Moves: "eval_s on ooc_stream only"},
	{Name: "annotations.roundtrip_ns_per_piece", Unit: "ns", Better: "lower", Moves: "core.split_s, core.merge_s on frame_clean, chain_membound"},
	{Name: "annotations.roundtrip_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_eval on frame_clean"},
	{Name: "lib.base_s", Unit: "s", Better: "lower", Moves: "speedup_vs_base; a kernel change moves it and eval_s together"},
	{Name: "lib.base_w1_s", Unit: "s", Better: "lower", Moves: "speedup_vs_base at one thread"},
	{Name: "lib.bytes_moved_computed", Unit: "bytes", Better: "lower", Moves: "lib.gbps_computed"},
	{Name: "lib.gbps_computed", Unit: "GB/s", Better: "higher", Moves: "lib.base_s on chain_membound"},
	{Name: "lib.task_over_base", Unit: "ratio", Better: "lower", Moves: "speedup_vs_base on chain_membound; about 1 on blackscholes_compute"},
	{Name: "spill.frames", Unit: "count", Better: "lower", Moves: "eval_s on ooc_stream only"},
	{Name: "spill.bytes", Unit: "bytes", Better: "lower", Moves: "eval_s on ooc_stream only"},
	{Name: "spill.governor_high_water_bytes", Unit: "bytes", Better: "lower", Moves: "core.admission_wait_s on ooc_stream"},
	{Name: "spill.append_mbps", Unit: "MB/s", Better: "higher", Moves: "eval_s on ooc_stream only"},
	{Name: "spill.replay_mbps", Unit: "MB/s", Better: "higher", Moves: "eval_s on ooc_stream only"},
	{Name: "serve.req_p50_s", Unit: "s", Better: "lower", Moves: "is eval_s on the serve workloads, traced"},
	{Name: "serve.req_tail_s", Unit: "s", Better: "lower", Moves: "is tail_s on the serve workloads, traced"},
	{Name: "serve.req_p99_s", Unit: "s", Better: "lower", Moves: "tracked: too few samples beyond it in a 10 s pass to gate on"},
	{Name: "serve.handler_s", Unit: "s", Better: "lower", Moves: "eval_s on serve_small, serve_large"},
	{Name: "serve.eval_s", Unit: "s", Better: "lower", Moves: "eval_s on serve_large"},
	{Name: "serve.overhead_s", Unit: "s", Better: "lower", Moves: "eval_s, goodput_rps on serve_small; under 1% of serve_large"},
	{Name: "serve.transport_s", Unit: "s", Better: "lower", Moves: "eval_s on serve_small"},
	{Name: "serve.noop_req_s", Unit: "s", Better: "lower", Moves: "eval_s, goodput_rps on serve_small"},
	{Name: "serve.non200", Unit: "count", Better: "lower", Moves: "goodput_rps; must stay 0"},
	{Name: "workloads.datagen_s", Unit: "s", Better: "lower", Moves: "serve.eval_s, so eval_s on both serve workloads once generation is hoisted"},
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "eval_s nowhere (tracer nil); the price of this traced pass"},
	{Name: "obs.sinks_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "eval_s on serve_small (mozartd always traces)"},
	{Name: "obs.sinks_allocs_per_eval", Unit: "count", Better: "lower", Moves: "allocs_per_eval on serve_small"},
	{Name: "memsim.model_s", Unit: "s", Better: "lower", Moves: "nothing measured; a cost-table edit moves only this"},
	{Name: "memsim.model_over_measured", Unit: "ratio", Better: "lower", Moves: "tracked, gates nothing"},
	{Name: "goruntime.gc_cycles", Unit: "count", Better: "lower", Moves: "eval_s on frame_clean; tail_s on serve_small"},
	{Name: "goruntime.gc_pause_s", Unit: "s", Better: "lower", Moves: "eval_s on frame_clean; tail_s on serve_small"},
	{Name: "bench.traced_ops", Unit: "count", Better: "higher", Moves: "nothing; the sample count behind this pass"},
	{Name: "bench.fail_ratio", Unit: "ratio", Better: "lower", Moves: "every metric; must stay 0"},
}

// value is one reported metric. Q1, Q3 and N describe the samples the value
// is the median of; they are 0 for a metric derived from other medians.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// samples collects the per-cycle measurements of one pass by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) median(name string) float64 { return quantile(s[name], 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, and 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, and 0 when b is 0, so that a metric without a denominator on
// some workload reads 0 there and never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report fills out with the median, quartiles and count of every sample set
// whose name defs declares; sets under other names are a pass's scratch.
func report(out map[string]value, defs []metricDef, s samples) {
	for _, d := range defs {
		if xs, ok := s[d.Name]; ok {
			out[d.Name] = value{
				Value: quantile(xs, 0.5), Unit: d.Unit,
				Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs),
			}
		}
	}
}

// derive records a metric computed from other medians.
func derive(out map[string]value, defs []metricDef, name string, v float64) {
	out[name] = value{Value: v, Unit: unitOf(defs, name)}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// fillZero gives every declared metric the workload did not measure the
// value 0, so that every workload reports the same names.
func fillZero(out map[string]value, defs []metricDef) {
	for _, d := range defs {
		if _, ok := out[d.Name]; !ok {
			out[d.Name] = value{Unit: d.Unit}
		}
	}
}
