package main

import (
	"fmt"
	"runtime/debug"
	"time"
)

// workloadDef is one of the seven workloads. Exactly one of session and
// serve is set.
type workloadDef struct {
	name string
	why  string // recorded in BENCHMARK.json
	// tailQ is the quantile tail_s reports, chosen per workload for the
	// samples it is taken over: the upper quartile of a session workload's
	// few dozen evaluations, p90 of serve_large's 60-request blocks, p95 of
	// serve_small's 1,000-request blocks.
	tailQ   float64
	session func(seed int64, sz sizes, workdir string) (*sessionCase, error)
	serve   *serveDef
}

var allWorkloads = []workloadDef{
	{
		name:    "chain_membound",
		why:     "10 cheap in-place vmath calls over 256 MiB, 4x the last-level cache: DRAM-bound, so cache-sized batching does the work and kernels little",
		tailQ:   0.75,
		session: setupChain,
	},
	{
		name:    "blackscholes_compute",
		why:     "the 31-call Black Scholes program at 2^20 options: compute-bound control, runtime-layer work should be invisible and only a kernel change shows",
		tailQ:   0.75,
		session: setupBlackScholes,
	},
	{
		name:    "tiny_pipeline",
		why:     "new session, Add+Mul over 64 elements: kernels cost nothing, so this is the fixed cost of one evaluation (capture, plan, pools, dispatch)",
		tailQ:   0.75,
		session: setupTiny,
	},
	{
		name:    "frame_clean",
		why:     "8-call data-cleaning chain over a 2^20-row string column: out-of-place futures, Series splits, stitch merges, allocation- and GC-heavy",
		tailQ:   0.75,
		session: setupFrame,
	},
	{
		name:    "ooc_stream",
		why:     "lazy Black Scholes generator under a memory budget of a quarter of its working set: the streaming executor and the spill store",
		tailQ:   0.75,
		session: setupOOC,
	},
	{
		name:  "serve_large",
		why:   "closed-loop POST /v1/eval of blackscholes-mkl at scale 65536, 2 clients: evaluation dominates the request, two sessions contend for 2 cores",
		tailQ: 0.90,
		serve: &serveDef{
			mix:   []mixEntry{{"blackscholes-mkl", 1}},
			limit: 50 * time.Millisecond,
			size:  func(sz sizes) serveSize { return sz.large },
		},
	},
	{
		name:  "serve_small",
		why:   "seeded 3:1:1 mix of three workloads at scale 256, 2 clients: request path and per-evaluation fixed cost under the server's full option set",
		tailQ: 0.95,
		serve: &serveDef{
			mix:   []mixEntry{{"blackscholes-mkl", 3}, {"haversine-mkl", 1}, {"datacleaning-pandas", 1}},
			limit: 10 * time.Millisecond,
			size:  func(sz sizes) serveSize { return sz.small },
		},
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// setupRounds is how many times a run sets the workload up: set-up time is
// one short interval, so its median over several is what gets reported.
const setupRounds = 5

// workloadResult is everything one run of one workload measured.
type workloadResult struct {
	Name     string      `json:"name"`
	EndToEnd *passResult `json:"end_to_end,omitempty"`
	PerLayer *passResult `json:"per_layer,omitempty"`
}

// runWorkload sets the workload up from the seed, with no timer running on
// the measured passes yet, then runs the passes asked for. Set-up covers
// input generation, server boot and one warm-up cycle.
func runWorkload(w workloadDef, cfg runConfig, endToEndPass, tracedPass bool) (workloadResult, error) {
	res := workloadResult{Name: w.name}
	cfg.spans.setWorkload(w.name)
	if w.name != "chain_membound" {
		cfg.extra = nil // the self-test slows one workload and leaves the rest as controls
	}
	var setups []float64
	var sc *sessionCase
	var sv *serveCase
	for round := 0; round < setupRounds; round++ {
		if sv != nil {
			if err := sv.close(); err != nil {
				return res, err
			}
		}
		if sc != nil && sc.close != nil {
			sc.close()
		}
		// Each round starts the way a new process does, from an empty heap
		// whose pages the operating system has yet to hand over; what the
		// round (or the workload) before left is collected and returned now,
		// not in the background of the measurements.
		sc, sv = nil, nil
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		if w.serve != nil {
			sv, err = setupServe(*w.serve, cfg.seed, cfg.sizes, cfg.workdir)
		} else if sc, err = w.session(cfg.seed, cfg.sizes, cfg.workdir); err == nil {
			err = warmUp(sc)
		}
		if err != nil {
			return res, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if sv != nil {
		defer sv.close()
	} else if sc.close != nil {
		defer sc.close()
	}
	if endToEndPass {
		if sv != nil {
			res.EndToEnd = serveEndToEnd(sv, cfg, w.tailQ)
		} else {
			res.EndToEnd = sessionEndToEnd(sc, cfg, w.tailQ)
		}
		report(res.EndToEnd.Metrics, endToEnd, samples{"setup_s": setups})
	}
	if tracedPass {
		if sv != nil {
			res.PerLayer = serveTraced(sv, *w.serve, cfg, w.tailQ)
		} else {
			res.PerLayer = sessionTraced(sc, cfg)
		}
		fillZero(res.PerLayer.Metrics, perLayer)
		derive(res.PerLayer.Metrics, perLayer, "bench.fail_ratio",
			ratio(float64(res.PerLayer.Failed), float64(res.PerLayer.Attempted)))
	}
	return res, nil
}

// warmUp is the one untimed cycle before measurement: every variant runs
// once, so pools are filled and pages are touched, and the oracle has a base
// result to compare with.
func warmUp(c *sessionCase) error {
	var r passResult
	r.timeBase(c, workers)
	r.timeEval(c, runConfig{}.opts(workers))
	r.timeEval(c, runConfig{}.opts(1))
	if r.Failed > 0 {
		return fmt.Errorf("warm-up: %s", r.Failures[0])
	}
	return nil
}
