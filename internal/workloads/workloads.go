// Package workloads implements the paper's 15 evaluation workloads
// (Table 2), each in several execution variants:
//
//   - Base: the unmodified substrate library (vmath/tensor/frame/nlp/
//     imagelib), using the library's own internal parallelism where the
//     real library has it (MKL, ImageMagick).
//   - Mozart: the same library calls through split annotations.
//   - MozartNoPipe: Mozart with pipelining disabled (Table 4's ablation).
//   - Weld: the weldsim fused-IR comparator, where expressible.
//
// Each workload also exposes a memsim plan model so the multicore figures
// can be regenerated on a host with far fewer cores than 16 (see DESIGN.md).
package workloads

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mozart/internal/core"
	"mozart/internal/memsim"
	"mozart/internal/obs"
	"mozart/internal/plan"
)

// Variant selects an execution strategy.
type Variant string

// Execution variants.
const (
	Base         Variant = "base"
	Mozart       Variant = "mozart"
	MozartNoPipe Variant = "mozart-nopipe"
	Weld         Variant = "weld"
)

// Config parameterizes a run.
type Config struct {
	Scale   int   // elements / rows / pixels, workload-specific meaning
	Threads int   // worker threads (and library-internal threads for Base)
	Batch   int64 // Mozart batch override; 0 = the C*L2 heuristic
	// OnSession, when set, observes every Mozart session a workload
	// creates (used by the Figure 5 overhead-breakdown harness).
	OnSession func(*core.Session)
	// Tracer, when set, receives structured runtime events from every
	// Mozart session a workload creates (sabench -experiment trace).
	Tracer obs.Tracer
	// OnPlan, when set, receives the plan IR of every evaluation in every
	// Mozart session a workload creates (the plan-to-model consistency
	// tests and sabench -experiment explain).
	OnPlan func(*plan.Plan)
	// Ctx, when set, bounds every Mozart evaluation the workload runs:
	// its deadline and cancellation reach explicit EvaluateContext calls
	// and — via core.Options.BaseContext — the lazy Future reads inside
	// frame/nlp/image workloads that never see a context parameter. Nil
	// means context.Background(). This is how mozartd propagates a
	// request's deadline (and client disconnects) into a running
	// workload.
	Ctx context.Context
	// The remaining fields are the tenant-scoped resilience knobs mozartd
	// plumbs per request; zero values leave each mechanism off, exactly
	// as before.
	Governor     *core.Governor     // stage-admission byte budget, shareable
	Breakers     *core.BreakerGroup // shared per-annotation circuit breakers
	Fallback     core.FallbackPolicy
	Retry        core.RetryPolicy
	StageTimeout time.Duration
	// OutOfCore opts the workload's sessions into streaming degradation:
	// stages whose working set exceeds the Governor budget execute in
	// admission-bounded windows (spilling merge partials) instead of
	// blocking. SpillDir overrides the spill directory (OS temp dir when
	// empty).
	OutOfCore bool
	SpillDir  string
	// Tuner, when set, closes the telemetry→plan loop for every Mozart
	// session the workload creates (core.Options.Tuner): the planner
	// consults it for batch/worker overrides and the executor reports
	// measured throughput back. Typically a *tune.Tuner shared across
	// evaluations so calibration state accumulates.
	Tuner plan.BatchSource
	// Trace, when set, is the request-scoped trace context stamped onto
	// the sessions' begin/end events (core.Options.Trace) — how mozartd
	// keys flight recordings and latency exemplars by the originating
	// request's trace id.
	Trace *obs.TraceContext
}

// ctx resolves the evaluation context (Config.Ctx or Background).
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c Config) options() core.Options {
	o := core.Options{
		Workers:        c.Threads,
		BatchElems:     c.Batch,
		Tracer:         c.Tracer,
		OnPlan:         c.OnPlan,
		Governor:       c.Governor,
		Breakers:       c.Breakers,
		FallbackPolicy: c.Fallback,
		RetryPolicy:    c.Retry,
		StageTimeout:   c.StageTimeout,
		OutOfCore:      c.OutOfCore,
		SpillDir:       c.SpillDir,
		Tuner:          c.Tuner,
		Trace:          c.Trace,
	}
	if c.Ctx != nil {
		ctx := c.Ctx
		o.BaseContext = func() context.Context { return ctx }
	}
	return o
}

func (c Config) session() *core.Session {
	s := core.NewSession(c.options())
	if c.OnSession != nil {
		c.OnSession(s)
	}
	return s
}

func (c Config) sessionNoPipe() *core.Session {
	o := c.options()
	o.DisablePipelining = true
	s := core.NewSession(o)
	if c.OnSession != nil {
		c.OnSession(s)
	}
	return s
}

// Spec describes one workload.
type Spec struct {
	Name        string
	Library     string // base library, as in the Figure 4 captions
	Description string
	Operators   int // library API calls on the hot path (Table 2)
	// BaseParallel marks libraries that already parallelize internally
	// (MKL, ImageMagick); single-threaded bases (NumPy, Pandas, spaCy)
	// ignore the thread count, as in Figure 4.
	BaseParallel bool
	Variants     []Variant
	// Run executes the workload and returns a checksum over its result for
	// cross-variant validation.
	Run func(v Variant, cfg Config) (float64, error)
	// Model returns the memsim plan for a variant (nil if not modeled).
	Model func(v Variant, cfg Config) *memsim.Workload
	// DefaultScale is the scale used by figure regeneration.
	DefaultScale int
}

var registry []Spec

func register(s Spec) { registry = append(registry, s) }

// figOrder is the Figure 4 panel order (4a through 4o).
var figOrder = []string{
	"blackscholes-numpy", "haversine-numpy", "nbody-numpy", "shallowwater-numpy",
	"datacleaning-pandas", "crimeindex-pandas", "birthanalysis-pandas", "movielens-pandas",
	"speechtag-spacy",
	"blackscholes-mkl", "haversine-mkl", "nbody-mkl", "shallowwater-mkl",
	"nashville-imagemagick", "gotham-imagemagick",
	"blackscholes-ooc",
}

// All returns every workload spec, in Figure 4 order.
func All() []Spec {
	rank := map[string]int{}
	for i, n := range figOrder {
		rank[n] = i
	}
	out := append([]Spec(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return rank[out[i].Name] < rank[out[j].Name] })
	return out
}

// ByName returns the named spec.
func ByName(name string) (Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// HasVariant reports whether the spec supports v.
func (s Spec) HasVariant(v Variant) bool {
	for _, x := range s.Variants {
		if x == v {
			return true
		}
	}
	return false
}

// checksum helpers

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
