// Package workloads implements the paper's 15 evaluation workloads
// (Table 2), plus an out-of-core one. Each workload is one program, written
// once against the annotated wrappers over one *core.Session, and it runs
// in several execution variants:
//
//   - Base: the unmodified substrate library (vmath/tensor/frame/nlp/
//     imagelib). The program runs with a nil session, which calls each
//     library function at once (§4: the annotated library takes the
//     original's place and the application stays as it is). MKL gets
//     library-internal threads, as the real library has them.
//   - Mozart: the same program with a session: its calls are captured,
//     split, pipelined and run in parallel.
//   - MozartNoPipe: Mozart with pipelining disabled (Table 4's ablation).
//   - Weld: the weldsim fused-IR comparator, where expressible — a
//     different program by design, kept beside the workload's one.
//
// Spec.Prepare generates a workload's inputs and returns the Program that
// runs on them, so a harness can time the run without the generation.
//
// Each workload also exposes a memsim plan model so the multicore figures
// can be regenerated on a host with far fewer cores than 16 (see DESIGN.md).
package workloads

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"mozart/internal/core"
	"mozart/internal/memsim"
	"mozart/internal/obs"
	"mozart/internal/plan"
	"mozart/internal/vmath"
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
	// creates (used by the Figure 5 overhead-breakdown harness). Base
	// creates none.
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

// session is the one session a Mozart variant's program runs with: c's
// options, with pipelining off for MozartNoPipe, shown to OnSession.
func (c Config) session(v Variant) *core.Session {
	o := c.options()
	o.DisablePipelining = v == MozartNoPipe
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
	// Prepare generates the workload's inputs for cfg and returns the
	// program that runs on them.
	Prepare func(cfg Config) (*Program, error)
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

// Run prepares the workload for cfg and runs it under variant v. It returns
// a checksum over the result for cross-variant validation.
func (s Spec) Run(v Variant, cfg Config) (float64, error) {
	p, err := s.Prepare(cfg)
	if err != nil {
		return 0, err
	}
	return p.Run(v)
}

// Program is one workload's generated inputs and the code that runs on
// them, made by Spec.Prepare. It runs once: nbody, shallow water and the
// image filters update their inputs in place, so a second Run is an error
// rather than a computation over spent inputs.
type Program struct {
	cfg Config
	// pipeline is the workload. Base runs it with a nil session, which
	// calls the library eagerly; Mozart and MozartNoPipe with a session.
	pipeline func(s *core.Session) (float64, error)
	// mkl marks a pipeline over vmath, whose Base gets cfg.Threads
	// library-internal threads (mkl_set_num_threads).
	mkl bool
	// base, when set, is what Base runs instead of the pipeline: a
	// library-only program of its own (blackscholes-ooc's hand-rolled
	// chunked streaming).
	base func() (float64, error)
	// weld is the weldsim comparator; nil where the workload has none.
	weld func(threads int) (float64, error)
	ran  bool
}

// errRan is a second Run of one Program.
var errRan = errors.New("workloads: program already ran; Prepare another")

// Run runs the program under variant v: the one place a variant is chosen.
func (p *Program) Run(v Variant) (float64, error) {
	if p.ran {
		return 0, errRan
	}
	p.ran = true
	switch v {
	case Base:
		if p.base != nil {
			return p.base()
		}
		if p.mkl {
			old := vmath.NumThreads()
			vmath.SetNumThreads(p.cfg.Threads)
			defer vmath.SetNumThreads(old)
		}
		return p.pipeline(nil)
	case Mozart, MozartNoPipe:
		return p.pipeline(p.cfg.session(v))
	case Weld:
		if p.weld != nil {
			return p.weld(p.cfg.Threads)
		}
	}
	return 0, errUnsupported(v)
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
