// Package plan defines Mozart's explicit plan intermediate representation
// (IR): the output of the §5.1 planner as a plain, inspectable value.
//
// One plan, three consumers:
//
//   - internal/core executes the IR's stages for real (split, pipeline,
//     batch, merge);
//   - internal/planlower compiles the IR plus per-call cost specs into a
//     memsim.Workload, so modeled figures derive from actual planner
//     output instead of hand-maintained parallel models;
//   - Session.Plan / mozart.Explain render the IR as an EXPLAIN-style tree,
//     and the obs plan event uses the same compact rendering.
//
// The IR is a snapshot: it references dataflow values by binding id and
// records split types as rendered strings. It holds no live bindings,
// splitters, or session state, so holding a Plan never affects execution.
//
// A Plan is immutable from the moment the runtime hands it to
// core.Options.OnPlan: the planner builds a fresh one per evaluation and the
// runtime never writes to it again, and consumers must not either. That is
// what lets sinks (obs.FlightRecorder, httpdebug.PlanLog) retain the
// pointer and call Render only when somebody reads them — the text produced
// then is the text an eager rendering would have stored.
package plan

import (
	"strconv"
	"strings"
)

// StageKind says how a stage executes.
type StageKind int

const (
	// StageSplit is the §5.2 path: inputs are split into batches, the
	// stage's calls pipeline over each batch in parallel, outputs merge.
	StageSplit StageKind = iota
	// StageWhole runs every call once over full values on one thread —
	// the way Mozart treats functions it cannot split (all-broadcast
	// calls, quarantined annotations).
	StageWhole
)

func (k StageKind) String() string {
	if k == StageWhole {
		return "whole"
	}
	return "split"
}

// Defaults for the §5.2 batch heuristic, shared by the real executor
// (core.Options) and the modeled workloads (internal/workloads): batch =
// Constant × L2CacheBytes / Σ elemBytes.
const (
	// DefaultL2CacheBytes is the per-core L2 size of the paper's Xeon
	// E5-2676 v3.
	DefaultL2CacheBytes = int64(256 << 10)
	// DefaultBatchConstant leaves room for intermediates in the shared
	// LLC, as the paper describes.
	DefaultBatchConstant = 4.0
)

// BatchPolicy is the §5.2 batch-size rule recorded in a plan. The zero
// value means "heuristic with default constants".
type BatchPolicy struct {
	// FixedElems, when positive, overrides the heuristic with a fixed
	// number of elements per batch (the Fig. 6 sweep).
	FixedElems int64
	// Constant is C in batch = C × L2 / s; 0 means DefaultBatchConstant.
	Constant float64
	// L2CacheBytes is the modeled per-core L2 size; 0 means
	// DefaultL2CacheBytes.
	L2CacheBytes int64
}

// CacheTargetBytes is the heuristic's C×L2 working-set target, the
// denominator of cache-utilization metrics.
func (p BatchPolicy) CacheTargetBytes() int64 {
	c, l2 := p.Constant, p.L2CacheBytes
	if c <= 0 {
		c = DefaultBatchConstant
	}
	if l2 <= 0 {
		l2 = DefaultL2CacheBytes
	}
	return int64(c * float64(l2))
}

// Elems returns the batch size in elements for a stage whose per-element
// working set is sumElemBytes (see StageBytes). total, when positive,
// clamps the result to [1, total]; total <= 0 applies no upper clamp.
func (p BatchPolicy) Elems(sumElemBytes, total int64) int64 {
	b := p.FixedElems
	if b <= 0 {
		if sumElemBytes <= 0 {
			sumElemBytes = 1
		}
		b = p.CacheTargetBytes() / sumElemBytes
	}
	if total > 0 && b > total {
		b = total
	}
	if b < 1 {
		b = 1
	}
	return b
}

// StageBytes is the §5.2 per-element working-set model s for one stage:
// the summed element widths of the stage's split inputs, plus one
// estimated width per value produced inside the stage that stays live per
// batch (pipelined intermediates and element-wise results — a Stage's Live
// list). Produced values have no materialized storage at planning time, so
// each is estimated at the mean known input width; fallbackWidth is used
// when no input width is known (pass 0 to make unknown-width stages
// behave as if nothing were produced).
func StageBytes(inputWidths []int64, produced int, fallbackWidth int64) int64 {
	var sum, knownSum, known int64
	for _, w := range inputWidths {
		if w > 0 {
			sum += w
			knownSum += w
			known++
		}
	}
	if produced > 0 {
		width := fallbackWidth
		if known > 0 {
			width = knownSum / known
		}
		sum += int64(produced) * width
	}
	return sum
}

// Arg is one argument (or the return value) of a planned call.
type Arg struct {
	// Binding is the dataflow value's id within the session graph. Ids
	// are stable across the plan: two Args with the same Binding name the
	// same value.
	Binding int
	// Name is the parameter name from the annotation ("ret" for returns).
	Name string
	// Broadcast marks a value passed whole to every piece (the
	// annotation's "_" type).
	Broadcast bool
	// Mut marks arguments the call mutates.
	Mut bool
	// Split is the rendered split type ("ArraySplit<1024>"), "_" for
	// broadcast values, or "deferred" when the splitter is resolved from
	// the default registry at execution time.
	Split string
	// Deferred mirrors Split == "deferred".
	Deferred bool
}

// Call is one library call inside a stage.
type Call struct {
	// Name is the annotated function name.
	Name string
	Args []Arg
	// Ret is nil for void functions.
	Ret *Arg
	// RetDiscarded marks a result that is pipelined away and never
	// materialized: every consumer sits later in the same stage, so its
	// batch pieces die in cache (the planner's materialization rule).
	RetDiscarded bool
	// RetReduced marks a result whose split type matches no split
	// argument of the call — a reduction or type-changing result
	// (AddReduce, GroupSplit, unknown-returning filters). Reduced results
	// are excluded from the §5.2 working set and lower to scalars.
	RetReduced bool
}

// Value is a stage boundary value: an input split at stage entry or an
// output merged at stage exit.
type Value struct {
	Binding int
	// Split is the rendered split type (or "deferred").
	Split string
	// Elems and ElemBytes are best-effort runtime dimensions probed at
	// planning time; -1 when unknown (lazy or deferred values, outputs).
	Elems     int64
	ElemBytes int64
	// Caps is the rendered splitter capability set the executor will act on
	// ("inplace|view|window|codec" joined for the declared subset); empty
	// when the splitter has no optional capabilities or is unresolved at
	// planning time.
	Caps string
}

// Stage is an ordered pipeline of calls whose split types match (§5.1).
type Stage struct {
	Kind  StageKind
	Calls []Call
	// Inputs are the bindings split at stage entry, in first-use order.
	Inputs []Value
	// Outputs are the bindings merged (and possibly written back) at
	// stage exit.
	Outputs []Value
	// Broadcast lists bindings used whole within the stage, sorted.
	Broadcast []int
	// Live lists bindings produced by the stage's calls whose results
	// stay live per batch (element-wise returns, whether pipelined away
	// or merged at exit — everything except Reduced results), sorted.
	// Together with Inputs these form the §5.2 working set.
	Live []int
}

// Plan is one evaluation's execution plan.
type Plan struct {
	Stages []Stage
	// Batch is the batch-size rule stages are executed with.
	Batch BatchPolicy
	// Pipelining is false under the Mozart(-pipe) ablation, where every
	// call plans into its own stage.
	Pipelining bool
	// Provenance records where Batch came from: the static §5.2 heuristic
	// (the zero value), or a BatchSource override mid-sweep or after
	// calibration converged.
	Provenance BatchProvenance
	// Workers, when positive, is a BatchSource worker-count override for
	// this evaluation; 0 means the session's configured worker count.
	Workers int
}

// Pipeline renders the stage's call chain as "a -> b -> c", in one
// allocation.
func (st *Stage) Pipeline() string {
	const sep = " -> "
	n := 0
	for _, c := range st.Calls {
		n += len(c.Name) + len(sep)
	}
	var b strings.Builder
	b.Grow(n)
	for i, c := range st.Calls {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(c.Name)
	}
	return b.String()
}

// SplitLabel names the stage's split type: the first input with a non-zero
// element width (so size-only splits like SizeSplit do not mask the data
// split), falling back to the first input; "whole" for unsplit stages.
func (st *Stage) SplitLabel() string {
	if st.Kind == StageWhole || len(st.Inputs) == 0 {
		return "whole"
	}
	for _, in := range st.Inputs {
		if in.ElemBytes != 0 {
			return in.Split
		}
	}
	return st.Inputs[0].Split
}

// InputWidths returns the inputs' element widths as StageBytes expects
// them (-1 unknowns pass through as non-positive and are ignored).
func (st *Stage) InputWidths() []int64 {
	ws := make([]int64, len(st.Inputs))
	for i, in := range st.Inputs {
		ws[i] = in.ElemBytes
	}
	return ws
}

// WorkingSetBytes is the stage's §5.2 per-element working set from
// plan-time knowledge: input widths plus estimated widths of Live values.
func (st *Stage) WorkingSetBytes() int64 {
	return StageBytes(st.InputWidths(), len(st.Live), 0)
}

// Elems is the stage's element count when any input knows it, else -1.
func (st *Stage) Elems() int64 {
	for _, in := range st.Inputs {
		if in.Elems >= 0 {
			return in.Elems
		}
	}
	return -1
}

// Summary renders the stage as one line, "stage 2 [a -> b] split[X]" — the
// per-stage string shared verbatim by Describe (the obs plan event) and
// Render (Explain), which tests hold identical.
func (st *Stage) Summary(i int) string {
	return "stage " + strconv.Itoa(i) + " [" + st.Pipeline() + "] split[" + st.SplitLabel() + "]"
}

// Describe renders the plan compactly, one clause per stage, for the obs
// plan event: "stage 0 [a -> b] split[X]; stage 1 [c] split[whole]".
func (p *Plan) Describe() string {
	out := ""
	for i := range p.Stages {
		if i > 0 {
			out += "; "
		}
		out += p.Stages[i].Summary(i)
	}
	return out
}
