package core

import (
	"fmt"
	"slices"

	ir "mozart/internal/plan"
)

// resolved is the planner's resolution of one argument or return value: how
// (and whether) the value is split within the current stage.
type resolved struct {
	t        SplitType
	splitter Splitter // nil when deferred
	// The two flags sit together so that planCall's reuse field fits in the
	// bytes they used to pad: a plan is no larger for carrying it.
	broadcast bool
	deferred  bool // splitter (and real type) resolved from the default
	// registry at execution time; t is then a placeholder unknown used
	// only for compatibility decisions.
}

func (r resolved) compatible(o resolved) bool {
	if r.broadcast != o.broadcast {
		return false
	}
	if r.broadcast {
		return true
	}
	return r.t.Equal(o.t)
}

// planCall is one call inside a stage with fully resolved argument modes.
type planCall struct {
	n    *node
	args []resolved // carved from plan.res
	ret  resolved   // valid iff n.ret != nil
	// reuse says when the piece this call returned for a worker's previous
	// batch may be handed back to it as the next batch's destination
	// (classifyStages): reuseNever, reuseScratch, or 1 + the index in the
	// stage's outputs of the output that must be delivered by placement.
	reuse int32
}

const (
	// reuseNever: the function takes no destination, or someone may still
	// hold the piece (a reader that may have returned a view of it). It is
	// the zero value, so a call classifyStages says nothing about is safe.
	reuseNever int32 = 0
	// reuseScratch: the value lives and dies inside the batch.
	reuseScratch int32 = -1
)

// stageInput is a binding the stage must split at entry.
type stageInput struct {
	b *binding
	r resolved
}

// stageOutput is a binding the stage must merge (and possibly write back) at
// exit.
type stageOutput struct {
	b *binding
	r resolved
}

// planStage is an ordered pipeline of calls whose split types match (§5.1).
type planStage struct {
	calls     []planCall
	inputs    []stageInput
	outputs   []stageOutput
	broadcast []*binding // bindings used whole within the stage
	ir        *ir.Stage  // exported-IR mirror (set by buildIR)
	pipeline  string     // ir.Pipeline() — "a -> b -> c" for events — rendered once (set by buildIR)
}

// plan pairs the planner's live structures (bindings, splitters) with the
// exported IR snapshot the executor, the lowering pass, and Explain share.
type plan struct {
	stages []planStage
	ir     *ir.Plan
	// res backs every call's resolutions: the arguments in order, then the
	// return value when there is one — one allocation per plan, and what a
	// binding's planMark.ctx indexes.
	res []resolved
	// sig and tuned are set when the session has a Tuner: the structural
	// signature the decision was keyed on, and the decision itself (already
	// folded into ir.Batch/ir.Workers/ir.Provenance by applyTuner).
	sig   string
	tuned ir.BatchDecision
	// obsElems and obsBytes accumulate the split-stage element and byte
	// totals the executor actually processed, reported back to the Tuner
	// post-evaluation. Stages run sequentially, so plain adds suffice.
	obsElems int64
	obsBytes int64
}

// planMark is the planner's working state for one binding. It lives on the
// binding, so planning allocates none of it and looks nothing up, and it is
// never cleared: each group of fields is valid only under the epoch it was
// stamped with, and Session.nextEpoch hands out a fresh one per open stage,
// per classified stage and per plan.
type planMark struct {
	ctxAt, flagsAt, lastAt uint32
	ctx                    int32 // under ctxAt (an open stage): resolved as plan.res[ctx]
	last                   int32 // under lastAt (a plan): last stage whose calls read the binding
	flags                  uint8 // under flagsAt (a classified stage): mark* bits
}

const (
	markIn       uint8 = 1 << iota // split at stage entry
	markOut                        // merged at stage exit
	markBC                         // used whole within the stage
	markProduced                   // returned by a call of the stage
	markLive                       // counted in the stage's §5.2 working set
	markPinned                     // read by a call of the stage that may keep a view of it
)

func (s *Session) nextEpoch() uint32 {
	s.planEpoch++
	return s.planEpoch
}

// marked reports whether flag f is set on b under epoch e.
func (b *binding) marked(e uint32, f uint8) bool { return b.pm.flagsAt == e && b.pm.flags&f != 0 }

// mark sets flag f on b under epoch e and reports whether it already was.
func (b *binding) mark(e uint32, f uint8) bool {
	was := b.marked(e, f)
	if b.pm.flagsAt != e {
		b.pm.flagsAt, b.pm.flags = e, 0
	}
	b.pm.flags |= f
	return was
}

// carve cuts the next n elements off *rest, capped so that an append to the
// result cannot run into its neighbour.
func carve[T any](rest *[]T, n int) []T {
	out := (*rest)[:n:n]
	*rest = (*rest)[n:]
	return out
}

// errStageBreak signals that a node cannot join the current stage and a new
// stage must start (split data must be merged and re-split).
var errStageBreak = fmt.Errorf("stage break")

// resolveNode type-checks node n against the open stage (epoch open: a
// binding resolved in it points at its resolution in pl.res) and writes the
// per-argument resolutions into args, reporting whether any is split. A
// compatibility conflict returns errStageBreak. Nothing outside args is
// modified: buildPlan commits them to the stage once the node joins it.
func resolveNode(pl *plan, open uint32, n *node, args []resolved) (ret resolved, anySplit bool, err error) {
	fail := func(err error) (resolved, bool, error) { return resolved{}, false, err }
	if err := n.sa.Validate(); err != nil {
		return fail(err)
	}
	params := n.sa.Params

	// lookup finds how b is split once arguments before the i-th have had
	// their say: an earlier split argument of this call wins over the stage.
	lookup := func(b *binding, i int) *resolved {
		for j := i - 1; j >= 0; j-- {
			if n.args[j] == b && !args[j].broadcast {
				return &args[j]
			}
		}
		if b.pm.ctxAt == open {
			return &pl.res[b.pm.ctx]
		}
		return nil
	}
	// generic finds what an earlier parameter (before the i-th) bound the
	// generic name to.
	generic := func(name string, i int) *resolved {
		for j := 0; j < i; j++ {
			if params[j].Type.Kind == KindGeneric && params[j].Type.Generic == name {
				return &args[j]
			}
		}
		return nil
	}

	for i, p := range params {
		b := n.args[i]
		in := lookup(b, i)
		var r resolved
		switch p.Type.Kind {
		case KindMissing:
			if in != nil {
				// The call needs the whole value but it is split in
				// the open stage: merge first.
				return fail(errStageBreak)
			}
			r = resolved{broadcast: true}
		case KindConcrete:
			t, cerr := p.Type.Ctor(n.argVals)
			if cerr != nil {
				return fail(fmt.Errorf("mozart: %s: param %s: constructor: %w", n.sa.FuncName, p.Name, cerr))
			}
			r = resolved{t: t, splitter: p.Type.Splitter}
			if in != nil && !in.compatible(r) {
				return fail(errStageBreak)
			}
		case KindGeneric:
			if g := generic(p.Type.Generic, i); g != nil {
				if in != nil && !in.compatible(*g) {
					return fail(errStageBreak)
				}
				r = *g
			} else if in != nil {
				r = *in
			} else if d, ok := lookupDefaultSplit(n.argVals[i]); ok {
				// Fresh input bound to a generic: fall back to the
				// default split type for the data type …
				t, cerr := d.ctor(n.argVals[i])
				if cerr != nil {
					return fail(fmt.Errorf("mozart: %s: param %s: default constructor: %w", n.sa.FuncName, p.Name, cerr))
				}
				r = resolved{t: t, splitter: d.splitter}
			} else {
				// … or defer to execution time when the value is still lazy.
				r = resolved{t: NewUnknownType(), deferred: true}
			}
		case KindUnknown:
			return fail(fmt.Errorf("mozart: %s: param %s: unknown is only valid as a return type", n.sa.FuncName, p.Name))
		}
		args[i] = r
		anySplit = anySplit || !r.broadcast
	}

	// A mut argument with the missing "_" type is only sound when the whole
	// call runs unsplit: inside a split stage every pipeline would mutate
	// the same full value concurrently.
	if anySplit {
		for i, p := range params {
			if p.Mut && args[i].broadcast {
				return fail(fmt.Errorf("mozart: %s: param %s: mut with missing split type would race across pipelines", n.sa.FuncName, p.Name))
			}
		}
	}

	if n.sa.Ret != nil {
		rt := *n.sa.Ret
		switch rt.Kind {
		case KindMissing:
			return fail(fmt.Errorf("mozart: %s: return type cannot be missing; use a void function", n.sa.FuncName))
		case KindConcrete:
			t, cerr := rt.Ctor(n.argVals)
			if cerr != nil {
				return fail(fmt.Errorf("mozart: %s: return: constructor: %w", n.sa.FuncName, cerr))
			}
			ret = resolved{t: t, splitter: rt.Splitter}
		case KindGeneric:
			if g := generic(rt.Generic, len(params)); g != nil {
				ret = *g
			} else {
				// Unconstrained return generic: pieces merge via the
				// default splitter for their dynamic type.
				ret = resolved{t: NewUnknownType(), deferred: true}
			}
		case KindUnknown:
			ret = resolved{t: NewUnknownType(), deferred: true}
		}
	}
	return ret, anySplit, nil
}

// sameSpace reports whether call n, resolved as args, splits over the same
// element space as the open stage (epoch open, calls stage), so that it may
// join it. A call that shares a binding with the stage has had its types
// checked against the stage's by resolveNode. One that shares none joins
// only if the split type of each of its concrete parameters equals one the
// stage already resolved. Generic parameters join as they do otherwise: a
// deferred type is unknown until execution, and a default type (a Series'
// or an array's) names no annotation's element space to compare.
func sameSpace(open uint32, stage []planCall, n *node, args []resolved) bool {
	for _, b := range n.args {
		if b.pm.ctxAt == open {
			return true
		}
	}
	for i, p := range n.sa.Params {
		if p.Type.Kind == KindConcrete && !stageSplits(stage, args[i].t) {
			return false
		}
	}
	return true
}

// stageSplits reports whether a call of stage splits an argument or its
// return value by t.
func stageSplits(stage []planCall, t SplitType) bool {
	for _, c := range stage {
		for _, r := range c.args {
			if !r.broadcast && r.t.Equal(t) {
				return true
			}
		}
		if c.n.ret != nil && !c.ret.broadcast && c.ret.t.Equal(t) {
			return true
		}
	}
	return false
}

// buildPlan converts the pending dataflow graph into stages per §5.1: two
// adjacent calls share a stage iff every value passed between them has
// matching split types; otherwise the data is merged and a new stage begins.
// It also mirrors the result into the exported plan IR (internal/plan).
//
// peek makes planning read-only for Session.Plan: circuit breakers are
// consulted without the open → half-open transition (no probe is scheduled)
// and no binding is marked discarded, so a peeked plan never perturbs a
// later evaluation.
func (s *Session) buildPlan(peek bool) (*plan, error) {
	slots := 0
	for _, n := range s.nodes {
		slots += len(n.args)
		if n.ret != nil {
			slots++
		}
	}
	p := &plan{res: make([]resolved, slots)}
	rest := p.res
	// Stages are runs of calls, in program order: calls[lo:] is the open one.
	calls := make([]planCall, 0, len(s.nodes))
	lo := 0
	open := s.nextEpoch()

	flush := func() {
		if len(calls) > lo {
			p.stages = append(p.stages, planStage{calls: calls[lo:len(calls):len(calls)]})
			lo = len(calls)
		}
		open = s.nextEpoch()
	}

	for _, n := range s.nodes {
		off := len(p.res) - len(rest)
		args := carve(&rest, len(n.args))
		if n.ret != nil {
			rest = rest[1:] // p.res[off+len(args)], filled in on commit below
		}
		// Annotations with an open circuit breaker (FallbackQuarantine)
		// are not split: each runs whole, in its own stage, exactly like
		// a function Mozart cannot split. planWhole also moves a cooled-
		// down breaker to half-open, in which case this plan is the probe
		// and the annotation is split below.
		var whole bool
		if peek {
			whole = s.breakers.peekWhole(n.sa.FuncName)
		} else {
			var probing bool
			whole, probing = s.breakers.planWhole(n.sa.FuncName)
			if probing {
				s.emitBreaker(n.sa.FuncName, "half-open")
			}
		}
		ret, anySplit := resolved{broadcast: true}, false
		if whole {
			for i := range args {
				args[i] = resolved{broadcast: true}
			}
		} else {
			if s.opts.DisablePipelining {
				// Table 4's Mozart(-pipe): every call is its own stage, so
				// data is split and parallelized but never pipelined.
				flush()
			}
			var err error
			if ret, anySplit, err = resolveNode(p, open, n, args); err == errStageBreak {
				flush()
				ret, anySplit, err = resolveNode(p, open, n, args)
			}
			if err == errStageBreak {
				return nil, fmt.Errorf("mozart: %s: conflicting split types within a single call", n.sa.FuncName)
			} else if err != nil {
				return nil, err
			}
			if anySplit && len(calls) > lo && !sameSpace(open, calls[lo:], n, args) {
				// Sharing no binding with the open stage, the call was
				// checked against nothing in it: it starts its own. The
				// resolution stands, since it looked nothing up there.
				flush()
			}
		}
		// A call with no split arguments cannot be batched: it executes
		// whole, in its own stage (the way Mozart treats functions it
		// cannot split, e.g. indexing ops, §8.2).
		if !anySplit {
			flush()
			calls = append(calls, planCall{n: n, args: args, ret: ret})
			flush()
			continue
		}
		calls = append(calls, planCall{n: n, args: args, ret: ret})
		// The node joins the open stage: its split values are (or become)
		// split this way within it, and the same holds after mutation.
		for i := range args {
			if !args[i].broadcast {
				n.args[i].pm.ctxAt, n.args[i].pm.ctx = open, int32(off+i)
			}
		}
		if n.ret != nil {
			p.res[off+len(args)] = ret
			n.ret.pm.ctxAt, n.ret.pm.ctx = open, int32(off+len(args))
		}
	}
	flush()

	s.classifyStages(p, peek)
	s.buildIR(p)
	s.applyTuner(p)
	return p, nil
}

// classifyStages computes, per stage, which bindings are split inputs, which
// must be merged at stage exit, and which are broadcast — and, for each call
// registered through CallInto, whether the piece it returns is dead by the
// worker's next batch (planCall.reuse). That takes three things. The producer
// takes a destination. Every reader of the value inside the stage was
// registered through CallInto as well, so none returns or keeps a view of it:
// a reader still on Call (df.col, df.withColumn, an identity) pins what it
// reads for the whole stage, because its result may alias it and be collected.
// And the value is either not a stage output, or an output the executor
// delivers by placement, which copies the piece out before the batch ends;
// only the executor knows which outputs those are, so for an output the plan
// records its index and runBatch asks. Under peek, the
// discarded flag of pipelined-away bindings is left untouched.
func (s *Session) classifyStages(p *plan, peek bool) {
	// A binding read by this plan has lastAt == planAt and last = the index
	// of the last stage whose calls read it; used to decide which produced
	// values must be materialized.
	planAt := s.nextEpoch()
	for si := range p.stages {
		for _, c := range p.stages[si].calls {
			for _, b := range c.n.args {
				b.pm.lastAt, b.pm.last = planAt, int32(si)
			}
		}
	}

	for si := range p.stages {
		st := &p.stages[si]
		e := s.nextEpoch()
		for _, c := range st.calls {
			for ai, r := range c.args {
				b := c.n.args[ai]
				if c.n.into == nil {
					b.mark(e, markPinned)
				}
				if r.broadcast {
					if !b.mark(e, markBC) {
						st.broadcast = append(st.broadcast, b)
					}
					continue
				}
				if !b.marked(e, markProduced) && !b.mark(e, markIn) {
					st.inputs = append(st.inputs, stageInput{b: b, r: r})
				}
				// Mutated arguments: write back merged pieces unless the
				// splitter mutates in place (CapInPlace: the pieces alias
				// the original storage, so it is already up to date).
				if c.n.sa.Params[ai].Mut && !CapabilitiesOf(r.splitter).Has(CapInPlace) && !b.mark(e, markOut) {
					st.outputs = append(st.outputs, stageOutput{b: b, r: r})
				}
			}
			if rb := c.n.ret; rb != nil {
				rb.mark(e, markProduced)
				// A produced value is materialized (merged) iff the user
				// demanded it, a later stage reads it, or nothing reads it
				// at all (it is a user-visible result). Values consumed
				// only downstream within this stage are pipelined
				// intermediates and never materialized.
				consumed := rb.pm.lastAt == planAt
				need := rb.keep || !consumed || int(rb.pm.last) > si
				if need && !rb.mark(e, markOut) {
					st.outputs = append(st.outputs, stageOutput{b: rb, r: c.ret})
				} else if !need && !peek {
					rb.discarded = true
				}
			}
		}
		// Readers come after producers, and a later mut use can still make
		// a produced value an output: the marks are complete only now.
		for ci, c := range st.calls {
			rb := c.n.ret
			if c.n.into == nil || rb == nil || c.ret.broadcast || rb.marked(e, markPinned) {
				continue
			}
			st.calls[ci].reuse = reuseScratch
			if rb.marked(e, markOut) {
				st.calls[ci].reuse = 1 + int32(slices.IndexFunc(st.outputs, func(o stageOutput) bool { return o.b == rb }))
			}
		}
	}
}
