package core

import (
	"fmt"

	ir "mozart/internal/plan"
)

// resolved is the planner's resolution of one argument or return value: how
// (and whether) the value is split within the current stage.
type resolved struct {
	broadcast bool
	t         SplitType
	splitter  Splitter // nil when deferred
	deferred  bool     // splitter (and real type) resolved from the default
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
	args []resolved
	ret  resolved // valid iff n.ret != nil
}

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

// errStageBreak signals that a node cannot join the current stage and a new
// stage must start (split data must be merged and re-split).
var errStageBreak = fmt.Errorf("stage break")

// resolveNode type-checks node n against the split context ctx (binding id →
// resolution within the open stage). On success it returns the per-arg and
// return resolutions and leaves the ctx updates this node introduces in
// updates. A compatibility conflict returns errStageBreak. ctx is not
// modified. updates and generics are scratch maps owned by buildPlan and
// cleared here, so a plan of many calls allocates them once.
func resolveNode(n *node, ctx, updates map[int]resolved, generics map[string]resolved) (args []resolved, ret resolved, err error) {
	if err := n.sa.Validate(); err != nil {
		return nil, resolved{}, err
	}
	clear(updates)
	clear(generics)
	args = make([]resolved, len(n.args))

	lookup := func(b *binding) (resolved, bool) {
		if r, ok := updates[b.id]; ok {
			return r, true
		}
		r, ok := ctx[b.id]
		return r, ok
	}

	for i, p := range n.sa.Params {
		b := n.args[i]
		in, hasIn := lookup(b)
		var r resolved
		switch p.Type.Kind {
		case KindMissing:
			if hasIn && !in.broadcast {
				// The call needs the whole value but it is split in
				// the open stage: merge first.
				return nil, resolved{}, errStageBreak
			}
			r = resolved{broadcast: true}
		case KindConcrete:
			t, cerr := p.Type.Ctor(n.argVals)
			if cerr != nil {
				return nil, resolved{}, fmt.Errorf("mozart: %s: param %s: constructor: %w", n.sa.FuncName, p.Name, cerr)
			}
			r = resolved{t: t, splitter: p.Type.Splitter}
			if hasIn && !in.compatible(r) {
				return nil, resolved{}, errStageBreak
			}
		case KindGeneric:
			if g, bound := generics[p.Type.Generic]; bound {
				if hasIn && !in.compatible(g) {
					return nil, resolved{}, errStageBreak
				}
				r = g
			} else if hasIn {
				if in.broadcast {
					return nil, resolved{}, errStageBreak
				}
				r = in
				generics[p.Type.Generic] = r
			} else {
				// Fresh input bound to a generic: fall back to the
				// default split type for the data type, or defer to
				// execution time when the value is still lazy.
				if d, ok := lookupDefaultSplit(n.argVals[i]); ok {
					t, cerr := d.ctor(n.argVals[i])
					if cerr != nil {
						return nil, resolved{}, fmt.Errorf("mozart: %s: param %s: default constructor: %w", n.sa.FuncName, p.Name, cerr)
					}
					r = resolved{t: t, splitter: d.splitter}
				} else {
					r = resolved{t: NewUnknownType(), deferred: true}
				}
				generics[p.Type.Generic] = r
			}
		case KindUnknown:
			return nil, resolved{}, fmt.Errorf("mozart: %s: param %s: unknown is only valid as a return type", n.sa.FuncName, p.Name)
		}
		args[i] = r
		if !r.broadcast {
			// The value is (or becomes) split this way within the stage;
			// the same holds after mutation.
			updates[b.id] = r
		}
	}

	// A mut argument with the missing "_" type is only sound when the whole
	// call runs unsplit: inside a split stage every pipeline would mutate
	// the same full value concurrently.
	anySplit := false
	for _, r := range args {
		if !r.broadcast {
			anySplit = true
			break
		}
	}
	if anySplit {
		for i, p := range n.sa.Params {
			if p.Mut && args[i].broadcast {
				return nil, resolved{}, fmt.Errorf("mozart: %s: param %s: mut with missing split type would race across pipelines", n.sa.FuncName, p.Name)
			}
		}
	}

	if n.sa.Ret != nil {
		rt := *n.sa.Ret
		switch rt.Kind {
		case KindMissing:
			return nil, resolved{}, fmt.Errorf("mozart: %s: return type cannot be missing; use a void function", n.sa.FuncName)
		case KindConcrete:
			t, cerr := rt.Ctor(n.argVals)
			if cerr != nil {
				return nil, resolved{}, fmt.Errorf("mozart: %s: return: constructor: %w", n.sa.FuncName, cerr)
			}
			ret = resolved{t: t, splitter: rt.Splitter}
		case KindGeneric:
			if g, bound := generics[rt.Generic]; bound {
				ret = g
			} else {
				// Unconstrained return generic: pieces merge via the
				// default splitter for their dynamic type.
				ret = resolved{t: NewUnknownType(), deferred: true}
			}
		case KindUnknown:
			ret = resolved{t: NewUnknownType(), deferred: true}
		}
		updates[n.ret.id] = ret
	}
	return args, ret, nil
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
	p := &plan{}
	ctx := map[int]resolved{}
	updates, generics := map[int]resolved{}, map[string]resolved{}
	var cur []planCall

	flush := func() {
		if len(cur) > 0 {
			p.stages = append(p.stages, planStage{calls: cur})
			cur = nil
		}
		clear(ctx)
	}

	for _, n := range s.nodes {
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
		if whole {
			flush()
			args := make([]resolved, len(n.args))
			for i := range args {
				args[i] = resolved{broadcast: true}
			}
			p.stages = append(p.stages, planStage{calls: []planCall{{n: n, args: args, ret: resolved{broadcast: true}}}})
			continue
		}
		if s.opts.DisablePipelining {
			// Table 4's Mozart(-pipe): every call is its own stage, so
			// data is split and parallelized but never pipelined.
			flush()
		}
		args, ret, err := resolveNode(n, ctx, updates, generics)
		if err == errStageBreak {
			flush()
			args, ret, err = resolveNode(n, ctx, updates, generics)
		}
		if err != nil {
			if err == errStageBreak {
				return nil, fmt.Errorf("mozart: %s: conflicting split types within a single call", n.sa.FuncName)
			}
			return nil, err
		}
		// A call with no split arguments cannot be batched: it executes
		// whole, in its own stage (the way Mozart treats functions it
		// cannot split, e.g. indexing ops, §8.2).
		allBroadcast := true
		for _, r := range args {
			if !r.broadcast {
				allBroadcast = false
				break
			}
		}
		if allBroadcast {
			flush()
			p.stages = append(p.stages, planStage{calls: []planCall{{n: n, args: args, ret: ret}}})
			continue
		}
		cur = append(cur, planCall{n: n, args: args, ret: ret})
		for id, r := range updates {
			ctx[id] = r
		}
	}
	flush()

	s.classifyStages(p, peek)
	s.buildIR(p)
	s.applyTuner(p)
	return p, nil
}

// classifyStages computes, per stage, which bindings are split inputs, which
// must be merged at stage exit, and which are broadcast. Under peek, the
// discarded flag of pipelined-away bindings is left untouched.
func (s *Session) classifyStages(p *plan, peek bool) {
	// lastConsumed[bid] = index of the last stage whose calls read binding
	// bid; used to decide which produced values must be materialized.
	lastConsumed := map[int]int{}
	for si := range p.stages {
		for _, c := range p.stages[si].calls {
			for _, b := range c.n.args {
				lastConsumed[b.id] = si
			}
		}
	}

	for si := range p.stages {
		st := &p.stages[si]
		seenIn := map[int]bool{}
		seenOut := map[int]bool{}
		seenBC := map[int]bool{}
		producedHere := map[int]bool{}
		for _, c := range st.calls {
			for ai, r := range c.args {
				b := c.n.args[ai]
				if r.broadcast {
					if !seenBC[b.id] {
						seenBC[b.id] = true
						st.broadcast = append(st.broadcast, b)
					}
					continue
				}
				if !producedHere[b.id] && !seenIn[b.id] {
					seenIn[b.id] = true
					st.inputs = append(st.inputs, stageInput{b: b, r: r})
				}
				// Mutated arguments: write back merged pieces unless the
				// splitter mutates in place (CapInPlace: the pieces alias
				// the original storage, so it is already up to date).
				if c.n.sa.Params[ai].Mut && !seenOut[b.id] {
					if !CapabilitiesOf(r.splitter).Has(CapInPlace) {
						seenOut[b.id] = true
						st.outputs = append(st.outputs, stageOutput{b: b, r: r})
					}
				}
			}
			if c.n.ret != nil {
				rb := c.n.ret
				producedHere[rb.id] = true
				// A produced value is materialized (merged) iff the user
				// demanded it, a later stage reads it, or nothing reads it
				// at all (it is a user-visible result). Values consumed
				// only downstream within this stage are pipelined
				// intermediates and never materialized.
				last, consumed := lastConsumed[rb.id]
				need := rb.keep || !consumed || last > si
				if need && !seenOut[rb.id] {
					seenOut[rb.id] = true
					st.outputs = append(st.outputs, stageOutput{b: rb, r: c.ret})
				} else if !need && !peek {
					rb.discarded = true
				}
			}
		}
	}
}
