package core

import (
	"sort"

	ir "mozart/internal/plan"
)

// This file converts the planner's private structures (planStage, resolved)
// into the exported plan IR (internal/plan). The IR is the single plan
// datum consumed by the executor (batch byte model, event strings), by
// internal/planlower (memsim models), and by Session.Plan / mozart.Explain
// (EXPLAIN rendering) — one plan, three consumers.

// splitNames renders each distinct split type of a plan once: a program's
// arguments share a handful of types, and SplitType.String allocates.
type splitNames []splitName

type splitName struct {
	t    SplitType
	name string
}

// of renders a resolution the way the IR records split types: "_" for
// broadcast, "deferred" when the splitter is resolved from the default
// registry at execution time (never the process-global unknown#N counter,
// which would make renderings nondeterministic), and the concrete split type
// otherwise.
func (c *splitNames) of(r resolved) string {
	switch {
	case r.broadcast:
		return "_"
	case r.deferred:
		return "deferred"
	}
	for _, e := range *c {
		if e.t.Equal(r.t) {
			return e.name
		}
	}
	*c = append(*c, splitName{r.t, r.t.String()})
	return (*c)[len(*c)-1].name
}

// buildIR mirrors a built (and classified) plan into the exported IR and
// links each planStage to its IR stage. It only reads session state: Info
// probes for input dimensions go through the panic-isolating wrapper and
// failures degrade to unknown (-1) dimensions. Every stage's calls, and every
// call's arguments and return, are carved from one slice each per plan.
func (s *Session) buildIR(p *plan) *ir.Plan {
	out := &ir.Plan{
		Batch:      s.opts.batchPolicy(),
		Pipelining: !s.opts.DisablePipelining,
	}
	out.Stages = make([]ir.Stage, len(p.stages))
	b := irBuilder{s: s, calls: make([]ir.Call, len(s.nodes)), args: make([]ir.Arg, len(p.res))}
	for si := range p.stages {
		out.Stages[si] = b.stage(&p.stages[si])
	}
	for si := range p.stages {
		p.stages[si].ir = &out.Stages[si]
		p.stages[si].pipeline = out.Stages[si].Pipeline()
	}
	p.ir = out
	return out
}

// irBuilder is one buildIR under way: what is left of the plan's call and
// argument slices, and the split types rendered so far.
type irBuilder struct {
	s     *Session
	calls []ir.Call
	args  []ir.Arg
	names splitNames
}

func (b *irBuilder) stage(st *planStage) ir.Stage {
	e := b.s.nextEpoch()
	for _, o := range st.outputs {
		o.b.mark(e, markOut)
	}

	kind := ir.StageWhole
	var live []int
	calls := carve(&b.calls, len(st.calls))
	for ci, c := range st.calls {
		ic := ir.Call{Name: c.n.name, Args: carve(&b.args, len(c.args))}
		for i, r := range c.args {
			ic.Args[i] = ir.Arg{
				Binding:   c.n.args[i].id,
				Name:      c.n.sa.Params[i].Name,
				Broadcast: r.broadcast,
				Mut:       c.n.sa.Params[i].Mut,
				Split:     b.names.of(r),
				Deferred:  r.deferred,
			}
			if !r.broadcast {
				kind = ir.StageSplit
			}
		}
		if rb := c.n.ret; rb != nil {
			ic.Ret = &carve(&b.args, 1)[0]
			*ic.Ret = ir.Arg{
				Binding:   rb.id,
				Name:      "ret",
				Broadcast: c.ret.broadcast,
				Split:     b.names.of(c.ret),
				Deferred:  c.ret.deferred,
			}
			ic.RetDiscarded = !rb.marked(e, markOut)
			if !c.ret.broadcast {
				ic.RetReduced = retIsReduced(c)
				if !ic.RetReduced && !rb.mark(e, markLive) {
					live = append(live, rb.id)
				}
			}
		}
		calls[ci] = ic
	}
	if kind == ir.StageWhole {
		live = nil // whole stages do not batch; no §5.2 working set
	}
	sort.Ints(live)

	ins := make([]ir.Value, len(st.inputs))
	for i, in := range st.inputs {
		ins[i] = b.s.inputIR(in, b.names.of(in.r))
	}
	outs := make([]ir.Value, len(st.outputs))
	for i, o := range st.outputs {
		outs[i] = ir.Value{Binding: o.b.id, Split: b.names.of(o.r), Elems: -1, ElemBytes: -1}
	}
	bcs := make([]int, len(st.broadcast))
	for i, bc := range st.broadcast {
		bcs[i] = bc.id
	}
	sort.Ints(bcs)

	return ir.Stage{
		Kind:      kind,
		Calls:     calls,
		Inputs:    ins,
		Outputs:   outs,
		Broadcast: bcs,
		Live:      live,
	}
}

// inputIR records a stage input, probing the splitter's Info for element
// count and width when the value is already materialized (deferred splits
// resolve against the default registry, exactly as the executor will). The
// splitter's capability set is recorded too, so Explain shows which inputs
// take the zero-copy view path.
func (s *Session) inputIR(in stageInput, split string) ir.Value {
	v := ir.Value{Binding: in.b.id, Split: split, Elems: -1, ElemBytes: -1}
	v.Caps = CapabilitiesOf(in.r.splitter).String()
	if !in.b.hasVal {
		return v
	}
	r := in.r
	if r.deferred || r.splitter == nil {
		d, ok := lookupDefaultSplit(in.b.val)
		if !ok {
			return v
		}
		t, err := d.ctor(in.b.val)
		if err != nil {
			return v
		}
		r.splitter, r.t, r.deferred = d.splitter, t, false
		v.Caps = CapabilitiesOf(r.splitter).String()
	}
	if info, err := s.safeInfo(r.splitter, in.b.val, r.t); err == nil {
		v.Elems, v.ElemBytes = info.Elems, info.ElemBytes
	}
	return v
}

// retIsReduced reports whether a call's return value is a reduction or
// type-changing result: its split type matches no split argument of the
// call. Element-wise results (ret type equal to an argument's — including
// a generic bound to an argument) stay live per batch and count toward the
// §5.2 working set; reduced results (AddReduce, GroupSplit, fresh unknowns
// from filters and joins) do not.
func retIsReduced(c planCall) bool {
	for _, r := range c.args {
		if !r.broadcast && r.t.Equal(c.ret.t) {
			return false
		}
	}
	return true
}
