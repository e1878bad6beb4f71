package plan

import (
	"fmt"
	"strings"
)

// Render renders the plan as an EXPLAIN-style tree. The first line
// summarizes the plan; each stage then gets a header line identical to its
// Summary (the string the obs plan event carries) followed by indented
// input, working-set, and call detail. Values are written as %<binding>.
//
// The rendering is deterministic for a deterministic program: binding ids
// follow capture order and deferred split types render as "deferred"
// rather than leaking the process-global unknown counter.
func Render(p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d %s, pipelining=%s, batch=%s [%s]\n",
		len(p.Stages), plural(len(p.Stages), "stage"), onOff(p.Pipelining), describeBatch(p.Batch), p.Provenance)
	for i := range p.Stages {
		st := &p.Stages[i]
		b.WriteString(st.Summary(i))
		b.WriteByte('\n')
		renderStage(&b, p, st)
	}
	return b.String()
}

func renderStage(b *strings.Builder, p *Plan, st *Stage) {
	if len(st.Inputs) > 0 {
		fmt.Fprintf(b, "  inputs: %s\n", groupInputs(st.Inputs))
	}
	if len(st.Broadcast) > 0 {
		fmt.Fprintf(b, "  broadcast: %s\n", bindingList(st.Broadcast))
	}
	if st.Kind == StageSplit {
		if s := st.WorkingSetBytes(); s > 0 {
			elems := st.Elems()
			fmt.Fprintf(b, "  working set: %dB/elem (%d inputs + %d produced) -> batch %d",
				s, len(st.Inputs), len(st.Live), p.Batch.Elems(s, elems))
			if elems >= 0 {
				fmt.Fprintf(b, " of %d elems", elems)
			}
			b.WriteByte('\n')
		}
	}
	if len(st.Outputs) > 0 {
		outs := make([]string, len(st.Outputs))
		for i, o := range st.Outputs {
			outs[i] = fmt.Sprintf("%%%d:%s", o.Binding, o.Split)
		}
		fmt.Fprintf(b, "  outputs: %s\n", strings.Join(outs, ", "))
	}
	b.WriteString("  calls:\n")
	for _, c := range st.Calls {
		b.WriteString("    ")
		b.WriteString(renderCall(c))
		b.WriteByte('\n')
	}
}

// renderCall renders one call with per-argument split types:
//
//	vdAdd(n:SizeSplit<64>, a:%1:ArraySplit<64>, mut out:%2:ArraySplit<64>)
//	sr.count(s:%5:SeriesSplit<512>) -> %6:AddReduce (reduce)
func renderCall(c Call) string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		s := a.Name + ":"
		if a.Broadcast {
			s += "_"
		} else {
			s += fmt.Sprintf("%%%d:%s", a.Binding, a.Split)
		}
		if a.Mut {
			s = "mut " + s
		}
		args[i] = s
	}
	out := c.Name + "(" + strings.Join(args, ", ") + ")"
	if c.Ret != nil {
		out += fmt.Sprintf(" -> %%%d:%s", c.Ret.Binding, c.Ret.Split)
		switch {
		case c.RetDiscarded:
			out += " (pipelined)"
		case c.RetReduced:
			out += " (reduce)"
		}
	}
	return out
}

// groupInputs compresses an input list into "2x SizeSplit<64>, 3x
// ArraySplit<64> x8B [inplace|view|window|codec]" runs grouped by split
// type, width, and splitter capabilities, in first-appearance order.
func groupInputs(inputs []Value) string {
	type key struct {
		split string
		width int64
		caps  string
	}
	counts := map[key]int{}
	var order []key
	for _, in := range inputs {
		k := key{in.Split, in.ElemBytes, in.Caps}
		if counts[k] == 0 {
			order = append(order, k)
		}
		counts[k]++
	}
	parts := make([]string, len(order))
	for i, k := range order {
		s := fmt.Sprintf("%dx %s", counts[k], k.split)
		if k.width > 0 {
			s += fmt.Sprintf(" x%dB", k.width)
		}
		if k.caps != "" {
			s += " [" + k.caps + "]"
		}
		parts[i] = s
	}
	return strings.Join(parts, ", ")
}

func bindingList(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%%%d", id)
	}
	return strings.Join(parts, ", ")
}

func describeBatch(bp BatchPolicy) string {
	if bp.FixedElems > 0 {
		return fmt.Sprintf("fixed %d elems", bp.FixedElems)
	}
	c, l2 := bp.Constant, bp.L2CacheBytes
	if c <= 0 {
		c = DefaultBatchConstant
	}
	if l2 <= 0 {
		l2 = DefaultL2CacheBytes
	}
	return fmt.Sprintf("C*L2/s (C=%g, L2=%dB)", c, l2)
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func plural(n int, word string) string {
	if n == 1 {
		return word
	}
	return word + "s"
}
