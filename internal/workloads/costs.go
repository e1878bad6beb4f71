package workloads

import "mozart/internal/planlower"

// Cost tables for lowering real planner output (the plan IR) into memsim
// workloads via internal/planlower. They map annotated function names to
// the hand-model op names and the shared per-element cycle constants, so a
// lowered model and the corresponding hand model in this package are
// directly comparable op by op — the plan-to-model consistency test holds
// them identical.

// vmathCosts covers the vmathsa (MKL-style) annotations used by the vector
// chain workloads.
var vmathCosts = map[string]planlower.CallCost{
	"vdAdd":       {Name: "add", CyclesPerElem: cycAdd},
	"vdSub":       {Name: "sub", CyclesPerElem: cycAdd},
	"vdMul":       {Name: "mul", CyclesPerElem: cycMul},
	"vdDiv":       {Name: "div", CyclesPerElem: cycDiv},
	"vdFmax":      {Name: "fmax", CyclesPerElem: cycCmp},
	"vdSqrt":      {Name: "sqrt", CyclesPerElem: cycSqrt},
	"vdSqr":       {Name: "sqr", CyclesPerElem: cycMul},
	"vdExp":       {Name: "exp", CyclesPerElem: cycExp},
	"vdLn":        {Name: "ln", CyclesPerElem: cycLn},
	"vdCdfNorm":   {Name: "cdfnorm", CyclesPerElem: cycErf},
	"vdSin":       {Name: "sin", CyclesPerElem: cycErf}, // trig ~ erf intensity
	"vdCos":       {Name: "cos", CyclesPerElem: cycErf},
	"vdAtan2":     {Name: "atan2", CyclesPerElem: cycExp},
	"vdAddC":      {Name: "addc", CyclesPerElem: cycAdd},
	"vdSubC":      {Name: "subc", CyclesPerElem: cycAdd},
	"vdSubCRev":   {Name: "subcrev", CyclesPerElem: cycAdd},
	"vdMulC":      {Name: "mulc", CyclesPerElem: cycMul},
	"vdSum":       {Name: "sum", CyclesPerElem: cycAdd},
	"vdMaxReduce": {Name: "max", CyclesPerElem: cycCmp},
	// bsChunk is the out-of-core workload's fused scalar kernel: one erf,
	// exp, ln, and sqrt pair per option dominates its per-element cost.
	"bsChunk": {Name: "bschunk", CyclesPerElem: 2*cycErf + 2*cycExp + cycLn + cycSqrt},
}

// Costs returns the merged cost table covering every annotation family the
// workloads use, for callers (the benchmark's memsim.model_s) that lower
// arbitrary planner output without knowing which library produced it. Calls absent from the table fall back to planlower's nominal
// per-element cost; cache traffic — the benchmark's main signal — depends on
// the access pattern, which the plan itself carries.
func Costs() map[string]planlower.CallCost {
	out := make(map[string]planlower.CallCost, len(vmathCosts)+len(framesaCosts))
	for k, v := range vmathCosts {
		out[k] = v
	}
	for k, v := range framesaCosts {
		out[k] = v
	}
	return out
}

// Lowering returns the planlower options for lowering a spec's real plan IR
// into the machine model: the merged cost table plus the per-library element
// width the plan-to-model consistency tests pin (8-byte float64 elements for
// the vector libraries, 24-byte rows for Pandas frames). The ImageMagick
// integration no longer sets SplitCopies: its splitter produces aliasing
// row-band views (CapInPlace|CapView), so split and merge move no pixels.
func Lowering(spec Spec) planlower.Options {
	o := planlower.Options{Name: spec.Name, ElemBytes: 8, Costs: Costs()}
	if spec.Library == "Pandas" {
		o.ElemBytes = 24
	}
	return o
}

// framesaCosts covers the framesa (Pandas-style) annotations used by the
// data cleaning workload.
var framesaCosts = map[string]planlower.CallCost{
	"sr.str.slice":  {Name: "str.slice", CyclesPerElem: 4 * cycMul},
	"sr.isin":       {Name: "isin", CyclesPerElem: 3 * cycMul},
	"sr.eq":         {Name: "eq", CyclesPerElem: 2 * cycMul},
	"sr.or":         {Name: "or", CyclesPerElem: cycAdd},
	"sr.maskToNull": {Name: "maskToNull", CyclesPerElem: 2 * cycMul},
	"sr.str.len.gt": {Name: "len.gt", CyclesPerElem: cycMul},
	"sr.isnull":     {Name: "isnull", CyclesPerElem: cycMul},
	"sr.count":      {Name: "count", CyclesPerElem: cycAdd},
}
