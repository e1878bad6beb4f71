package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"

	"mozart"
	"mozart/internal/annotations/framesa"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/frame"
	"mozart/internal/obs"
	"mozart/internal/plan"
	"mozart/internal/planlower"
	"mozart/internal/spill"
	"mozart/internal/vmath"
	"mozart/internal/workloads"
)

// sizes are the input sizes of the seven workloads. They are part of the
// benchmark's definition: the same on every commit.
type sizes struct {
	chainN    int       // chain_membound: elements per array
	bsN       int       // blackscholes_compute: options
	tinyN     int       // tiny_pipeline: elements
	tinyBlock int       // tiny_pipeline: evaluations per timed sample
	frameRows int       // frame_clean: rows
	oocN      int       // ooc_stream: options
	large     serveSize // serve_large
	small     serveSize // serve_small
}

// serveSize sizes one serve workload: the scale every request names, the
// requests in one timed block at 2 clients, and the warm-up requests.
type serveSize struct{ scale, block, warm int }

var fullSizes = sizes{
	chainN: 1 << 23, bsN: 1 << 20, tinyN: 64, tinyBlock: 2000, frameRows: 1 << 20, oocN: 1 << 20,
	large: serveSize{scale: 65536, block: 60, warm: 100},
	small: serveSize{scale: 256, block: 1000, warm: 1000},
}

// quickSizes make a whole run take about a second; `go test` uses them.
var quickSizes = sizes{
	chainN: 1 << 14, bsN: 1 << 12, tinyN: 64, tinyBlock: 20, frameRows: 1 << 12, oocN: 1 << 15,
	large: serveSize{scale: 2048, block: 8, warm: 4},
	small: serveSize{scale: 64, block: 20, warm: 4},
}

// extraCall captures one more annotated call over an n-element output array
// of a vector program.
type extraCall func(s *mozart.Session, n int, out []float64)

// evalOpts is what the harness varies between evaluations of one workload.
type evalOpts struct {
	workers int
	tracer  obs.Tracer            // nil on every end-to-end measurement
	onPlan  func(*plan.Plan)      // receives the evaluation's plan IR
	extra   extraCall             // sensitivity self-test: captures one more annotated call
	budget  bool                  // ooc_stream: run under the memory budget
	stats   *mozart.StatsSnapshot // when set, receives Session.Stats() after the evaluation
}

func (o evalOpts) options() mozart.Options {
	return mozart.Options{Workers: o.workers, Tracer: o.tracer, OnPlan: o.onPlan}
}

// sessionCase is one session workload after set-up: its inputs exist, and
// base and eval run the unmodified library and Mozart over them.
type sessionCase struct {
	block     int // evaluations per timed sample
	baseBlock int // base-library runs per timed sample

	// base runs the unmodified library with the given library threads.
	base func(threads int) error
	// eval is one evaluation: NewSession, capture, evaluate, results
	// materialised.
	eval func(o evalOpts) error
	// check compares the last evaluation's results with the last base run's.
	check func() error
	// reset restores the inputs one side (Mozart's, or the base library's)
	// mutates in place; nil if the program mutates none.
	reset func(mozartSide bool)
	// capture registers the pipeline's calls with a session without
	// evaluating it; nil when the pipeline is built inside internal/workloads.
	capture func(s *mozart.Session)

	calls      int                                 // annotated calls captured per evaluation
	bytesMoved int64                               // computed: bytes the base library streams per evaluation
	lower      planlower.Options                   // how the plan lowers into memsim
	roundtrip  func() (nsPerPiece, allocs float64) // annotations micro-measurement
	gov        *core.Governor                      // ooc_stream only: the budget evalOpts.budget applies
	close      func()                              // removes what set-up left on disk; nil if nothing
}

// ---- vector programs: chain_membound, blackscholes_compute, tiny_pipeline ----

// vecOp is one vmath call over numbered buffers; c is the scalar operand of
// the *c ops.
type vecOp struct {
	op      string
	a, b, o int
	c       float64
}

// vecProgram is a list of vmath calls that the base library runs directly
// and Mozart captures through vmathsa, over separate output buffers so that
// the two results can be compared.
type vecProgram struct {
	n       int
	ops     []vecOp
	inputs  [][]float64 // read-only, shared by both sides
	initial [][]float64 // starting contents of the buffers a side mutates before writing
	baseBuf [][]float64
	mozBuf  [][]float64
	outputs []int // buffers compared after an evaluation
}

// buf resolves buffer index i for one side: indices below len(inputs) are the
// shared inputs, the rest the side's own buffers.
func (p *vecProgram) buf(side [][]float64, i int) []float64 {
	if i < len(p.inputs) {
		return p.inputs[i]
	}
	return side[i-len(p.inputs)]
}

// vecKernel pairs a vmath function with the vmathsa wrapper that annotates
// it, so that the two sides of a program cannot name different functions.
type vecKernel struct {
	arrays  int64 // array operands a call streams, its output included
	base    func(n int, a, b []float64, c float64, o []float64)
	capture func(s *mozart.Session, n int, a, b []float64, c float64, o []float64)
}

func unaryKernel(f func(int, []float64, []float64), sa func(*mozart.Session, int, any, any)) vecKernel {
	return vecKernel{2,
		func(n int, a, _ []float64, _ float64, o []float64) { f(n, a, o) },
		func(s *mozart.Session, n int, a, _ []float64, _ float64, o []float64) { sa(s, n, a, o) }}
}

func binaryKernel(f func(int, []float64, []float64, []float64), sa func(*mozart.Session, int, any, any, any)) vecKernel {
	return vecKernel{3,
		func(n int, a, b []float64, _ float64, o []float64) { f(n, a, b, o) },
		func(s *mozart.Session, n int, a, b []float64, _ float64, o []float64) { sa(s, n, a, b, o) }}
}

func scalarKernel(f func(int, []float64, float64, []float64), sa func(*mozart.Session, int, any, float64, any)) vecKernel {
	return vecKernel{2,
		func(n int, a, _ []float64, c float64, o []float64) { f(n, a, c, o) },
		func(s *mozart.Session, n int, a, _ []float64, c float64, o []float64) { sa(s, n, a, c, o) }}
}

var kernels = map[string]vecKernel{
	"add":     binaryKernel(vmath.Add, vmathsa.Add),
	"sub":     binaryKernel(vmath.Sub, vmathsa.Sub),
	"mul":     binaryKernel(vmath.Mul, vmathsa.Mul),
	"div":     binaryKernel(vmath.Div, vmathsa.Div),
	"fmax":    binaryKernel(vmath.MaxV, vmathsa.MaxV),
	"sqr":     unaryKernel(vmath.Sqr, vmathsa.Sqr),
	"sqrt":    unaryKernel(vmath.Sqrt, vmathsa.Sqrt),
	"ln":      unaryKernel(vmath.Ln, vmathsa.Ln),
	"exp":     unaryKernel(vmath.Exp, vmathsa.Exp),
	"cdfnorm": unaryKernel(vmath.CdfNorm, vmathsa.CdfNorm),
	"mulc":    scalarKernel(vmath.MulC, vmathsa.MulC),
	"subcrev": scalarKernel(vmath.SubCRev, vmathsa.SubCRev),
}

func (p *vecProgram) runBase(threads int) error {
	old := vmath.NumThreads()
	vmath.SetNumThreads(threads)
	defer vmath.SetNumThreads(old)
	for _, op := range p.ops {
		kernels[op.op].base(p.n, p.buf(p.baseBuf, op.a), p.buf(p.baseBuf, op.b), op.c, p.buf(p.baseBuf, op.o))
	}
	return nil
}

func (p *vecProgram) capture(s *mozart.Session) {
	for _, op := range p.ops {
		kernels[op.op].capture(s, p.n, p.buf(p.mozBuf, op.a), p.buf(p.mozBuf, op.b), op.c, p.buf(p.mozBuf, op.o))
	}
}

func (p *vecProgram) evalMozart(o evalOpts) error {
	s := mozart.NewSession(o.options())
	p.capture(s)
	if o.extra != nil {
		o.extra(s, p.n, p.buf(p.mozBuf, p.outputs[0]))
	}
	err := s.EvaluateContext(context.Background())
	if o.stats != nil {
		*o.stats = s.Stats()
	}
	return err
}

func (p *vecProgram) reset(mozartSide bool) {
	side := p.baseBuf
	if mozartSide {
		side = p.mozBuf
	}
	for i, init := range p.initial {
		if init != nil {
			copy(side[i], init)
		}
	}
}

func (p *vecProgram) check() error {
	for _, oi := range p.outputs {
		want, got := p.buf(p.baseBuf, oi), p.buf(p.mozBuf, oi)
		for i := range want {
			// Bit-exact, with NaN equal to NaN.
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				return fmt.Errorf("buffer %d element %d: mozart %v, base %v", oi, i, got[i], want[i])
			}
		}
	}
	return nil
}

// bytesMoved is what the base library streams per evaluation, computed from
// the array sizes: each call reads its array operands and writes its output
// in full, because each call is a separate pass.
func (p *vecProgram) bytesMoved() int64 {
	var arrays int64
	for _, op := range p.ops {
		arrays += kernels[op.op].arrays
	}
	return arrays * int64(p.n) * 8
}

// newVecCase allocates own buffers for both sides and wraps the program as a
// sessionCase. initial[i] != nil makes own buffer i start from (and be reset
// to) those contents.
func newVecCase(n int, ops []vecOp, inputs, initial [][]float64, outputs []int, block int) *sessionCase {
	p := &vecProgram{n: n, ops: ops, inputs: inputs, initial: initial, outputs: outputs}
	for range initial {
		p.baseBuf = append(p.baseBuf, make([]float64, n))
		p.mozBuf = append(p.mozBuf, make([]float64, n))
	}
	p.reset(false)
	p.reset(true)
	c := &sessionCase{
		block: block, baseBlock: block, base: p.runBase, eval: p.evalMozart, check: p.check, capture: p.capture,
		calls: len(ops), bytesMoved: p.bytesMoved(),
		lower:     planlower.Options{Name: "vec", ElemBytes: 8, Costs: workloads.Costs()},
		roundtrip: func() (float64, float64) { return arrayRoundtrip(p.inputs[0]) },
	}
	for _, init := range initial {
		if init != nil {
			c.reset = p.reset
		}
	}
	return c
}

// setupChain builds chain_membound: ten cheap calls that mutate arrays a and
// b in place and read c and d, so nearly all time is memory traffic.
func setupChain(seed int64, sz sizes, _ string) (*sessionCase, error) {
	n := sz.chainN
	// Values near 1 keep ten multiplications and squarings finite.
	c, d := data.Vector(n, seed, 0.5, 1.5), data.Vector(n, seed+1, 0.5, 1.5)
	a0, b0 := data.Vector(n, seed+2, 0.5, 1.5), data.Vector(n, seed+3, 0.5, 1.5)
	const C, D, A, B = 0, 1, 2, 3
	ops := []vecOp{
		{op: "add", a: A, b: B, o: A},
		{op: "mul", a: A, b: C, o: A},
		{op: "mulc", a: A, c: 0.5, o: A},
		{op: "sub", a: A, b: D, o: A},
		{op: "sqr", a: A, o: A},
		{op: "add", a: B, b: C, o: B},
		{op: "mul", a: B, b: D, o: B},
		{op: "mulc", a: B, c: 0.25, o: B},
		{op: "sub", a: B, b: A, o: B},
		{op: "sqr", a: B, o: B},
	}
	return newVecCase(n, ops, [][]float64{c, d}, [][]float64{a0, b0}, []int{A, B}, 1), nil
}

// setupBlackScholes builds blackscholes_compute: the 31 annotated calls of
// the Figure 1 program over pre-allocated buffers (the 32nd call of the MKL
// sample, the fill of the zeros buffer, is not annotated and runs in set-up).
func setupBlackScholes(seed int64, sz sizes, _ string) (*sessionCase, error) {
	n := sz.bsN
	price, strike, tt := data.OptionsData(n, seed)
	zeros := make([]float64, n)
	const (
		riskFree   = 0.02
		vol        = 0.3
		invSqrt2Pi = 0.3989422804014327
	)
	const (
		P, K, T, Z                             = 0, 1, 2, 3
		d1, d2, t1, t2, call, put, vega, gamma = 4, 5, 6, 7, 8, 9, 10, 11
	)
	ops := []vecOp{
		{op: "div", a: P, b: K, o: d1},
		{op: "ln", a: d1, o: d1},
		{op: "sqrt", a: T, o: t1},
		{op: "mulc", a: t1, c: vol, o: t1},
		{op: "mulc", a: T, c: riskFree + vol*vol/2, o: t2},
		{op: "add", a: d1, b: t2, o: d1},
		{op: "div", a: d1, b: t1, o: d1},
		{op: "sub", a: d1, b: t1, o: d2},
		{op: "sqr", a: d1, o: gamma},
		{op: "mulc", a: gamma, c: -0.5, o: gamma},
		{op: "exp", a: gamma, o: gamma},
		{op: "mulc", a: gamma, c: invSqrt2Pi, o: gamma},
		{op: "mul", a: P, b: gamma, o: vega},
		{op: "mul", a: vega, b: t1, o: vega},
		{op: "div", a: gamma, b: t1, o: gamma},
		{op: "div", a: gamma, b: P, o: gamma},
		{op: "cdfnorm", a: d1, o: d1},
		{op: "cdfnorm", a: d2, o: d2},
		{op: "mulc", a: T, c: -riskFree, o: t2},
		{op: "exp", a: t2, o: t2},
		{op: "mul", a: K, b: t2, o: t2},
		{op: "mul", a: P, b: d1, o: call},
		{op: "mul", a: t2, b: d2, o: put},
		{op: "sub", a: call, b: put, o: call},
		{op: "subcrev", a: d1, c: 1, o: d1},
		{op: "subcrev", a: d2, c: 1, o: d2},
		{op: "mul", a: t2, b: d2, o: d2},
		{op: "mul", a: P, b: d1, o: d1},
		{op: "sub", a: d2, b: d1, o: put},
		{op: "fmax", a: call, b: Z, o: call},
		{op: "fmax", a: put, b: Z, o: put},
	}
	own := make([][]float64, 8) // d1..gamma: written before read, never reset
	return newVecCase(n, ops, [][]float64{price, strike, tt, zeros}, own, []int{call, put, vega, gamma}, 1), nil
}

// setupTiny builds tiny_pipeline: two calls over 64 elements, so the kernels
// cost nothing and what is left is the fixed cost of one evaluation.
func setupTiny(seed int64, sz sizes, _ string) (*sessionCase, error) {
	n := sz.tinyN
	a, c := data.Vector(n, seed, 0.5, 1.5), data.Vector(n, seed+1, 0.5, 1.5)
	const A, C, T = 0, 1, 2
	ops := []vecOp{
		{op: "add", a: A, b: C, o: T},
		{op: "mul", a: T, b: C, o: T},
	}
	tc := newVecCase(n, ops, [][]float64{a, c}, make([][]float64, 1), []int{T}, sz.tinyBlock)
	// Two direct vmath calls over 64 elements take a fifth of a microsecond:
	// a base sample needs many more runs than a block to be long enough to time.
	tc.baseBlock = 50 * sz.tinyBlock
	return tc, nil
}

// arrayRoundtrip times SplitView then Merge of 16 pieces of a float array
// through vmathsa.ArraySplitter, with warm reuse slots.
func arrayRoundtrip(a []float64) (nsPerPiece, allocs float64) {
	return splitterRoundtrip(vmathsa.ArraySplitter{}, a, len(a), core.NewSplitType("ArraySplit", int64(len(a))))
}

// ---- frame_clean ----

// frameCase is the data-cleaning chain over one dirty string column.
type frameCase struct {
	zips      *frame.Series
	baseOut   *frame.Series
	baseCount int64
	mozOut    *frame.Series
	mozCount  int64
}

func (f *frameCase) runBase(int) error {
	// The frame library is single threaded, like Pandas: threads is unused.
	sliced := frame.StrSlice(f.zips, 0, 5)
	junk := frame.InStrings(sliced, "NO CL", "N/A")
	zero := frame.EqString(sliced, "0")
	bad := frame.Or(junk, zero)
	cleaned := frame.MaskToNull(sliced, bad)
	_ = frame.StrLenGt(cleaned, 4)
	_ = frame.IsNull(cleaned)
	f.baseOut, f.baseCount = cleaned, frame.CountValid(cleaned)
	return nil
}

func (f *frameCase) capture(s *mozart.Session) (cleaned, count *mozart.Future) {
	sliced := framesa.StrSlice(s, f.zips, 0, 5)
	junk := framesa.InStrings(s, sliced, "NO CL", "N/A")
	zero := framesa.EqString(s, sliced, "0")
	bad := framesa.Or(s, junk, zero)
	cleaned = framesa.MaskToNull(s, sliced, bad).Keep()
	framesa.StrLenGt(s, cleaned, 4)
	framesa.IsNull(s, cleaned)
	return cleaned, framesa.CountValid(s, cleaned)
}

func (f *frameCase) evalMozart(o evalOpts) error {
	s := mozart.NewSession(o.options())
	cleaned, count := f.capture(s)
	n, err := count.Get()
	if o.stats != nil {
		*o.stats = s.Stats()
	}
	if err != nil {
		return err
	}
	v, err := cleaned.Get()
	if err != nil {
		return err
	}
	f.mozOut, f.mozCount = v.(*frame.Series), n.(int64)
	return nil
}

func (f *frameCase) check() error {
	if f.mozCount != f.baseCount {
		return fmt.Errorf("valid count: mozart %d, base %d", f.mozCount, f.baseCount)
	}
	if !slices.Equal(f.mozOut.S, f.baseOut.S) || !slices.Equal(f.mozOut.Valid, f.baseOut.Valid) {
		return fmt.Errorf("cleaned column differs from the base library's")
	}
	return nil
}

func setupFrame(seed int64, sz sizes, _ string) (*sessionCase, error) {
	f := &frameCase{zips: data.ServiceRequests(sz.frameRows, seed).Col("Incident Zip")}
	rows := int64(sz.frameRows)
	return &sessionCase{
		block: 1, baseBlock: 1, base: f.runBase, eval: f.evalMozart, check: f.check,
		capture: func(s *mozart.Session) { f.capture(s) },
		calls:   8,
		// Computed from the column widths frame.Series.ElemBytes declares
		// (24-byte strings, 1-byte masks): five string passes read or
		// written in full and eight mask passes.
		bytesMoved: rows * (5*24 + 8*1),
		lower:      planlower.Options{Name: "frame", ElemBytes: 24, Costs: workloads.Costs()},
		roundtrip: func() (float64, float64) {
			return splitterRoundtrip(framesa.SeriesSplitter{}, f.zips, f.zips.Len(), core.NewSplitType("SeriesSplit", int64(f.zips.Len())))
		},
	}, nil
}

// ---- ooc_stream ----

// oocCase runs workloads' blackscholes-ooc: a lazy option generator, so
// there is no eager input, under a memory budget of a quarter of its working
// set, which forces the streaming executor and the spill store.
type oocCase struct {
	spec     workloads.Spec
	scale    int
	budget   int64
	gov      *core.Governor
	spillDir string
	baseSum  float64
	mozSum   float64
}

func (c *oocCase) runBase(int) error {
	sum, err := c.spec.Run(workloads.Base, workloads.Config{Scale: c.scale, Threads: 1})
	c.baseSum = sum
	return err
}

func (c *oocCase) evalMozart(o evalOpts) error {
	cfg := workloads.Config{Scale: c.scale, Threads: o.workers, Tracer: o.tracer, OnPlan: o.onPlan}
	if o.budget {
		cfg.Governor, cfg.OutOfCore, cfg.SpillDir = c.gov, true, c.spillDir
	}
	var sess *core.Session
	cfg.OnSession = func(s *core.Session) { sess = s }
	sum, err := c.spec.Run(workloads.Mozart, cfg)
	if o.stats != nil && sess != nil {
		*o.stats = sess.Stats()
	}
	c.mozSum = sum
	return err
}

func (c *oocCase) check() error {
	// Both sides sum the per-option prices in index order, so the checksums
	// agree to the bit.
	if math.Float64bits(c.mozSum) != math.Float64bits(c.baseSum) {
		return fmt.Errorf("checksum: mozart %v, base %v", c.mozSum, c.baseSum)
	}
	if in := c.gov.InUse(); in != 0 {
		return fmt.Errorf("governor holds %d bytes after the evaluation", in)
	}
	if hw := c.gov.HighWater(); hw > c.budget {
		return fmt.Errorf("governor high water %d above the budget %d", hw, c.budget)
	}
	if n := spill.OpenStores(); n != 0 {
		return fmt.Errorf("%d spill stores still open", n)
	}
	left, err := os.ReadDir(c.spillDir)
	if err != nil {
		return err
	}
	if len(left) != 0 {
		return fmt.Errorf("%d entries left in the spill directory", len(left))
	}
	return nil
}

func setupOOC(_ int64, sz sizes, workdir string) (*sessionCase, error) {
	spec, err := workloads.ByName("blackscholes-ooc")
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "ooc-spill-")
	if err != nil {
		return nil, err
	}
	// The working set under the §5.2 byte model: 24 input bytes and 8 output
	// bytes per option.
	budget := int64(sz.oocN) * (24 + 8) / 4
	c := &oocCase{spec: spec, scale: sz.oocN, budget: budget, gov: core.NewGovernor(budget), spillDir: dir}
	return &sessionCase{
		block: 1, baseBlock: 1, base: c.runBase, eval: c.evalMozart, check: c.check,
		calls: 1, bytesMoved: int64(sz.oocN) * 8, // the base sums as it goes: only the prices are written
		lower:     workloads.Lowering(spec),
		roundtrip: func() (float64, float64) { return arrayRoundtrip(make([]float64, 1<<16)) },
		gov:       c.gov,
		close:     func() { os.RemoveAll(dir) },
	}, nil
}
