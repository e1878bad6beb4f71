package workloads

import (
	"math"

	"mozart/internal/annotations/tensorsa"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/memsim"
	"mozart/internal/tensor"
	"mozart/internal/vmath"
	"mozart/internal/weldsim"
)

// Black Scholes option pricing (§2.1, Figure 1, Figure 4a/4j): 32 vector
// math calls computing call/put prices plus vega and gamma over option
// grids. The MKL variant uses in-place vmath buffers; the NumPy variant
// uses out-of-place tensor ops.

const (
	bsRiskFree = 0.02
	bsVol      = 0.3
	invSqrt2Pi = 0.3989422804014327
)

// bsVmathProgram is the 32-call Black Scholes program, written MKL-sample
// style: a small set of full-length buffers reused across calls (d1, d2, two
// temporaries, and the four outputs).
func bsVmathProgram(s *core.Session, price, strike, tt []float64) (call, put, vega, gamma []float64) {
	n := len(price)
	alloc := func() []float64 { return make([]float64, n) }
	d1, d2, t1, t2, zeros := alloc(), alloc(), alloc(), alloc(), alloc()
	call, put = alloc(), alloc()
	vega, gamma = alloc(), alloc()

	vmath.Fill(n, 0, zeros)                              // 1: not annotated, runs eagerly
	vmathsa.Div(s, n, price, strike, d1)                 // 2
	vmathsa.Ln(s, n, d1, d1)                             // 3
	vmathsa.Sqrt(s, n, tt, t1)                           // 4: t1 = vol*sqrt(t)
	vmathsa.MulC(s, n, t1, bsVol, t1)                    // 5
	vmathsa.MulC(s, n, tt, bsRiskFree+bsVol*bsVol/2, t2) // 6
	vmathsa.Add(s, n, d1, t2, d1)                        // 7
	vmathsa.Div(s, n, d1, t1, d1)                        // 8: d1
	vmathsa.Sub(s, n, d1, t1, d2)                        // 9: d2
	vmathsa.Sqr(s, n, d1, gamma)                         // 10: pdf scratch
	vmathsa.MulC(s, n, gamma, -0.5, gamma)               // 11
	vmathsa.Exp(s, n, gamma, gamma)                      // 12
	vmathsa.MulC(s, n, gamma, invSqrt2Pi, gamma)         // 13: pdf(d1)
	vmathsa.Mul(s, n, price, gamma, vega)                // 14
	vmathsa.Mul(s, n, vega, t1, vega)                    // 15: vega
	vmathsa.Div(s, n, gamma, t1, gamma)                  // 16
	vmathsa.Div(s, n, gamma, price, gamma)               // 17: gamma
	vmathsa.CdfNorm(s, n, d1, d1)                        // 18: nd1
	vmathsa.CdfNorm(s, n, d2, d2)                        // 19: nd2
	vmathsa.MulC(s, n, tt, -bsRiskFree, t2)              // 20
	vmathsa.Exp(s, n, t2, t2)                            // 21
	vmathsa.Mul(s, n, strike, t2, t2)                    // 22: e
	vmathsa.Mul(s, n, price, d1, call)                   // 23
	vmathsa.Mul(s, n, t2, d2, put)                       // 24
	vmathsa.Sub(s, n, call, put, call)                   // 25: call
	vmathsa.SubCRev(s, n, d1, 1, d1)                     // 26: 1-nd1
	vmathsa.SubCRev(s, n, d2, 1, d2)                     // 27: 1-nd2
	vmathsa.Mul(s, n, t2, d2, d2)                        // 28: e*(1-nd2)
	vmathsa.Mul(s, n, price, d1, d1)                     // 29: s*(1-nd1)
	vmathsa.Sub(s, n, d2, d1, put)                       // 30: put
	vmathsa.MaxV(s, n, call, zeros, call)                // 31
	vmathsa.MaxV(s, n, put, zeros, put)                  // 32
	return call, put, vega, gamma
}

// bsOperators is the Table 2 call count for Black Scholes.
const bsOperators = 32

func bsChecksum(call, put, vega, gamma []float64) float64 {
	return sumOf(call) + sumOf(put) + sumOf(vega) + sumOf(gamma)
}

func prepareBSVmath(cfg Config) (*Program, error) {
	price, strike, tt := data.OptionsData(cfg.Scale, 11)
	return &Program{cfg: cfg, mkl: true,
		pipeline: func(s *core.Session) (float64, error) {
			call, put, vega, gamma := bsVmathProgram(s, price, strike, tt)
			if err := s.EvaluateContext(cfg.ctx()); err != nil {
				return 0, err
			}
			return bsChecksum(call, put, vega, gamma), nil
		},
		weld: func(threads int) (float64, error) {
			return bsChecksum(bsWeld(price, strike, tt, threads)), nil
		},
	}, nil
}

// bsWeld builds the whole computation as one fused expression DAG.
func bsWeld(price, strike, tt []float64, threads int) (call, put, vega, gamma []float64) {
	s, k, t := weldsim.Source(price), weldsim.Source(strike), weldsim.Source(tt)
	vst := t.Sqrt().MulS(bsVol)
	d1 := s.Div(k).Log().Add(t.MulS(bsRiskFree + bsVol*bsVol/2)).Div(vst)
	d2 := d1.Sub(vst)
	nd1, nd2 := d1.CdfNorm(), d2.CdfNorm()
	e := k.Mul(t.MulS(-bsRiskFree).Exp())
	callE := s.Mul(nd1).Sub(e.Mul(nd2)).Max(weldsim.Const(0, len(price)))
	putE := e.Mul(nd2.RSubS(1)).Sub(s.Mul(nd1.RSubS(1))).Max(weldsim.Const(0, len(price)))
	pdf := d1.Square().MulS(-0.5).Exp().MulS(invSqrt2Pi)
	vegaE := s.Mul(pdf).Mul(vst)
	gammaE := pdf.Div(vst).Div(s)
	outs := weldsim.Eval(threads, callE, putE, vegaE, gammaE)
	return outs[0], outs[1], outs[2], outs[3]
}

// prepareBSTensor is the NumPy variant: out-of-place ops on ndarray.
func prepareBSTensor(cfg Config) (*Program, error) {
	p, k, t := data.OptionsData(cfg.Scale, 11)
	price := tensor.FromSlice(p, len(p))
	strike := tensor.FromSlice(k, len(k))
	tt := tensor.FromSlice(t, len(t))
	return &Program{cfg: cfg,
		pipeline: func(s *core.Session) (float64, error) {
			vst := tensorsa.MulS(s, tensorsa.Sqrt(s, tt), bsVol)
			d1 := tensorsa.Div(s, tensorsa.Add(s, tensorsa.Log(s, tensorsa.Div(s, price, strike)), tensorsa.MulS(s, tt, bsRiskFree+bsVol*bsVol/2)), vst)
			d2 := tensorsa.Sub(s, d1, vst)
			nd1 := cdfNormSA(s, d1)
			nd2 := cdfNormSA(s, d2)
			e := tensorsa.Mul(s, strike, tensorsa.Exp(s, tensorsa.MulS(s, tt, -bsRiskFree)))
			call := tensorsa.Maximum(s, tensorsa.Sub(s, tensorsa.Mul(s, price, nd1), tensorsa.Mul(s, e, nd2)), tensor.New(len(p)))
			put := tensorsa.Maximum(s, tensorsa.Sub(s, tensorsa.Mul(s, e, tensorsa.RSubS(s, nd2, 1)), tensorsa.Mul(s, price, tensorsa.RSubS(s, nd1, 1))), tensor.New(len(p)))
			pdf := tensorsa.MulS(s, tensorsa.Exp(s, tensorsa.MulS(s, tensorsa.Square(s, d1), -0.5)), invSqrt2Pi)
			vega := tensorsa.Mul(s, tensorsa.Mul(s, price, pdf), vst)
			gamma := tensorsa.Div(s, tensorsa.Div(s, pdf, vst), price)
			cv, err := call.Get()
			if err != nil {
				return 0, err
			}
			pv, _ := put.Get()
			vv, _ := vega.Get()
			gv, _ := gamma.Get()
			return bsChecksum(cv.(*tensor.NDArray).Data, pv.(*tensor.NDArray).Data,
				vv.(*tensor.NDArray).Data, gv.(*tensor.NDArray).Data), nil
		},
		weld: func(threads int) (float64, error) {
			return bsChecksum(bsWeld(p, k, t, threads)), nil
		},
	}, nil
}

func cdfNormSA(s *core.Session, x any) *core.Future {
	return tensorsa.MulS(s, tensorsa.AddS(s, tensorsa.Erf(s, tensorsa.DivS(s, x, math.Sqrt2)), 1), 0.5)
}

// bsModelOps is the memsim plan of the 32-call sequence, matching the
// buffer reuse of bsVmathProgram.
func bsModelOps() []opSpec {
	const (
		price, strike, tt = 0, 1, 2
		d1, d2, t1, t2    = 3, 4, 5, 6
		zeros             = 7
		call, put         = 8, 9
		vega, gamma       = 10, 11
	)
	return []opSpec{
		op("fill", cycAdd, nil, []int{zeros}),
		op("div", cycDiv, []int{price, strike}, []int{d1}),
		op("ln", cycLn, []int{d1}, []int{d1}),
		op("sqrt", cycSqrt, []int{tt}, []int{t1}),
		op("mulc", cycMul, []int{t1}, []int{t1}),
		op("mulc", cycMul, []int{tt}, []int{t2}),
		op("add", cycAdd, []int{d1, t2}, []int{d1}),
		op("div", cycDiv, []int{d1, t1}, []int{d1}),
		op("sub", cycAdd, []int{d1, t1}, []int{d2}),
		op("sqr", cycMul, []int{d1}, []int{gamma}),
		op("mulc", cycMul, []int{gamma}, []int{gamma}),
		op("exp", cycExp, []int{gamma}, []int{gamma}),
		op("mulc", cycMul, []int{gamma}, []int{gamma}),
		op("mul", cycMul, []int{price, gamma}, []int{vega}),
		op("mul", cycMul, []int{vega, t1}, []int{vega}),
		op("div", cycDiv, []int{gamma, t1}, []int{gamma}),
		op("div", cycDiv, []int{gamma, price}, []int{gamma}),
		op("cdfnorm", cycErf, []int{d1}, []int{d1}),
		op("cdfnorm", cycErf, []int{d2}, []int{d2}),
		op("mulc", cycMul, []int{tt}, []int{t2}),
		op("exp", cycExp, []int{t2}, []int{t2}),
		op("mul", cycMul, []int{strike, t2}, []int{t2}),
		op("mul", cycMul, []int{price, d1}, []int{call}),
		op("mul", cycMul, []int{t2, d2}, []int{put}),
		op("sub", cycAdd, []int{call, put}, []int{call}),
		op("subcrev", cycAdd, []int{d1}, []int{d1}),
		op("subcrev", cycAdd, []int{d2}, []int{d2}),
		op("mul", cycMul, []int{t2, d2}, []int{d2}),
		op("mul", cycMul, []int{price, d1}, []int{d1}),
		op("sub", cycAdd, []int{d2, d1}, []int{put}),
		op("fmax", cycCmp, []int{call, zeros}, []int{call}),
		op("fmax", cycCmp, []int{put, zeros}, []int{put}),
	}
}

func init() {
	register(Spec{
		Name:         "blackscholes-numpy",
		Library:      "NumPy",
		Description:  "Black Scholes option pricing over ndarray vector math (Fig. 4a)",
		Operators:    bsOperators,
		Variants:     []Variant{Base, Mozart, MozartNoPipe, Weld},
		Prepare:      prepareBSTensor,
		DefaultScale: 1 << 22,
		Model: func(v Variant, cfg Config) *memsim.Workload {
			return chainModelAlloc("blackscholes-numpy", bsModelOps(), int64(cfg.Scale), 8, v, cfg.Batch)
		},
	})
	register(Spec{
		Name:         "blackscholes-mkl",
		Library:      "MKL",
		Description:  "Black Scholes option pricing over MKL-style vector math (Fig. 1, 4j)",
		Operators:    bsOperators,
		BaseParallel: true,
		Variants:     []Variant{Base, Mozart, MozartNoPipe, Weld},
		Prepare:      prepareBSVmath,
		DefaultScale: 1 << 22,
		Model: func(v Variant, cfg Config) *memsim.Workload {
			ops := bsModelOps()
			if v == Mozart || v == MozartNoPipe {
				// The program fills the zeros buffer eagerly, outside
				// the session (vmath.Fill is not annotated), so the real
				// plan has 31 calls; zeros still streams with the batch
				// via the fmax reads.
				ops = ops[1:]
			}
			return chainModel("blackscholes-mkl", ops, int64(cfg.Scale), 8, v, cfg.Batch)
		},
	})
}

func errUnsupported(v Variant) error {
	return &unsupportedError{v}
}

type unsupportedError struct{ v Variant }

func (e *unsupportedError) Error() string {
	return "workloads: variant " + string(e.v) + " not supported"
}
