package workloads

import (
	"mozart/internal/annotations/tensorsa"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/memsim"
	"mozart/internal/tensor"
	"mozart/internal/vmath"
	"mozart/internal/weldsim"
)

// Shallow Water (Figure 4d/4m): a Lax-Friedrichs-style step of the shallow
// water equations on periodic n x n grids. Column rolls are row-local and
// pipeline; row rolls move data across rows and run whole, producing the
// partial pipelining the paper describes for this workload.

const (
	swG  = 9.8
	swDt = 0.01
)

const swOperators = 23

// swChecksum sums the three updated fields.
func swChecksum(h, u, v []float64) float64 { return sumOf(h) + sumOf(u) + sumOf(v) }

// prepareSWTensor is the NumPy variant. Roll(a, k, axis) moves element i to
// i+k (numpy.roll semantics).
func prepareSWTensor(cfg Config) (*Program, error) {
	n := cfg.Scale
	h := tensor.FromSlice(data.FluidGrid(n, 41), n, n)
	u := tensor.FromSlice(data.Vector(n*n, 42, -0.1, 0.1), n, n)
	vv := tensor.FromSlice(data.Vector(n*n, 43, -0.1, 0.1), n, n)
	return &Program{cfg: cfg,
		pipeline: func(s *core.Session) (float64, error) {
			hx1, hx2 := tensorsa.Roll(s, h, 1, 1), tensorsa.Roll(s, h, -1, 1)                                       // 1, 2
			hy1, hy2 := tensorsa.Roll(s, h, 1, 0), tensorsa.Roll(s, h, -1, 0)                                       // 3, 4
			ux1, ux2 := tensorsa.Roll(s, u, 1, 1), tensorsa.Roll(s, u, -1, 1)                                       // 5, 6
			vy1, vy2 := tensorsa.Roll(s, vv, 1, 0), tensorsa.Roll(s, vv, -1, 0)                                     // 7, 8
			havg := tensorsa.MulS(s, tensorsa.Add(s, tensorsa.Add(s, hx1, hx2), tensorsa.Add(s, hy1, hy2)), 0.25)   // 9-12
			flux := tensorsa.MulS(s, tensorsa.Add(s, tensorsa.Sub(s, ux1, ux2), tensorsa.Sub(s, vy1, vy2)), swDt/2) // 13-16
			hn := tensorsa.Sub(s, havg, flux)                                                                       // 17
			un := tensorsa.Sub(s, u, tensorsa.MulS(s, tensorsa.Sub(s, hx1, hx2), swG*swDt/2))                       // 18-20
			vn := tensorsa.Sub(s, vv, tensorsa.MulS(s, tensorsa.Sub(s, hy1, hy2), swG*swDt/2))                      // 21-23
			sum := 0.0
			for _, f := range []*core.Future{hn, un, vn} {
				val, err := f.Get()
				if err != nil {
					return 0, err
				}
				sum += tensor.Sum(val.(*tensor.NDArray))
			}
			return sum, nil
		},
		weld: func(threads int) (float64, error) { return swWeld(h.Data, u.Data, vv.Data, n, threads), nil },
	}, nil
}

// prepareSWVmath is the MKL variant. vmath.ShiftCols/ShiftRows move element
// i+k to i, so k is negated to match numpy.roll.
func prepareSWVmath(cfg Config) (*Program, error) {
	n := cfg.Scale
	h := vmath.MatrixFrom(n, n, data.FluidGrid(n, 41))
	u := vmath.MatrixFrom(n, n, data.Vector(n*n, 42, -0.1, 0.1))
	vv := vmath.MatrixFrom(n, n, data.Vector(n*n, 43, -0.1, 0.1))
	mat := func() *vmath.Matrix { return vmath.NewMatrix(n, n) }
	hx1, hx2, hy1, hy2 := mat(), mat(), mat(), mat()
	ux1, ux2, vy1, vy2 := mat(), mat(), mat(), mat()
	havg, flux, t1, t2 := mat(), mat(), mat(), mat()
	hn, un, vn := mat(), mat(), mat()
	return &Program{cfg: cfg, mkl: true,
		pipeline: func(s *core.Session) (float64, error) {
			vmathsa.ShiftCols(s, h, -1, hx1)
			vmathsa.ShiftCols(s, h, 1, hx2)
			vmathsa.ShiftRows(s, h, -1, hy1)
			vmathsa.ShiftRows(s, h, 1, hy2)
			vmathsa.ShiftCols(s, u, -1, ux1)
			vmathsa.ShiftCols(s, u, 1, ux2)
			vmathsa.ShiftRows(s, vv, -1, vy1)
			vmathsa.ShiftRows(s, vv, 1, vy2)
			vmathsa.MatAdd(s, hx1, hx2, t1)
			vmathsa.MatAdd(s, hy1, hy2, t2)
			vmathsa.MatAdd(s, t1, t2, havg)
			vmathsa.MatScale(s, havg, 0.25, havg)
			vmathsa.MatSub(s, ux1, ux2, t1)
			vmathsa.MatSub(s, vy1, vy2, t2)
			vmathsa.MatAdd(s, t1, t2, flux)
			vmathsa.MatScale(s, flux, swDt/2, flux)
			vmathsa.MatSub(s, havg, flux, hn)
			vmathsa.MatSub(s, hx1, hx2, t1)
			vmathsa.MatScale(s, t1, swG*swDt/2, t1)
			vmathsa.MatSub(s, u, t1, un)
			vmathsa.MatSub(s, hy1, hy2, t2)
			vmathsa.MatScale(s, t2, swG*swDt/2, t2)
			vmathsa.MatSub(s, vv, t2, vn)
			if err := s.EvaluateContext(cfg.ctx()); err != nil {
				return 0, err
			}
			return swChecksum(hn.Data, un.Data, vn.Data), nil
		},
		weld: func(threads int) (float64, error) { return swWeld(h.Data, u.Data, vv.Data, n, threads), nil },
	}, nil
}

// swWeld rolls eagerly and fuses the elementwise updates.
func swWeld(h, u, v []float64, n, threads int) float64 {
	roll := func(a []float64, k, axis int) []float64 {
		out := make([]float64, n*n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				if axis == 0 {
					out[((r+k+n)%n)*n+c] = a[r*n+c]
				} else {
					out[r*n+(c+k+n)%n] = a[r*n+c]
				}
			}
		}
		return out
	}
	hx1, hx2 := weldsim.Source(roll(h, 1, 1)), weldsim.Source(roll(h, -1, 1))
	hy1, hy2 := weldsim.Source(roll(h, 1, 0)), weldsim.Source(roll(h, -1, 0))
	ux1, ux2 := weldsim.Source(roll(u, 1, 1)), weldsim.Source(roll(u, -1, 1))
	vy1, vy2 := weldsim.Source(roll(v, 1, 0)), weldsim.Source(roll(v, -1, 0))
	havg := hx1.Add(hx2).Add(hy1.Add(hy2)).MulS(0.25)
	flux := ux1.Sub(ux2).Add(vy1.Sub(vy2)).MulS(swDt / 2)
	hn := havg.Sub(flux)
	un := weldsim.Source(u).Sub(hx1.Sub(hx2).MulS(swG * swDt / 2))
	vn := weldsim.Source(v).Sub(hy1.Sub(hy2).MulS(swG * swDt / 2))
	outs := weldsim.Eval(threads, hn, un, vn)
	return swChecksum(outs[0], outs[1], outs[2])
}

func swModel(alloc bool) func(v Variant, cfg Config) *memsim.Workload {
	return func(v Variant, cfg Config) *memsim.Workload {
		elems := int64(cfg.Scale) * int64(cfg.Scale)
		const (
			h, u, vv                               = 0, 1, 2
			hx1, hx2, hy1, hy2, ux1, ux2, vy1, vy2 = 3, 4, 5, 6, 7, 8, 9, 10
			havg, flux, t1, t2, hn, un, vn         = 11, 12, 13, 14, 15, 16, 17
		)
		wholeRolls := memsim.Stage{
			Ops: []memsim.Op{
				{Name: "rollrows", CyclesPerElem: cycAdd, Reads: []int{h}, Writes: []int{hy1}},
				{Name: "rollrows", CyclesPerElem: cycAdd, Reads: []int{h}, Writes: []int{hy2}},
				{Name: "rollrows", CyclesPerElem: cycAdd, Reads: []int{vv}, Writes: []int{vy1}},
				{Name: "rollrows", CyclesPerElem: cycAdd, Reads: []int{vv}, Writes: []int{vy2}},
			},
			Elems: elems, ElemBytes: 8,
		}
		chainOps := []opSpec{
			op("rollcols", cycAdd, []int{h}, []int{hx1}),
			op("rollcols", cycAdd, []int{h}, []int{hx2}),
			op("rollcols", cycAdd, []int{u}, []int{ux1}),
			op("rollcols", cycAdd, []int{u}, []int{ux2}),
			op("add", cycAdd, []int{hx1, hx2}, []int{t1}),
			op("add", cycAdd, []int{hy1, hy2}, []int{t2}),
			op("add", cycAdd, []int{t1, t2}, []int{havg}),
			op("muls", cycMul, []int{havg}, []int{havg}),
			op("sub", cycAdd, []int{ux1, ux2}, []int{t1}),
			op("sub", cycAdd, []int{vy1, vy2}, []int{t2}),
			op("add", cycAdd, []int{t1, t2}, []int{flux}),
			op("muls", cycMul, []int{flux}, []int{flux}),
			op("sub", cycAdd, []int{havg, flux}, []int{hn}),
			op("sub", cycAdd, []int{hx1, hx2}, []int{t1}),
			op("muls", cycMul, []int{t1}, []int{t1}),
			op("sub", cycAdd, []int{u, t1}, []int{un}),
			op("sub", cycAdd, []int{hy1, hy2}, []int{t2}),
			op("muls", cycMul, []int{t2}, []int{t2}),
			op("sub", cycAdd, []int{vv, t2}, []int{vn}),
		}
		chain := chainModel("shallow-chain", chainOps, elems, 8, v, cfg.Batch)
		if alloc {
			chain = chainModelAlloc("shallow-chain", chainOps, elems, 8, v, cfg.Batch)
		}
		w := &memsim.Workload{Name: "shallow", Elems: elems}
		w.Stages = append(w.Stages, wholeRolls)
		w.Stages = append(w.Stages, chain.Stages...)
		return w
	}
}

func init() {
	register(Spec{
		Name:         "shallowwater-numpy",
		Library:      "NumPy",
		Description:  "Shallow water PDE step on periodic grids (Fig. 4d)",
		Operators:    swOperators,
		Variants:     []Variant{Base, Mozart, MozartNoPipe, Weld},
		Prepare:      prepareSWTensor,
		DefaultScale: 1024,
		Model:        swModel(true),
	})
	register(Spec{
		Name:         "shallowwater-mkl",
		Library:      "MKL",
		Description:  "Shallow water PDE step over MKL-style matrices (Fig. 4m)",
		Operators:    swOperators,
		BaseParallel: true,
		Variants:     []Variant{Base, Mozart, MozartNoPipe, Weld},
		Prepare:      prepareSWVmath,
		DefaultScale: 1024,
		Model:        swModel(false),
	})
}
