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

// nBody (Figure 4c/4l): Newtonian gravity over pairwise-interaction
// matrices. The O(n^2) pairwise elementwise chain pipelines; the outer
// differences that build the matrices read whole vectors and cannot be
// split, which is where the stage breaks land (§8.2).

const (
	nbG   = 1.0
	nbEps = 1e-3
	nbDt  = 0.01
)

const nbOperators = 29

// prepareNBodyVmath is the MKL variant.
func prepareNBodyVmath(cfg Config) (*Program, error) {
	n := cfg.Scale
	x, y, z, mass := data.Bodies(n, 31)
	vx, vy, vz := make([]float64, n), make([]float64, n), make([]float64, n)
	mat := func() *vmath.Matrix { return vmath.NewMatrix(n, n) }
	dx, dy, dz, r2, t1 := mat(), mat(), mat(), mat(), mat()
	fx, fy, fz := mat(), mat(), mat()
	ax, ay, az := make([]float64, n), make([]float64, n), make([]float64, n)
	tmp := make([]float64, n)
	return &Program{cfg: cfg, mkl: true,
		pipeline: func(s *core.Session) (float64, error) {
			vmathsa.OuterDiff(s, x, dx)        // 1
			vmathsa.OuterDiff(s, y, dy)        // 2
			vmathsa.OuterDiff(s, z, dz)        // 3
			vmathsa.MatMulElem(s, dx, dx, r2)  // 4
			vmathsa.MatMulElem(s, dy, dy, t1)  // 5
			vmathsa.MatAdd(s, r2, t1, r2)      // 6
			vmathsa.MatMulElem(s, dz, dz, t1)  // 7
			vmathsa.MatAdd(s, r2, t1, r2)      // 8
			vmathsa.MatAddC(s, r2, nbEps, r2)  // 9
			vmathsa.MatPowC(s, r2, -1.5, r2)   // 10
			vmathsa.MulRowVec(s, r2, mass, r2) // 11
			vmathsa.MatMulElem(s, dx, r2, fx)  // 12
			vmathsa.MatMulElem(s, dy, r2, fy)  // 13
			vmathsa.MatMulElem(s, dz, r2, fz)  // 14
			vmathsa.RowSums(s, fx, ax)         // 15
			vmathsa.RowSums(s, fy, ay)         // 16
			vmathsa.RowSums(s, fz, az)         // 17
			for _, upd := range [][2][]float64{{ax, vx}, {ay, vy}, {az, vz}} {
				vmathsa.MulC(s, n, upd[0], -nbG*nbDt, tmp) // 18, 20, 22
				vmathsa.Add(s, n, upd[1], tmp, upd[1])     // 19, 21, 23
			}
			for _, upd := range [][2][]float64{{vx, x}, {vy, y}, {vz, z}} {
				vmathsa.MulC(s, n, upd[0], nbDt, tmp)  // 24, 26, 28
				vmathsa.Add(s, n, upd[1], tmp, upd[1]) // 25, 27, 29
			}
			if err := s.EvaluateContext(cfg.ctx()); err != nil {
				return 0, err
			}
			return sumOf(x) + sumOf(y) + sumOf(z) + sumOf(vx) + sumOf(vy) + sumOf(vz), nil
		},
		weld: func(threads int) (float64, error) {
			return nbodyWeld(x, y, z, vx, vy, vz, mass, threads), nil
		},
	}, nil
}

// nbodyWeld computes the pairwise chain as fused expressions; the outer
// differences and the row-sum reductions are "captured" eagerly, the way
// Bohrium handles indexing operations.
func nbodyWeld(x, y, z, vx, vy, vz, mass []float64, threads int) float64 {
	n := len(x)
	dx, dy, dz := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	mm := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dx[i*n+j] = x[i] - x[j]
			dy[i*n+j] = y[i] - y[j]
			dz[i*n+j] = z[i] - z[j]
			mm[i*n+j] = mass[j]
		}
	}
	vdx, vdy, vdz := weldsim.Source(dx), weldsim.Source(dy), weldsim.Source(dz)
	inv := vdx.Square().Add(vdy.Square()).Add(vdz.Square()).AddS(nbEps).Pow(weldsim.Const(-1.5, n*n)).Mul(weldsim.Source(mm))
	outs := weldsim.Eval(threads, vdx.Mul(inv), vdy.Mul(inv), vdz.Mul(inv))
	sum := 0.0
	for i := 0; i < n; i++ {
		var axr, ayr, azr float64
		for j := 0; j < n; j++ {
			axr += outs[0][i*n+j]
			ayr += outs[1][i*n+j]
			azr += outs[2][i*n+j]
		}
		vx[i] += -nbG * nbDt * axr
		vy[i] += -nbG * nbDt * ayr
		vz[i] += -nbG * nbDt * azr
		x[i] += vx[i] * nbDt
		y[i] += vy[i] * nbDt
		z[i] += vz[i] * nbDt
		sum += x[i] + y[i] + z[i] + vx[i] + vy[i] + vz[i]
	}
	return sum
}

// prepareNBodyTensor is the NumPy variant; the mass broadcast matrix is
// built with an outer op, and per-row reductions use SumAxis over axis 1.
func prepareNBodyTensor(cfg Config) (*Program, error) {
	n := cfg.Scale
	xs, ys, zs, ms := data.Bodies(n, 31)
	x := tensor.FromSlice(xs, n)
	y := tensor.FromSlice(ys, n)
	z := tensor.FromSlice(zs, n)
	mass := tensor.FromSlice(ms, n)
	zerov := tensor.New(n)
	vx, vy, vz := tensor.New(n), tensor.New(n), tensor.New(n)
	return &Program{cfg: cfg,
		pipeline: func(s *core.Session) (float64, error) {
			dx := tensorsa.OuterSub(s, x, x)
			dy := tensorsa.OuterSub(s, y, y)
			dz := tensorsa.OuterSub(s, z, z)
			mm := tensorsa.OuterSub(s, zerov, tensorsa.Neg(s, mass)) // mm[i][j] = mass[j]
			r2 := tensorsa.AddS(s, tensorsa.Add(s, tensorsa.Add(s, tensorsa.Square(s, dx), tensorsa.Square(s, dy)), tensorsa.Square(s, dz)), nbEps)
			inv := tensorsa.Mul(s, tensorsa.PowS(s, r2, -1.5), mm)
			ax := tensorsa.SumAxis(s, tensorsa.Mul(s, dx, inv), 1)
			ay := tensorsa.SumAxis(s, tensorsa.Mul(s, dy, inv), 1)
			az := tensorsa.SumAxis(s, tensorsa.Mul(s, dz, inv), 1)
			fvx := tensorsa.Add(s, vx, tensorsa.MulS(s, ax, -nbG*nbDt))
			fvy := tensorsa.Add(s, vy, tensorsa.MulS(s, ay, -nbG*nbDt))
			fvz := tensorsa.Add(s, vz, tensorsa.MulS(s, az, -nbG*nbDt))
			fx := tensorsa.Add(s, x, tensorsa.MulS(s, fvx, nbDt))
			fy := tensorsa.Add(s, y, tensorsa.MulS(s, fvy, nbDt))
			fz := tensorsa.Add(s, z, tensorsa.MulS(s, fvz, nbDt))
			sum := 0.0
			for _, f := range []*core.Future{fx, fy, fz, fvx, fvy, fvz} {
				v, err := f.Get()
				if err != nil {
					return 0, err
				}
				sum += tensor.Sum(v.(*tensor.NDArray))
			}
			return sum, nil
		},
		weld: func(threads int) (float64, error) {
			vxs, vys, vzs := make([]float64, n), make([]float64, n), make([]float64, n)
			return nbodyWeld(xs, ys, zs, vxs, vys, vzs, ms, threads), nil
		},
	}, nil
}

// nbModel builds the memsim plan: whole outer stages over n^2 elements,
// one pipelined pairwise stage, and a small vector stage. alloc marks the
// out-of-place (NumPy) flavor whose intermediates are batch-local.
func nbModel(alloc bool) func(v Variant, cfg Config) *memsim.Workload {
	return func(v Variant, cfg Config) *memsim.Workload {
		n := int64(cfg.Scale)
		pair := n * n
		const (
			dx, dy, dz, r2, t1, mm = 0, 1, 2, 3, 4, 5
			fx, fy, fz             = 6, 7, 8
		)
		outer := memsim.Stage{
			Ops: []memsim.Op{
				{Name: "outer", CyclesPerElem: cycAdd, Writes: []int{dx}},
				{Name: "outer", CyclesPerElem: cycAdd, Writes: []int{dy}},
				{Name: "outer", CyclesPerElem: cycAdd, Writes: []int{dz}},
				{Name: "outer", CyclesPerElem: cycAdd, Writes: []int{mm}},
			},
			Elems: pair, ElemBytes: 8,
		}
		pairOps := []opSpec{
			op("mul", cycMul, []int{dx, dx}, []int{r2}),
			op("mul", cycMul, []int{dy, dy}, []int{t1}),
			op("add", cycAdd, []int{r2, t1}, []int{r2}),
			op("mul", cycMul, []int{dz, dz}, []int{t1}),
			op("add", cycAdd, []int{r2, t1}, []int{r2}),
			op("addc", cycAdd, []int{r2}, []int{r2}),
			op("pow", cycExp, []int{r2}, []int{r2}),
			op("mulrow", cycMul, []int{r2, mm}, []int{r2}),
			op("mul", cycMul, []int{dx, r2}, []int{fx}),
			op("mul", cycMul, []int{dy, r2}, []int{fy}),
			op("mul", cycMul, []int{dz, r2}, []int{fz}),
			op("rowsum", cycAdd, []int{fx}, nil),
			op("rowsum", cycAdd, []int{fy}, nil),
			op("rowsum", cycAdd, []int{fz}, nil),
		}
		chain := chainModel("nbody-pair", pairOps, pair, 8, v, cfg.Batch)
		if alloc {
			chain = chainModelAlloc("nbody-pair", pairOps, pair, 8, v, cfg.Batch)
		}
		vec := memsim.Stage{
			Ops:   []memsim.Op{{Name: "integrate", CyclesPerElem: 12 * cycMul, Reads: []int{20}, Writes: []int{21}}},
			Elems: n, ElemBytes: 8,
		}
		w := &memsim.Workload{Name: "nbody", Elems: pair}
		w.Stages = append(w.Stages, outer)
		w.Stages = append(w.Stages, chain.Stages...)
		w.Stages = append(w.Stages, vec)
		return w
	}
}

func init() {
	register(Spec{
		Name:         "nbody-numpy",
		Library:      "NumPy",
		Description:  "Newtonian n-body step over pairwise matrices (Fig. 4c)",
		Operators:    nbOperators,
		Variants:     []Variant{Base, Mozart, MozartNoPipe, Weld},
		Prepare:      prepareNBodyTensor,
		DefaultScale: 1024,
		Model:        nbModel(true),
	})
	register(Spec{
		Name:         "nbody-mkl",
		Library:      "MKL",
		Description:  "Newtonian n-body step over MKL-style matrices (Fig. 4l)",
		Operators:    nbOperators,
		BaseParallel: true,
		Variants:     []Variant{Base, Mozart, MozartNoPipe, Weld},
		Prepare:      prepareNBodyVmath,
		DefaultScale: 1024,
		Model:        nbModel(false),
	})
}
