package workloads

import (
	"math"

	"mozart/internal/annotations/tensorsa"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/memsim"
	"mozart/internal/tensor"
	"mozart/internal/weldsim"
)

// Haversine distance (Figure 4b/4k): great-circle distance from a vector
// of GPS coordinates to a fixed point, 18 vector calls using the
// atan2 formulation: a = sin^2(dlat/2) + cos(lat1) cos(lat2) sin^2(dlon/2),
// d = 2 R atan2(sqrt(a), sqrt(1-a)).

const (
	havLat2   = 0.70 // radians: the fixed destination
	havLon2   = -1.29
	havRadius = 6371.0
)

const havOperators = 18

func prepareHavVmath(cfg Config) (*Program, error) {
	lat, lon := data.GPSData(cfg.Scale, 21)
	n := cfg.Scale
	return &Program{cfg: cfg, mkl: true,
		pipeline: func(s *core.Session) (float64, error) {
			alloc := func() []float64 { return make([]float64, n) }
			dlat, dlon, s1, s2, cl, a, b, d := alloc(), alloc(), alloc(), alloc(), alloc(), alloc(), alloc(), alloc()
			vmathsa.SubC(s, n, lat, havLat2, dlat)        // 1
			vmathsa.SubC(s, n, lon, havLon2, dlon)        // 2
			vmathsa.MulC(s, n, dlat, 0.5, dlat)           // 3
			vmathsa.MulC(s, n, dlon, 0.5, dlon)           // 4
			vmathsa.Sin(s, n, dlat, s1)                   // 5
			vmathsa.Sin(s, n, dlon, s2)                   // 6
			vmathsa.Mul(s, n, s1, s1, s1)                 // 7
			vmathsa.Mul(s, n, s2, s2, s2)                 // 8
			vmathsa.Cos(s, n, lat, cl)                    // 9
			vmathsa.MulC(s, n, cl, math.Cos(havLat2), cl) // 10
			vmathsa.Mul(s, n, cl, s2, s2)                 // 11
			vmathsa.Add(s, n, s1, s2, a)                  // 12
			vmathsa.Sqrt(s, n, a, b)                      // 13
			vmathsa.SubCRev(s, n, a, 1, a)                // 14
			vmathsa.Sqrt(s, n, a, a)                      // 15
			vmathsa.Atan2(s, n, b, a, d)                  // 16
			vmathsa.MulC(s, n, d, 2, d)                   // 17
			vmathsa.MulC(s, n, d, havRadius, d)           // 18
			if err := s.EvaluateContext(cfg.ctx()); err != nil {
				return 0, err
			}
			return sumOf(d), nil
		},
		weld: func(threads int) (float64, error) { return sumOf(havWeld(lat, lon, threads)), nil },
	}, nil
}

func havWeld(lat, lon []float64, threads int) []float64 {
	la, lo := weldsim.Source(lat), weldsim.Source(lon)
	s1 := la.SubS(havLat2).MulS(0.5).Sin().Square()
	s2 := lo.SubS(havLon2).MulS(0.5).Sin().Square()
	a := s1.Add(la.Cos().MulS(math.Cos(havLat2)).Mul(s2))
	d := a.Sqrt().Atan2(a.RSubS(1).Sqrt()).MulS(2 * havRadius)
	return weldsim.Eval(threads, d)[0]
}

func prepareHavTensor(cfg Config) (*Program, error) {
	la, lo := data.GPSData(cfg.Scale, 21)
	lat := tensor.FromSlice(la, len(la))
	lon := tensor.FromSlice(lo, len(lo))
	return &Program{cfg: cfg,
		pipeline: func(s *core.Session) (float64, error) {
			s1 := tensorsa.Square(s, tensorsa.Sin(s, tensorsa.MulS(s, tensorsa.SubS(s, lat, havLat2), 0.5)))
			s2 := tensorsa.Square(s, tensorsa.Sin(s, tensorsa.MulS(s, tensorsa.SubS(s, lon, havLon2), 0.5)))
			a := tensorsa.Add(s, s1, tensorsa.Mul(s, tensorsa.MulS(s, tensorsa.Cos(s, lat), math.Cos(havLat2)), s2))
			d := tensorsa.MulS(s, tensorsa.Atan2(s, tensorsa.Sqrt(s, a), tensorsa.Sqrt(s, tensorsa.RSubS(s, a, 1))), 2*havRadius)
			return tensorsa.Sum(s, d).Float64()
		},
		weld: func(threads int) (float64, error) { return sumOf(havWeld(la, lo, threads)), nil },
	}, nil
}

func havModelOps() []opSpec {
	const (
		lat, lon               = 0, 1
		dlat, dlon, s1, s2, cl = 2, 3, 4, 5, 6
		a, b, d                = 7, 8, 9
	)
	cycSin := cycErf // trig intensity comparable to erf
	return []opSpec{
		op("subc", cycAdd, []int{lat}, []int{dlat}),
		op("subc", cycAdd, []int{lon}, []int{dlon}),
		op("mulc", cycMul, []int{dlat}, []int{dlat}),
		op("mulc", cycMul, []int{dlon}, []int{dlon}),
		op("sin", cycSin, []int{dlat}, []int{s1}),
		op("sin", cycSin, []int{dlon}, []int{s2}),
		op("mul", cycMul, []int{s1, s1}, []int{s1}),
		op("mul", cycMul, []int{s2, s2}, []int{s2}),
		op("cos", cycSin, []int{lat}, []int{cl}),
		op("mulc", cycMul, []int{cl}, []int{cl}),
		op("mul", cycMul, []int{cl, s2}, []int{s2}),
		op("add", cycAdd, []int{s1, s2}, []int{a}),
		op("sqrt", cycSqrt, []int{a}, []int{b}),
		op("subcrev", cycAdd, []int{a}, []int{a}),
		op("sqrt", cycSqrt, []int{a}, []int{a}),
		op("atan2", cycExp, []int{b, a}, []int{d}),
		op("mulc", cycMul, []int{d}, []int{d}),
		op("mulc", cycMul, []int{d}, []int{d}),
	}
}

func init() {
	register(Spec{
		Name:         "haversine-numpy",
		Library:      "NumPy",
		Description:  "Haversine distance from GPS coordinates to a fixed point (Fig. 4b)",
		Operators:    havOperators,
		Variants:     []Variant{Base, Mozart, MozartNoPipe, Weld},
		Prepare:      prepareHavTensor,
		DefaultScale: 1 << 22,
		Model: func(v Variant, cfg Config) *memsim.Workload {
			return chainModelAlloc("haversine-numpy", havModelOps(), int64(cfg.Scale), 8, v, cfg.Batch)
		},
	})
	register(Spec{
		Name:         "haversine-mkl",
		Library:      "MKL",
		Description:  "Haversine distance over MKL-style vector math (Fig. 4k)",
		Operators:    havOperators,
		BaseParallel: true,
		Variants:     []Variant{Base, Mozart, MozartNoPipe, Weld},
		Prepare:      prepareHavVmath,
		DefaultScale: 1 << 22,
		Model: func(v Variant, cfg Config) *memsim.Workload {
			return chainModel("haversine-mkl", havModelOps(), int64(cfg.Scale), 8, v, cfg.Batch)
		},
	})
}
