package workloads

import (
	"mozart/internal/annotations/framesa"
	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/memsim"
	"mozart/internal/weldsim"
)

// Crime Index (Figure 4f): compute an average crime-index score from
// per-record population and crime counts — scalar arithmetic over float
// columns, two filters, and a final sum. 16 library calls, fully
// pipelineable, with `unknown` filter outputs flowing into generics.

const ciOperators = 15

func prepareCrimeIndex(cfg Config) (*Program, error) {
	df := data.CityData(cfg.Scale, 61)
	return &Program{cfg: cfg,
		pipeline: func(s *core.Session) (float64, error) {
			pop := df.Col("population")                      // big-city filter
			bigMask := framesa.GtScalar(s, pop, 500000)      // 1
			big := framesa.Filter(s, df, bigMask)            // 2
			pop2 := framesa.Col(s, big, "population")        // 3
			crime := framesa.Col(s, big, "total_crimes")     // 4
			rate := framesa.DivSeries(s, crime, pop2)        // 5
			perCapita := framesa.MulScalar(s, rate, 1000)    // 6
			weighted := framesa.MulScalar(s, perCapita, 2.0) // 7
			adj := framesa.AddScalar(s, weighted, 10)        // 8
			highMask := framesa.LtScalar(s, adj, 60)         // 9
			sane := framesa.FilterSeries(s, adj, highMask)   // 10
			idx := framesa.SubScalar(s, sane, 10)            // 11
			idx = framesa.DivScalar(s, idx, 2)               // 12
			framesa.MulScalar(s, idx, 1)                     // 13: normalization pass
			total := framesa.SumFloat(s, idx)                // 14
			count := framesa.CountValid(s, idx)              // 15
			tv, err := total.Float64()
			if err != nil {
				return 0, err
			}
			cv, err := count.Int64()
			if err != nil {
				return 0, err
			}
			if cv == 0 {
				return 0, nil
			}
			return tv / float64(cv), nil // 16
		},
		weld: func(threads int) (float64, error) {
			pop := df.Col("population").F
			crime := df.Col("total_crimes").F
			vp, vc := weldsim.Source(pop), weldsim.Source(crime)
			adj := vc.Div(vp).MulS(1000).MulS(2).AddS(10)
			keep := vp.GtS(500000)
			// Fused filter: contribute only where both masks hold.
			mask := keep.Mul(adj.LtS(60))
			idx := adj.SubS(10).DivS(2)
			total := idx.Mul(mask).Sum(threads)
			count := mask.Sum(threads)
			if count == 0 {
				return 0, nil
			}
			return total / count, nil
		},
	}, nil
}

func ciModel(v Variant, cfg Config) *memsim.Workload {
	ops := []opSpec{
		op("gt", cycCmp, []int{0}, []int{2}),
		op("filter", 2*cycMul, []int{0, 1, 2}, []int{3, 4}),
		op("col", cycCmp, []int{3}, nil),
		op("col", cycCmp, []int{4}, nil),
		op("div", cycDiv, []int{3, 4}, []int{5}),
		op("muls", cycMul, []int{5}, []int{5}),
		op("muls", cycMul, []int{5}, []int{5}),
		op("adds", cycAdd, []int{5}, []int{5}),
		op("lt", cycCmp, []int{5}, []int{6}),
		op("filter", 2*cycMul, []int{5, 6}, []int{7}),
		op("subs", cycAdd, []int{7}, []int{7}),
		op("divs", cycDiv, []int{7}, []int{7}),
		op("muls", cycMul, []int{7}, []int{7}),
		op("sum", cycAdd, []int{7}, nil),
		op("count", cycAdd, []int{7}, nil),
	}
	return chainModelAlloc("crimeindex", ops, int64(cfg.Scale), 8, v, cfg.Batch)
}

func init() {
	register(Spec{
		Name:         "crimeindex-pandas",
		Library:      "Pandas",
		Description:  "average crime index from per-city population/crime data (Fig. 4f)",
		Operators:    ciOperators,
		Variants:     []Variant{Base, Mozart, MozartNoPipe, Weld},
		Prepare:      prepareCrimeIndex,
		DefaultScale: 1 << 19,
		Model:        ciModel,
	})
}
