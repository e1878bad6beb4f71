package workloads

import (
	"strconv"

	"mozart/internal/annotations/framesa"
	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/frame"
	"mozart/internal/memsim"
	"mozart/internal/weldsim"
)

// Birth Analysis (Figure 4g): given births by name/year/sex, compute the
// fraction of births with names starting "Lesl", grouped by sex and year.
// Dominated by grouped aggregation: Mozart splits the grouped frames,
// creates partial aggregations per chunk, and re-aggregates in the merger.

const baOperators = 6

func baSpecs() []frame.AggSpec {
	return []frame.AggSpec{{Col: "births", Kind: frame.AggSum, As: "total"}}
}

// baResult folds the two grouped frames into a checksum over the Lesl
// fraction per (sex, year) group.
func baResult(all, lesl *frame.DataFrame) float64 {
	frac := map[[2]any]float64{}
	for r := 0; r < lesl.NRows(); r++ {
		k := [2]any{lesl.Col("sex").S[r], lesl.Col("year").I[r]}
		frac[k] = lesl.Col("total").F[r]
	}
	sum := 0.0
	for r := 0; r < all.NRows(); r++ {
		k := [2]any{all.Col("sex").S[r], all.Col("year").I[r]}
		if tot := all.Col("total").F[r]; tot > 0 {
			sum += frac[k] / tot
		}
	}
	return sum
}

func prepareBirthAnalysis(cfg Config) (*Program, error) {
	df := data.BabyNames(cfg.Scale, 71)
	keys := []string{"sex", "year"}
	return &Program{cfg: cfg,
		pipeline: func(s *core.Session) (float64, error) {
			mask := framesa.StrStartsWith(s, df.Col("name"), "Lesl") // 1
			lesl := framesa.Filter(s, df, mask)                      // 2
			gAll := framesa.GroupByAgg(s, df, keys, baSpecs())       // 3
			gLesl := framesa.GroupByAgg(s, lesl, keys, baSpecs())    // 4
			allDf := framesa.ToDataFrame(s, gAll)                    // 5
			leslDf := framesa.ToDataFrame(s, gLesl)                  // 6
			av, err := allDf.Get()
			if err != nil {
				return 0, err
			}
			lv, err := leslDf.Get()
			if err != nil {
				return 0, err
			}
			return baResult(av.(*frame.DataFrame), lv.(*frame.DataFrame)), nil
		},
		weld: func(threads int) (float64, error) {
			// Weld-style: dictmerger aggregations keyed by sex\x00year.
			n := df.NRows()
			keysv := make([]string, n)
			sex, year := df.Col("sex").S, df.Col("year").I
			births := df.Col("births").F
			name := df.Col("name").S
			for i := 0; i < n; i++ {
				keysv[i] = sex[i] + "\x00" + strconv.FormatInt(year[i], 10)
			}
			all := weldsim.GroupSumByKey(keysv, births, threads)
			leslBirths := make([]float64, n)
			for i := 0; i < n; i++ {
				if len(name[i]) >= 4 && name[i][:4] == "Lesl" {
					leslBirths[i] = births[i]
				}
			}
			lesl := weldsim.GroupSumByKey(keysv, leslBirths, threads)
			sum := 0.0
			for _, k := range all.Keys() {
				if tot := all.Sums[k]; tot > 0 {
					sum += lesl.Sums[k] / tot
				}
			}
			return sum, nil
		},
	}, nil
}

func baModel(v Variant, cfg Config) *memsim.Workload {
	// Grouping dominates: hash probe + accumulate per row. Mozart gains
	// come from parallelizing the grouped aggregation (no pipelined chain
	// of cheap ops to save memory traffic on), matching Fig. 4g.
	groupCyc := 12.0
	ops := []opSpec{
		op("startswith", 2*cycMul, []int{0}, []int{1}),
		op("filter", 2*cycMul, []int{0, 1}, []int{2}),
		{name: "groupAll", cycles: groupCyc, weldC: groupCyc * 1.3, reads: []int{0, 3}, writes: nil},
		{name: "groupLesl", cycles: groupCyc, weldC: groupCyc * 1.3, reads: []int{2}, writes: nil},
	}
	return chainModelAlloc("birthanalysis", ops, int64(cfg.Scale), 24, v, cfg.Batch)
}

func init() {
	register(Spec{
		Name:         "birthanalysis-pandas",
		Library:      "Pandas",
		Description:  "fraction of 'Lesl*' names by sex and year via groupBy (Fig. 4g)",
		Operators:    baOperators,
		Variants:     []Variant{Base, Mozart, MozartNoPipe, Weld},
		Prepare:      prepareBirthAnalysis,
		DefaultScale: 1 << 18,
		Model:        baModel,
	})
}
