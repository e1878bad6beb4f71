package workloads

import (
	"mozart/internal/annotations/framesa"
	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/memsim"
)

// Data Cleaning (Figure 4e): the Pandas-cookbook 311-requests zip cleanup:
// slice zips to five digits, null out junk values ("NO CLUE", "N/A", "0"),
// and count what remains. 8 library calls, all row-local, fully
// pipelineable.

const dcOperators = 8

func prepareDataCleaning(cfg Config) (*Program, error) {
	zips := data.ServiceRequests(cfg.Scale, 51).Col("Incident Zip")
	return &Program{cfg: cfg,
		pipeline: func(s *core.Session) (float64, error) {
			sliced := framesa.StrSlice(s, zips, 0, 5)            // 1
			junk := framesa.InStrings(s, sliced, "NO CL", "N/A") // 2
			zero := framesa.EqString(s, sliced, "0")             // 3
			bad := framesa.Or(s, junk, zero)                     // 4
			cleaned := framesa.MaskToNull(s, sliced, bad)        // 5
			framesa.StrLenGt(s, cleaned, 4)                      // 6: well-formed mask
			framesa.IsNull(s, cleaned)                           // 7
			count := framesa.CountValid(s, cleaned)              // 8
			n, err := count.Int64()
			if err != nil {
				return 0, err
			}
			return float64(n), nil
		},
	}, nil
}

func dcModel(v Variant, cfg Config) *memsim.Workload {
	// String rows ~24 bytes; every op streams the column.
	ops := []opSpec{
		op("str.slice", 4*cycMul, []int{0}, []int{1}),
		op("isin", 3*cycMul, []int{1}, []int{2}),
		op("eq", 2*cycMul, []int{1}, []int{3}),
		op("or", cycAdd, []int{2, 3}, []int{4}),
		op("maskToNull", 2*cycMul, []int{1, 4}, []int{5}),
		op("len.gt", cycMul, []int{5}, []int{6}),
		op("isnull", cycMul, []int{5}, []int{7}),
		op("count", cycAdd, []int{5}, nil),
	}
	return chainModelAlloc("datacleaning", ops, int64(cfg.Scale), 24, v, cfg.Batch)
}

func init() {
	register(Spec{
		Name:         "datacleaning-pandas",
		Library:      "Pandas",
		Description:  "311-requests zip-code cleanup: slice, junk masks, nulls (Fig. 4e)",
		Operators:    dcOperators,
		Variants:     []Variant{Base, Mozart, MozartNoPipe},
		Prepare:      prepareDataCleaning,
		DefaultScale: 1 << 19,
		Model:        dcModel,
	})
}
