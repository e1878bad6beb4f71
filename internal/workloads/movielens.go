package workloads

import (
	"math"

	"mozart/internal/annotations/framesa"
	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/frame"
	"mozart/internal/memsim"
	"mozart/internal/weldsim"
)

// MovieLens (Figure 4h): join the ratings fact table with the users and
// movies dimensions, group mean ratings by (title, gender), and find the
// most divisive movies (largest |mean_F - mean_M|). Mozart pipelines the
// two joins (probe side split, indexes broadcast) and parallelizes the
// grouped aggregation.

const mlOperators = 7

func mlScaleDims(scale int) (users, movies int) {
	users = scale / 100
	if users < 4 {
		users = 4
	}
	movies = scale / 200
	if movies < 4 {
		movies = 4
	}
	return users, movies
}

// mlDivisiveness folds the grouped means into a checksum: sum over movies
// of |mean_F - mean_M|.
func mlDivisiveness(g *frame.DataFrame) float64 {
	means := map[string][2]float64{} // title -> [F, M]
	seen := map[string][2]bool{}
	for r := 0; r < g.NRows(); r++ {
		title := g.Col("title").S[r]
		m := means[title]
		sm := seen[title]
		if g.Col("gender").S[r] == "F" {
			m[0], sm[0] = g.Col("avg").F[r], true
		} else {
			m[1], sm[1] = g.Col("avg").F[r], true
		}
		means[title], seen[title] = m, sm
	}
	sum := 0.0
	for t, m := range means {
		if seen[t][0] && seen[t][1] {
			sum += math.Abs(m[0] - m[1])
		}
	}
	return sum
}

func prepareMovieLens(cfg Config) (*Program, error) {
	nu, nm := mlScaleDims(cfg.Scale)
	ratings, users, movies := data.MovieLens(cfg.Scale, nu, nm, 81)
	specs := []frame.AggSpec{{Col: "rating", Kind: frame.AggMean, As: "avg"}}
	keys := []string{"title", "gender"}
	return &Program{cfg: cfg,
		pipeline: func(s *core.Session) (float64, error) {
			uix := frame.NewIndex(users, "userId")                            // 1
			mix := frame.NewIndex(movies, "movieId")                          // 2
			j1 := framesa.JoinIndexed(s, ratings, uix, "userId", frame.Inner) // 3
			j2 := framesa.JoinIndexed(s, j1, mix, "movieId", frame.Inner)     // 4
			g := framesa.GroupByAgg(s, j2, keys, specs)                       // 5
			out := framesa.ToDataFrame(s, g)                                  // 6
			gv, err := out.Get()
			if err != nil {
				return 0, err
			}
			return mlDivisiveness(gv.(*frame.DataFrame)), nil // 7
		},
		weld: func(threads int) (float64, error) {
			// Weld-style: dictionary joins gathered into vectors, then a
			// dictmerger keyed by title\x00gender.
			ub := weldsim.BuildIndexI64(users.Col("userId").I)
			mb := weldsim.BuildIndexI64(movies.Col("movieId").I)
			pIdx, uIdx := weldsim.HashJoinGather(ratings.Col("userId").I, ub, threads)
			keysv := make([]string, 0, len(pIdx))
			vals := make([]float64, 0, len(pIdx))
			gender := users.Col("gender").S
			title := movies.Col("title").S
			mid := ratings.Col("movieId").I
			rat := ratings.Col("rating").F
			for k, p := range pIdx {
				if m, ok := mb[mid[p]]; ok {
					keysv = append(keysv, title[m]+"\x00"+gender[uIdx[k]])
					vals = append(vals, rat[p])
				}
			}
			g := weldsim.GroupSumByKey(keysv, vals, threads)
			means := map[string][2]float64{}
			seen := map[string][2]bool{}
			for _, k := range g.Keys() {
				sep := -1
				for i := 0; i < len(k); i++ {
					if k[i] == 0 {
						sep = i
						break
					}
				}
				t, gen := k[:sep], k[sep+1:]
				m, sm := means[t], seen[t]
				if gen == "F" {
					m[0], sm[0] = g.Mean(k), true
				} else {
					m[1], sm[1] = g.Mean(k), true
				}
				means[t], seen[t] = m, sm
			}
			sum := 0.0
			for t, m := range means {
				if seen[t][0] && seen[t][1] {
					sum += math.Abs(m[0] - m[1])
				}
			}
			return sum, nil
		},
	}, nil
}

func mlModel(v Variant, cfg Config) *memsim.Workload {
	joinCyc, groupCyc := 10.0, 12.0
	ops := []opSpec{
		{name: "join-users", cycles: joinCyc, weldC: joinCyc, reads: []int{0}, writes: []int{1}},
		{name: "join-movies", cycles: joinCyc, weldC: joinCyc, reads: []int{1}, writes: []int{2}},
		{name: "group", cycles: groupCyc, weldC: groupCyc * 1.2, reads: []int{2}, writes: nil},
	}
	// Join output rows carry several columns: ~48 bytes per element.
	return chainModelAlloc("movielens", ops, int64(cfg.Scale), 48, v, cfg.Batch)
}

func init() {
	register(Spec{
		Name:         "movielens-pandas",
		Library:      "Pandas",
		Description:  "two joins plus grouped mean ratings by (title, gender) (Fig. 4h)",
		Operators:    mlOperators,
		Variants:     []Variant{Base, Mozart, MozartNoPipe, Weld},
		Prepare:      prepareMovieLens,
		DefaultScale: 1 << 18,
		Model:        mlModel,
	})
}
