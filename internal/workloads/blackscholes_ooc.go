package workloads

import (
	"fmt"
	"math"

	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
)

// Black Scholes over a chunked option generator (the out-of-core workload).
// The input is not an in-memory array but a lazy generator whose splitter
// synthesizes option chunks on demand from a pure per-index hash, so the
// working set of a window is bounded by the window size no matter how large
// the nominal input is. Under a Governor budget with Options.OutOfCore set,
// the stage loop drives the generator in admission-sized windows and
// spills each window's outputs, so a run whose nominal working set is far
// past the budget still completes (§PR7 pressure ladder). The Base variant
// streams the same chunks sequentially, so checksums match bit for bit.

// oocOptions is the lazy option-grid generator: N options derived from Seed,
// starting at absolute index Off (sub-generators returned by SplitAt carry a
// nonzero Off so window-local splits still address the global index space).
type oocOptions struct {
	N    int64
	Seed uint64
	Off  int64
}

// oocChunk is one materialized chunk of the option grid.
type oocChunk struct {
	price, strike, tt []float64
}

// oocMix is the splitmix64 finalizer over a lane-salted index: a pure hash,
// so any chunk of the grid can be synthesized independently and in parallel
// with bit-identical values.
func oocMix(seed uint64, i int64, lane uint64) uint64 {
	x := seed + lane*0xD1B54A32D192ED03 + uint64(i)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// oocVal maps the hash to a uniform value in [lo, hi).
func oocVal(seed uint64, i int64, lane uint64, lo, hi float64) float64 {
	u := float64(oocMix(seed, i, lane)>>11) / (1 << 53)
	return lo + u*(hi-lo)
}

// oocFill materializes grid values for absolute indices [base, base+n) —
// the same value ranges as data.OptionsData (prices and strikes in
// [10, 200), maturities in [0.1, 2)).
func oocFill(g *oocOptions, base, n int64) *oocChunk {
	c := &oocChunk{
		price:  make([]float64, n),
		strike: make([]float64, n),
		tt:     make([]float64, n),
	}
	for i := int64(0); i < n; i++ {
		idx := g.Off + base + i
		c.price[i] = oocVal(g.Seed, idx, 1, 10, 200)
		c.strike[i] = oocVal(g.Seed, idx, 2, 10, 200)
		c.tt[i] = oocVal(g.Seed, idx, 3, 0.1, 2)
	}
	return c
}

// oocSplitter splits the generator by materializing chunks. It is not
// in-place (each piece is fresh storage), and it implements core.SplitterAt
// so an out-of-core stage can take window views without materializing the
// whole grid.
type oocSplitter struct{}

// Info reports the nominal size: three float64 streams per option.
func (oocSplitter) Info(v any, t core.SplitType) (core.RuntimeInfo, error) {
	g, ok := v.(*oocOptions)
	if !ok {
		return core.RuntimeInfo{}, fmt.Errorf("workloads: OocSplit over %T", v)
	}
	return core.RuntimeInfo{Elems: g.N, ElemBytes: 24}, nil
}

// Split materializes the chunk [start, end).
func (oocSplitter) Split(v any, t core.SplitType, start, end int64) (any, error) {
	g, ok := v.(*oocOptions)
	if !ok {
		return nil, fmt.Errorf("workloads: OocSplit over %T", v)
	}
	if end > g.N {
		return nil, fmt.Errorf("workloads: ooc split [%d,%d) beyond %d options", start, end, g.N)
	}
	return oocFill(g, start, end-start), nil
}

// Merge is never valid: the generator is a pure input.
func (oocSplitter) Merge(pieces []any, t core.SplitType) (any, error) {
	return nil, fmt.Errorf("workloads: ooc generator pieces cannot be merged")
}

// SplitAt returns the sub-generator for [start, end) — a window view that
// synthesizes the same absolute indices, at zero materialization cost.
func (oocSplitter) SplitAt(v any, t core.SplitType, start, end int64) (any, error) {
	g, ok := v.(*oocOptions)
	if !ok {
		return nil, fmt.Errorf("workloads: OocSplit over %T", v)
	}
	if end > g.N {
		return nil, fmt.Errorf("workloads: ooc window [%d,%d) beyond %d options", start, end, g.N)
	}
	return &oocOptions{N: end - start, Seed: g.Seed, Off: g.Off + start}, nil
}

// oocSplit is the OocSplit(opts) constructor.
func oocSplit() core.TypeExpr {
	return core.Concrete("OocSplit", oocSplitter{}, func(args []any) (core.SplitType, error) {
		g, ok := args[0].(*oocOptions)
		if !ok {
			return core.SplitType{}, fmt.Errorf("workloads: OocSplit ctor: arg 0 is %T, want *oocOptions", args[0])
		}
		return core.NewSplitType("OocSplit", g.N), nil
	})
}

// bsScalar prices one option: call + put + vega + gamma, the same quantities
// bsChecksum sums for the array variants. Base and Mozart share this kernel,
// so cross-variant checksums are exactly equal.
func bsScalar(s, k, t float64) float64 {
	vst := bsVol * math.Sqrt(t)
	d1 := (math.Log(s/k) + (bsRiskFree+bsVol*bsVol/2)*t) / vst
	d2 := d1 - vst
	nd1 := 0.5 * (1 + math.Erf(d1/math.Sqrt2))
	nd2 := 0.5 * (1 + math.Erf(d2/math.Sqrt2))
	e := k * math.Exp(-bsRiskFree*t)
	call := math.Max(s*nd1-e*nd2, 0)
	put := math.Max(e*(1-nd2)-s*(1-nd1), 0)
	pdf := invSqrt2Pi * math.Exp(-0.5*d1*d1)
	vega := s * pdf * vst
	gamma := pdf / vst / s
	return call + put + vega + gamma
}

// bsChunkFn/bsChunkSA: the annotated call. One splittable generator argument
// in, one ArraySplit result out — concatenating merge, and ArraySplitter
// implements core.PieceCodec, so out-of-core runs spill the per-window
// partials instead of holding them.
var bsChunkFn core.Func = func(args []any) (any, error) {
	c, ok := args[0].(*oocChunk)
	if !ok {
		return nil, fmt.Errorf("workloads: bsChunk over %T", args[0])
	}
	out := make([]float64, len(c.price))
	for i := range out {
		out[i] = bsScalar(c.price[i], c.strike[i], c.tt[i])
	}
	return out, nil
}

var bsChunkSA = &core.Annotation{
	FuncName: "bsChunk",
	Params:   []core.Param{{Name: "opts", Type: oocSplit()}},
	Ret: func() *core.TypeExpr {
		t := core.Concrete("ArraySplit", vmathsa.ArraySplitter{},
			core.FixedCtor(core.NewSplitType("ArraySplit")))
		return &t
	}(),
}

// oocBaseChunk is the Base variant's streaming chunk size.
const oocBaseChunk = 1 << 16

func prepareBSOoc(cfg Config) (*Program, error) {
	gen := &oocOptions{N: int64(cfg.Scale), Seed: 0x0C0FFEE5EED}
	return &Program{cfg: cfg,
		pipeline: func(s *core.Session) (float64, error) {
			fut := s.Call(bsChunkFn, bsChunkSA, gen)
			if err := s.EvaluateContext(cfg.ctx()); err != nil {
				return 0, err
			}
			out, err := fut.Get()
			if err != nil {
				return 0, err
			}
			return sumOf(out.([]float64)), nil
		},
		// The library-only answer to a too-large grid: hand-rolled chunked
		// streaming, single-threaded. The pipeline has no eager form: its
		// one call takes chunks, which only the generator's splitter makes.
		base: func() (float64, error) {
			sum := 0.0
			for lo := int64(0); lo < gen.N; lo += oocBaseChunk {
				hi := min(lo+oocBaseChunk, gen.N)
				c := oocFill(gen, lo, hi-lo)
				for i := range c.price {
					sum += bsScalar(c.price[i], c.strike[i], c.tt[i])
				}
			}
			return sum, nil
		},
	}, nil
}

func init() {
	register(Spec{
		Name:    "blackscholes-ooc",
		Library: "MKL",
		Description: "Black Scholes over a chunked option generator sized past " +
			"the memory budget (out-of-core streaming)",
		Operators:    1,
		Variants:     []Variant{Base, Mozart, MozartNoPipe},
		Prepare:      prepareBSOoc,
		DefaultScale: 1 << 20,
	})
}
