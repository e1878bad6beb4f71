// Wall-clock benchmarks, one family per paper table/figure. The multicore
// *shapes* of the figures are regenerated by cmd/sabench on the memsim
// machine model (a 2-core host cannot show 16 threads); these testing.B
// benches measure the real runtime and substrates end to end at
// bench-friendly scales. Run with:
//
//	go test -bench=. -benchmem
package mozart_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"mozart"
	"mozart/internal/annotations/framesa"
	"mozart/internal/annotations/imagesa"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/frame"
	"mozart/internal/imagelib"
	"mozart/internal/memsim"
	"mozart/internal/vmath"
	"mozart/internal/weldsim"
	"mozart/internal/workloads"
)

// benchScale keeps each workload's wall-clock iteration small.
func benchScale(name string) int {
	switch name {
	case "nbody-numpy", "nbody-mkl":
		return 128
	case "shallowwater-numpy", "shallowwater-mkl":
		return 128
	case "nashville-imagemagick", "gotham-imagemagick":
		return 96
	case "speechtag-spacy":
		return 256
	default:
		return 1 << 16
	}
}

// BenchmarkFig1BlackScholes measures the Figure 1 trio end to end.
func BenchmarkFig1BlackScholes(b *testing.B) {
	spec, _ := workloads.ByName("blackscholes-mkl")
	cfg := workloads.Config{Scale: 1 << 16, Threads: 1}
	for _, v := range []workloads.Variant{workloads.Base, workloads.Mozart, workloads.Weld} {
		b.Run(string(v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spec.Run(v, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4 covers all 15 workloads in base and Mozart variants.
func BenchmarkFig4(b *testing.B) {
	for _, spec := range workloads.All() {
		cfg := workloads.Config{Scale: benchScale(spec.Name), Threads: 1}
		for _, v := range []workloads.Variant{workloads.Base, workloads.Mozart} {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, v), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := spec.Run(v, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable4Pipelining is the pipelining ablation end to end.
func BenchmarkTable4Pipelining(b *testing.B) {
	spec, _ := workloads.ByName("blackscholes-mkl")
	cfg := workloads.Config{Scale: 1 << 16, Threads: 1}
	for _, v := range []workloads.Variant{workloads.Base, workloads.MozartNoPipe, workloads.Mozart} {
		b.Run(string(v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spec.Run(v, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6BatchSize sweeps the Mozart batch size (Figure 6's knob) on
// the wall clock at two threads: Black Scholes, and the three pandas rows
// whose modeled optimum (sabench -experiment autotune) sits far from the
// heuristic. Each workload runs at its default scale, capped at 2^19
// elements so Black Scholes' twelve arrays stay under 50 MB. Only the run is
// timed, not the generation of its inputs.
func BenchmarkFig6BatchSize(b *testing.B) {
	for _, name := range []string{"blackscholes-mkl", "movielens-pandas", "birthanalysis-pandas", "datacleaning-pandas"} {
		spec, _ := workloads.ByName(name)
		scale := min(spec.DefaultScale, 1<<19)
		for _, batch := range []int64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 0 /* heuristic */} {
			label := fmt.Sprint(batch)
			if batch == 0 {
				label = "heuristic"
			}
			cfg := workloads.Config{Scale: scale, Threads: 2, Batch: batch}
			b.Run(name+"/"+label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					prog, err := spec.Prepare(cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := prog.Run(workloads.Mozart); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig7Intensity measures per-op cost on a cache-resident array
// (Figure 7a's relative intensities).
func BenchmarkFig7Intensity(b *testing.B) {
	const n = 1 << 14
	a := make([]float64, n)
	c := make([]float64, n)
	out := make([]float64, n)
	for i := range a {
		a[i] = float64(i%97)/97 + 0.1
		c[i] = float64(i%31)/31 + 0.1
	}
	ops := []struct {
		name string
		run  func()
	}{
		{"add", func() { vmath.Add(n, a, c, out) }},
		{"mul", func() { vmath.Mul(n, a, c, out) }},
		{"div", func() { vmath.Div(n, a, c, out) }},
		{"sqrt", func() { vmath.Sqrt(n, a, out) }},
		{"erf", func() { vmath.Erf(n, a, out) }},
		{"exp", func() { vmath.Exp(n, a, out) }},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				op.run()
			}
		})
	}
}

// runtimeOverheadPipeline is one fresh-session evaluation of Add+Mul over
// two tiny arrays on one worker: all Mozart bookkeeping, no kernel time.
func runtimeOverheadPipeline(a, c []float64) error {
	s := mozart.NewSession(mozart.Options{Workers: 1})
	vmathsa.Add(s, len(a), a, c, a)
	vmathsa.Mul(s, len(a), a, c, a)
	return s.EvaluateContext(context.Background())
}

func runtimeOverheadInputs() (a, c []float64) {
	const n = 64
	a, c = make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = 1
		c[i] = 2
	}
	return a, c
}

// BenchmarkRuntimeOverhead isolates the client library + planner cost per
// captured call (the Figure 5 "client"/"planner" slivers): a pipeline over
// tiny arrays is dominated by Mozart bookkeeping.
func BenchmarkRuntimeOverhead(b *testing.B) {
	a, c := runtimeOverheadInputs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := runtimeOverheadPipeline(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRuntimeOverheadAllocCeiling keeps the fixed cost of an evaluation from
// creeping back: the RuntimeOverhead pipeline was 152 allocations when every
// session built its own worker pool and rendered strings per event, and 106
// when the planner kept its per-binding state in maps, and 79 while each
// call's size had a binding of its own; it is 78 and must stay at or under 83
// (make pool-smoke).
func TestRuntimeOverheadAllocCeiling(t *testing.T) {
	const ceiling = 83
	a, c := runtimeOverheadInputs()
	n := testing.AllocsPerRun(200, func() {
		if err := runtimeOverheadPipeline(a, c); err != nil {
			t.Fatal(err)
		}
	})
	if n > ceiling {
		t.Errorf("RuntimeOverhead pipeline: %v allocations per evaluation, ceiling is %d", n, ceiling)
	}
	t.Logf("RuntimeOverhead pipeline: %v allocations per evaluation", n)
}

// captureVectorChain captures benchmark/'s chain_membound: ten cheap vmath
// calls that mutate a and b in place and read c and d, every one passed the
// same size n.
func captureVectorChain(s *mozart.Session, n int, a, b, c, d []float64) {
	vmathsa.Add(s, n, a, b, a)
	vmathsa.Mul(s, n, a, c, a)
	vmathsa.MulC(s, n, a, 0.5, a)
	vmathsa.Sub(s, n, a, d, a)
	vmathsa.Sqr(s, n, a, a)
	vmathsa.Add(s, n, b, c, b)
	vmathsa.Mul(s, n, b, d, b)
	vmathsa.MulC(s, n, b, 0.25, b)
	vmathsa.Sub(s, n, b, a, b)
	vmathsa.Sqr(s, n, b, b)
}

// TestVectorChainAllocCeiling keeps a batch of the ten-call chain cheap
// (make pool-smoke). A batch allocated 25 times when every call's size had
// a binding of its own, each split and boxed per batch; with equal sizes
// sharing one binding it is 10 vmath parallelFor closures, 4 ArraySplit
// views and one size box. The chain runs as chain_membound does, in 256
// batches on two workers, over 1 KiB-element batches so that its arrays
// stay small.
func TestVectorChainAllocCeiling(t *testing.T) {
	const (
		n       = 1 << 18
		ceiling = 16
	)
	a, b := data.Vector(n, 3, 0.5, 1.5), data.Vector(n, 4, 0.5, 1.5)
	c, d := data.Vector(n, 1, 0.5, 1.5), data.Vector(n, 2, 0.5, 1.5)
	var batches int64
	allocs := testing.AllocsPerRun(10, func() {
		s := mozart.NewSession(mozart.Options{Workers: 2, BatchElems: n / 256})
		captureVectorChain(s, n, a, b, c, d)
		if err := s.EvaluateContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		batches = s.Stats().Batches
	})
	perBatch := allocs / float64(batches)
	if perBatch > ceiling {
		t.Errorf("ten-call chain: %v allocations per evaluation over %d batches, %.1f a batch; ceiling is %d",
			allocs, batches, perBatch, ceiling)
	}
	t.Logf("ten-call chain: %v allocations per evaluation over %d batches, %.1f a batch", allocs, batches, perBatch)
}

// captureFrameClean captures benchmark/'s frame_clean: the 8-call
// data-cleaning chain over one dirty zip-code column. Every call is out of
// place; the cleaned column, two masks nobody reads and a count come out.
func captureFrameClean(s *mozart.Session, zips *frame.Series) {
	sliced := framesa.StrSlice(s, zips, 0, 5)
	junk := framesa.InStrings(s, sliced, "NO CL", "N/A")
	zero := framesa.EqString(s, sliced, "0")
	bad := framesa.Or(s, junk, zero)
	cleaned := framesa.MaskToNull(s, sliced, bad).Keep()
	framesa.StrLenGt(s, cleaned, 4)
	framesa.IsNull(s, cleaned)
	framesa.CountValid(s, cleaned)
}

const frameCleanRows = 1 << 16

func frameCleanInput() *frame.Series {
	return data.ServiceRequests(frameCleanRows, 1).Col("Incident Zip")
}

// BenchmarkFrameClean is one fresh-session evaluation of the chain on two
// workers: what is left once a batch's intermediates are rewritten in place
// (destination-taking functions, DESIGN.md §13) is the three placed
// destinations and each worker's first batch.
func BenchmarkFrameClean(b *testing.B) {
	zips := frameCleanInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := mozart.NewSession(mozart.Options{Workers: 2})
		captureFrameClean(s, zips)
		if err := s.EvaluateContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameCleanAllocCeiling keeps the chain's intermediates off the heap
// (make pool-smoke). An evaluation used to allocate every call's result anew
// for every batch: 415 allocations and 3.9 MB here. Now a call is handed its
// previous piece back, so what remains is the three placed destinations, which
// are the result, plus the pieces of each worker's first batch — 1.7 MB: the
// ceiling on bytes is the destinations and four batches' worth of pieces (two
// workers, and as much again for a share whose claimant starts on a scratch of
// its own), on allocations the most measured plus five — 228 to 236 at 1, 2
// and 4 processors, 248 under the race detector, where sync.Pool drops some of
// what it is handed. One call going back to a fresh result per batch is 24
// allocations more.
func TestFrameCleanAllocCeiling(t *testing.T) {
	const (
		allocCeiling = 253
		// Bytes per row: the cleaned strings and their mask (16+1) and two
		// masks (1+1) are placed; a batch's pieces are those and sliced (16)
		// and junk, zero, bad (1 each).
		placedRow, pieceRow = 19, 38
	)
	zips := frameCleanInput()
	session := func() *mozart.Session {
		s := mozart.NewSession(mozart.Options{Workers: 2})
		captureFrameClean(s, zips)
		return s
	}
	run := func() {
		if err := session().EvaluateContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	p, err := session().Plan()
	if err != nil {
		t.Fatal(err)
	}
	st := &p.Stages[0]
	batch := p.Batch.Elems(st.WorkingSetBytes(), st.Elems())
	byteCeiling := uint64(frameCleanRows*placedRow + 4*batch*pieceRow)

	allocs := testing.AllocsPerRun(20, run) // also warms the worker pool
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if allocs > allocCeiling || bytes > byteCeiling {
		t.Errorf("frame_clean chain: %v allocations and %d bytes per evaluation; ceilings are %d and %d (batches of %d rows)",
			allocs, bytes, allocCeiling, byteCeiling, batch)
	}
	t.Logf("frame_clean chain: %v allocations and %d bytes per evaluation (ceilings %d and %d, batches of %d rows)",
		allocs, bytes, allocCeiling, byteCeiling, batch)
}

// TestOutOfCoreBytesLinear keeps an out-of-core evaluation's bytes per
// option independent of its window count (make pool-smoke). blackscholes-ooc
// at 2^18 options runs 7, 25 and 97 windows under budgets of a quarter, a
// sixteenth and a sixty-fourth of its working set. What an evaluation must
// allocate is the generator's chunks (24 bytes an option), the output (8)
// and a few window-sized buffers, whatever the window count: about 45 bytes
// an option at each. A finale that folds each window's piece into a growing
// accumulator copies the output once per window and reads 93, 169 and 460.
func TestOutOfCoreBytesLinear(t *testing.T) {
	const (
		n         = 1 << 18
		ceiling   = 56   // bytes an option
		spread    = 1.10 // the largest of the three over the smallest
		runs      = 3
		workBytes = n * (24 + 8) // the working set under the §5.2 byte model
	)
	spec, err := workloads.ByName("blackscholes-ooc")
	if err != nil {
		t.Fatal(err)
	}
	var perOption []float64
	for _, div := range []int64{4, 16, 64} {
		budget := int64(workBytes) / div
		g := core.NewGovernor(budget)
		var sess *core.Session
		cfg := workloads.Config{Scale: n, Threads: 2, Governor: g, OutOfCore: true, SpillDir: t.TempDir(),
			OnSession: func(s *core.Session) { sess = s }}
		run := func() {
			if _, err := spec.Run(workloads.Mozart, cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warms the worker pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		b := float64(after.TotalAlloc-before.TotalAlloc) / runs / n
		perOption = append(perOption, b)
		windows := sess.Stats().SpilledFrames
		if b > ceiling {
			t.Errorf("budget of 1/%d of the working set, %d windows: %.1f bytes an option, ceiling is %d", div, windows, b, ceiling)
		}
		if hw := g.HighWater(); hw > budget || g.InUse() != 0 {
			t.Errorf("budget %d: governor high water %d, %d bytes still held", budget, hw, g.InUse())
		}
		t.Logf("budget of 1/%d of the working set, %d windows: %.1f bytes an option", div, windows, b)
	}
	lo, hi := slices.Min(perOption), slices.Max(perOption)
	if hi > spread*lo {
		t.Errorf("bytes an option %.1f to %.1f across window counts; the largest may be %.2fx the smallest", lo, hi, spread)
	}
}

// blackScholesBuffers returns the 12 full-length buffers of the 31-call
// Black Scholes program: price, strike, time, zeros, then d1, d2, t1, t2,
// call, put, vega, gamma.
func blackScholesBuffers(n int) [][]float64 {
	price, strike, tt := data.OptionsData(n, 11)
	bufs := [][]float64{price, strike, tt}
	for len(bufs) < 12 {
		bufs = append(bufs, make([]float64, n))
	}
	return bufs
}

// captureBlackScholes captures the 31 annotated vmath calls of the Figure 1
// program (benchmark/'s blackscholes_compute) over bufs without evaluating.
func captureBlackScholes(s *mozart.Session, bufs [][]float64) {
	const (
		riskFree, vol, invSqrt2Pi              = 0.02, 0.3, 0.3989422804014327
		P, K, T, Z                             = 0, 1, 2, 3
		d1, d2, t1, t2, call, put, vega, gamma = 4, 5, 6, 7, 8, 9, 10, 11
	)
	n := len(bufs[0])
	un := func(f func(*mozart.Session, int, any, any), a, o int) { f(s, n, bufs[a], bufs[o]) }
	bin := func(f func(*mozart.Session, int, any, any, any), a, b, o int) { f(s, n, bufs[a], bufs[b], bufs[o]) }
	sc := func(f func(*mozart.Session, int, any, float64, any), a int, c float64, o int) {
		f(s, n, bufs[a], c, bufs[o])
	}
	bin(vmathsa.Div, P, K, d1)
	un(vmathsa.Ln, d1, d1)
	un(vmathsa.Sqrt, T, t1)
	sc(vmathsa.MulC, t1, vol, t1)
	sc(vmathsa.MulC, T, riskFree+vol*vol/2, t2)
	bin(vmathsa.Add, d1, t2, d1)
	bin(vmathsa.Div, d1, t1, d1)
	bin(vmathsa.Sub, d1, t1, d2)
	un(vmathsa.Sqr, d1, gamma)
	sc(vmathsa.MulC, gamma, -0.5, gamma)
	un(vmathsa.Exp, gamma, gamma)
	sc(vmathsa.MulC, gamma, invSqrt2Pi, gamma)
	bin(vmathsa.Mul, P, gamma, vega)
	bin(vmathsa.Mul, vega, t1, vega)
	bin(vmathsa.Div, gamma, t1, gamma)
	bin(vmathsa.Div, gamma, P, gamma)
	un(vmathsa.CdfNorm, d1, d1)
	un(vmathsa.CdfNorm, d2, d2)
	sc(vmathsa.MulC, T, -riskFree, t2)
	un(vmathsa.Exp, t2, t2)
	bin(vmathsa.Mul, K, t2, t2)
	bin(vmathsa.Mul, P, d1, call)
	bin(vmathsa.Mul, t2, d2, put)
	bin(vmathsa.Sub, call, put, call)
	sc(vmathsa.SubCRev, d1, 1, d1)
	sc(vmathsa.SubCRev, d2, 1, d2)
	bin(vmathsa.Mul, t2, d2, d2)
	bin(vmathsa.Mul, P, d1, d1)
	bin(vmathsa.Sub, d2, d1, put)
	bin(vmathsa.MaxV, call, Z, call)
	bin(vmathsa.MaxV, put, Z, put)
}

// planSession captures the Black Scholes program at n = 256 in a session that
// is only ever planned: Session.Plan is read-only, so every call plans the
// same 31 pending calls.
func planSession() *mozart.Session {
	s := mozart.NewSession(mozart.Options{Workers: 2})
	captureBlackScholes(s, blackScholesBuffers(256))
	return s
}

// BenchmarkPlan is the planner alone — type resolution, stage
// classification and the plan IR — on the 31-call Black Scholes capture.
func BenchmarkPlan(b *testing.B) {
	s := planSession()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanAllocCeiling: planning the 31-call program was 500 allocations
// with nine maps per plan, a slice per call and a string per argument, and
// 136 while each call's size had a binding of its own; it is 134 and must
// stay at or under 139 (make pool-smoke).
func TestPlanAllocCeiling(t *testing.T) {
	s := planSession()
	n := testing.AllocsPerRun(200, func() {
		if _, err := s.Plan(); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 139
	if n > ceiling {
		t.Errorf("Session.Plan of the 31-call Black Scholes program: %v allocations, ceiling is %d", n, ceiling)
	}
	t.Logf("Session.Plan of the 31-call Black Scholes program: %v allocations", n)
}

// BenchmarkFanOutCrossover is one fresh-session evaluation of a memory-cheap
// program (Add+Mul) and a compute-dense one (Black Scholes) across sizes, at
// one and two workers: where fanning out starts to pay differs by 10x in
// bytes between the two, which is why the executor has no size cutoff
// (DESIGN.md §13). Anyone proposing one starts from this table.
func BenchmarkFanOutCrossover(b *testing.B) {
	run := func(name string, sizes []int, bufs func(n int) [][]float64, capture func(*mozart.Session, [][]float64)) {
		for _, n := range sizes {
			in := bufs(n)
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/n=%d/workers=%d", name, n, workers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						s := mozart.NewSession(mozart.Options{Workers: workers})
						capture(s, in)
						if err := s.EvaluateContext(context.Background()); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
	run("addmul", []int{64, 4096, 65536, 262144, 1048576},
		func(n int) [][]float64 { return [][]float64{data.Vector(n, 1, 0.5, 1.5), data.Vector(n, 2, 0.5, 1.5)} },
		func(s *mozart.Session, in [][]float64) {
			vmathsa.Add(s, len(in[0]), in[0], in[1], in[0])
			vmathsa.Mul(s, len(in[0]), in[0], in[1], in[0])
		})
	run("blackscholes", []int{256, 2048, 8192, 16384}, blackScholesBuffers, captureBlackScholes)
}

// BenchmarkWeldsimFusion measures the comparator's fused pass against an
// unfused evaluation of the same expression.
func BenchmarkWeldsimFusion(b *testing.B) {
	const n = 1 << 16
	src := data.Vector(n, 3, 0.1, 4)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := weldsim.Source(src)
			_ = v.Log1p().AddS(1).MulS(2).Sqrt().Sum(1)
		}
	})
	b.Run("unfused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			step := func(in []float64, f func(float64) float64) []float64 {
				out := make([]float64, len(in))
				for j := range in {
					out[j] = f(in[j])
				}
				return out
			}
			t := step(src, func(x float64) float64 { return x })
			vmath.Log1p(n, t, t)
			vmath.AddC(n, t, 1, t)
			vmath.MulC(n, t, 2, t)
			vmath.Sqrt(n, t, t)
			_ = vmath.Sum(n, t)
		}
	})
}

// BenchmarkMemsimCacheAccess measures the cache simulator's throughput.
func BenchmarkMemsimCacheAccess(b *testing.B) {
	h := memsim.NewHierarchy(
		memsim.CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8},
		memsim.CacheConfig{SizeBytes: 256 << 10, LineBytes: 64, Assoc: 8},
		memsim.CacheConfig{SizeBytes: 2 << 20, LineBytes: 64, Assoc: 16},
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i*64) % (8 << 20))
	}
}

// BenchmarkZeroCopyImagePipeline compares the zero-copy row-band view
// splitter (the default ImageSplit) against the paper's original
// crop/append copying integration (ImageCopySplit) on a Gotham-style filter
// chain. The "splitmerge-ns/op" metric isolates the split+merge overhead
// the view path eliminates (§8.2's copy passes): views report near zero,
// copies pay a crop per batch and an append-stitch per merge.
func BenchmarkZeroCopyImagePipeline(b *testing.B) {
	const w, h = 256, 192
	ops := []struct {
		name string
		f    func(*imagelib.Image)
	}{
		{"modulate", func(m *imagelib.Image) { imagelib.Modulate(m, 120, 10, 100) }},
		{"colorize", func(m *imagelib.Image) { imagelib.Colorize(m, 0x22, 0x2b, 0x6d, 0.2) }},
		{"gamma", func(m *imagelib.Image) { imagelib.Gamma(m, 0.5) }},
		{"contrast", func(m *imagelib.Image) { imagelib.SigmoidalContrast(m, true, 4, 128) }},
		{"channel", func(m *imagelib.Image) { imagelib.ChannelScale(m, 2, 1.1) }},
		{"level", func(m *imagelib.Image) { imagelib.Level(m, 8, 248) }},
		{"gamma2", func(m *imagelib.Image) { imagelib.Gamma(m, 0.95) }},
		{"desat", func(m *imagelib.Image) { imagelib.Modulate(m, 100, 96, 100) }},
	}
	for _, mode := range []struct {
		name string
		typ  func(int) core.TypeExpr
	}{
		{"view", imagesa.ImageSplit},
		{"copy", imagesa.ImageCopySplit},
	} {
		b.Run(mode.name, func(b *testing.B) {
			img := data.Photo(w, h, 7)
			var splitMergeNS int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := mozart.NewSession(mozart.Options{Workers: 2, BatchElems: 24})
				for _, op := range ops {
					op := op
					sa := &core.Annotation{FuncName: op.name, Params: []core.Param{
						{Name: "img", Mut: true, Type: mode.typ(0)},
					}}
					s.Call(func(args []any) (any, error) {
						op.f(args[0].(*imagelib.Image))
						return nil, nil
					}, sa, img)
				}
				if err := s.EvaluateContext(context.Background()); err != nil {
					b.Fatal(err)
				}
				st := s.Stats()
				splitMergeNS += st.SplitNS + st.MergeNS
			}
			b.ReportMetric(float64(splitMergeNS)/float64(b.N), "splitmerge-ns/op")
		})
	}
}

// legacySeriesSplitter reproduces the pre-view framesa integration for the
// A/B below: no SplitView (fresh Series header per piece) and a merge that
// always concatenates into fresh storage instead of stitching contiguous
// views. The caps declaration masks the embedded SplitView so the runtime
// and the round-trip loop treat it as a plain in-place splitter.
type legacySeriesSplitter struct{ framesa.SeriesSplitter }

func (legacySeriesSplitter) SplitterCaps() core.SplitterCaps { return core.CapInPlace }

func (legacySeriesSplitter) Merge(pieces []any, t core.SplitType) (any, error) {
	ss := make([]*frame.Series, len(pieces))
	for i, p := range pieces {
		ss[i] = p.(*frame.Series)
	}
	return frame.ConcatSeries(ss...), nil
}

// BenchmarkZeroCopyFrameSplitMerge measures the raw split→merge round-trip
// over a float Series — the whole-value reassembly the out-of-core windows,
// fallback rebuilds, and checksuite round-trips perform. The view splitter
// retargets pooled piece headers and stitches the contiguous views back by
// reslicing (zero copy, zero alloc in steady state); the legacy comparator
// allocates every piece header and memcpys every element on merge.
func BenchmarkZeroCopyFrameSplitMerge(b *testing.B) {
	const n, pieces = 1 << 16, 16
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%97) + 0.5
	}
	sr := frame.NewFloat("x", vals)
	st := core.NewSplitType("SeriesSplit", n)
	for _, mode := range []struct {
		name string
		sp   core.Splitter
	}{
		{"view", framesa.SeriesSplitter{}},
		{"legacy", legacySeriesSplitter{}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			reuse := make([]any, pieces)
			buf := make([]any, pieces)
			vs, _ := mode.sp.(core.ViewSplitter)
			useView := core.CapabilitiesOf(mode.sp).Has(core.CapView)
			b.SetBytes(n * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				per := int64(n / pieces)
				for k := 0; k < pieces; k++ {
					lo, hi := int64(k)*per, int64(k+1)*per
					var p any
					var err error
					if useView {
						p, err = vs.SplitView(sr, st, lo, hi, reuse[k])
						reuse[k] = p
					} else {
						p, err = mode.sp.Split(sr, st, lo, hi)
					}
					if err != nil {
						b.Fatal(err)
					}
					buf[k] = p
				}
				merged, err := mode.sp.Merge(buf, st)
				if err != nil {
					b.Fatal(err)
				}
				if merged.(*frame.Series).Len() != n {
					b.Fatal("bad merge")
				}
			}
		})
	}
}
