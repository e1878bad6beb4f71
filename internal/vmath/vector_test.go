package vmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*4 + 0.25
	}
	return v
}

func close1(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(b)) }

// The kernel oracle. The benchmark harness compares Mozart with the unsplit
// library, and both call these kernels, so it cannot see a changed formula.
// Here every exported elementwise kernel is compared with a scalar reference
// written in this file, bit for bit, at sizes that cover the empty call, the
// unroll tail and the internally parallel path, and with out aliasing a.
// Axpy is left to TestAxpyScal's tolerance: a compiler may fuse its
// multiply-add on one side and not the other.

// kernelCase is one kernel in the two-input shape the oracle drives; the
// one-input and scalar-operand kernels are adapted to it.
type kernelCase struct {
	name string
	op   func(n int, a, b, out []float64)
	ref  func(x, y float64) float64
}

var binaryKernels = []kernelCase{
	{"Add", Add, func(x, y float64) float64 { return x + y }},
	{"Sub", Sub, func(x, y float64) float64 { return x - y }},
	{"Mul", Mul, func(x, y float64) float64 { return x * y }},
	{"Div", Div, func(x, y float64) float64 { return x / y }},
	{"MaxV", MaxV, math.Max},
	{"MinV", MinV, math.Min},
	{"Pow", Pow, math.Pow},
	{"Atan2", Atan2, math.Atan2},
	{"Hypot", Hypot, math.Hypot},
	{"Select", func(n int, a, b, out []float64) { Select(n, a, a, b, out) }, func(x, y float64) float64 {
		if x != 0 {
			return x
		}
		return y
	}},
}

var unaryKernels = []struct {
	name string
	op   func(n int, a, out []float64)
	ref  func(x float64) float64
}{
	{"Sqrt", Sqrt, math.Sqrt},
	{"InvSqrt", InvSqrt, func(x float64) float64 { return 1 / math.Sqrt(x) }},
	{"Inv", Inv, func(x float64) float64 { return 1 / x }},
	{"Sqr", Sqr, func(x float64) float64 { return x * x }},
	{"Exp", Exp, math.Exp},
	{"Ln", Ln, math.Log},
	{"Log1p", Log1p, math.Log1p},
	{"Log2", Log2, math.Log2},
	{"Erf", Erf, math.Erf},
	{"Erfc", Erfc, math.Erfc},
	{"CdfNorm", CdfNorm, func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }},
	{"Abs", Abs, math.Abs},
	{"Sin", Sin, math.Sin},
	{"Cos", Cos, math.Cos},
	{"Floor", Floor, math.Floor},
	{"Neg", Neg, func(x float64) float64 { return -x }},
	{"CopyV", CopyV, func(x float64) float64 { return x }},
}

// scalarC is the constant the scalar-operand kernels are checked with.
const scalarC = 1.75

var scalarKernels = []struct {
	name string
	op   func(n int, a []float64, c float64, out []float64)
	ref  func(x, c float64) float64
}{
	{"AddC", AddC, func(x, c float64) float64 { return x + c }},
	{"SubC", SubC, func(x, c float64) float64 { return x - c }},
	{"SubCRev", SubCRev, func(x, c float64) float64 { return c - x }},
	{"MulC", MulC, func(x, c float64) float64 { return x * c }},
	{"DivC", DivC, func(x, c float64) float64 { return x / c }},
	{"DivCRev", DivCRev, func(x, c float64) float64 { return c / x }},
	{"MatPowC", func(n int, a []float64, c float64, out []float64) {
		MatPowC(&Matrix{Rows: 1, Cols: n, Data: a[:n]}, c, &Matrix{Rows: 1, Cols: n, Data: out[:n]})
	}, math.Pow},
	{"Fill", func(n int, _ []float64, c float64, out []float64) { Fill(n, c, out) }, func(_, c float64) float64 { return c }},
	{"Scal", func(n int, a []float64, c float64, out []float64) { CopyV(n, a, out); Scal(n, c, out) }, func(x, c float64) float64 { return x * c }},
}

func unaryCases() []kernelCase {
	cs := make([]kernelCase, len(unaryKernels))
	for i, k := range unaryKernels {
		cs[i] = kernelCase{k.name, func(n int, a, _, out []float64) { k.op(n, a, out) }, func(x, _ float64) float64 { return k.ref(x) }}
	}
	return cs
}

func scalarCases() []kernelCase {
	cs := make([]kernelCase, len(scalarKernels))
	for i, k := range scalarKernels {
		cs[i] = kernelCase{k.name, func(n int, a, _, out []float64) { k.op(n, a, scalarC, out) }, func(x, _ float64) float64 { return k.ref(x, scalarC) }}
	}
	return cs
}

func allKernels() []kernelCase {
	return append(append(append([]kernelCase(nil), binaryKernels...), unaryCases()...), scalarCases()...)
}

// oracleSizes cover the empty call, a call shorter than one unrolled step,
// the unroll tail, and a call that parallelFor splits unevenly.
var oracleSizes = []int{0, 1, 3, 1001, 2*parallelThreshold + 3}

// oracleVec returns n values in [-4, 4) with a +0 and a -0 every sixteen,
// so that signs, zeros and the domain edges of Ln, Sqrt and Pow are hit.
func oracleVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		switch i % 16 {
		case 5:
			v[i] = 0
		case 11:
			v[i] = math.Copysign(0, -1)
		default:
			v[i] = rng.Float64()*8 - 4
		}
	}
	return v
}

// checkKernels runs every case at every oracle size with the library at
// threads internal threads, once into a separate out and once with out
// aliasing a. Every element must equal the reference bit for bit, and the
// element past n must be left alone.
func checkKernels(t *testing.T, threads int, cases []kernelCase) {
	t.Helper()
	defer SetNumThreads(NumThreads())
	SetNumThreads(threads)
	const sentinel = -12345.5
	for _, c := range cases {
		for _, n := range oracleSizes {
			a, b := oracleVec(n+1, 1), oracleVec(n+1, 2)
			for _, alias := range []bool{false, true} {
				out := make([]float64, n+1)
				out[n] = sentinel
				if alias {
					copy(out, a[:n])
					c.op(n, out, b, out)
				} else {
					c.op(n, a, b, out)
				}
				for i := 0; i < n; i++ {
					if want := c.ref(a[i], b[i]); math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("%s (n=%d, threads=%d, out aliases a: %v)[%d] = %v for (%v, %v), want %v",
							c.name, n, threads, alias, i, out[i], a[i], b[i], want)
					}
				}
				if out[n] != sentinel {
					t.Fatalf("%s (n=%d, threads=%d) wrote past n", c.name, n, threads)
				}
			}
		}
	}
}

func TestBinaryOps(t *testing.T) { checkKernels(t, 1, binaryKernels) }

func TestUnaryOps(t *testing.T) { checkKernels(t, 1, unaryCases()) }

func TestScalarOps(t *testing.T) { checkKernels(t, 1, scalarCases()) }

func TestAliasedOut(t *testing.T) {
	n := 64
	a, b := randVec(n, 5), randVec(n, 6)
	want := make([]float64, n)
	for i := range want {
		want[i] = a[i] + b[i]
	}
	Add(n, a, b, a) // out aliases a, MKL-style in-place
	for i := range a {
		if !close1(a[i], want[i]) {
			t.Fatal("aliased Add wrong")
		}
	}
}

// TestKernelAllocs pins what a kernel call allocates: parallelFor's body
// closure and nothing else, so no kernel builds a closure per call or per
// element. CopyV does not go through parallelFor and allocates nothing.
func TestKernelAllocs(t *testing.T) {
	defer SetNumThreads(NumThreads())
	SetNumThreads(1)
	n := 1001
	a, b, out := randVec(n, 1), randVec(n, 2), make([]float64, n)
	for _, c := range allKernels() {
		want := 1.0
		if c.name == "CopyV" {
			want = 0
		}
		if got := testing.AllocsPerRun(20, func() { c.op(n, a, b, out) }); got != want {
			t.Errorf("%s: %v allocations per call, want %v", c.name, got, want)
		}
	}
}

// BenchmarkKernels times every kernel at NumThreads(1) on a cache-resident
// batch (32Ki elements, 256 KiB an operand) and on vectors streamed from
// DRAM (8Mi elements, 64 MiB an operand), and reports ns per element: the
// in-cache versus streamed gap that split annotations' batching exploits.
//
//	go test -run '^$' -bench Kernels -benchtime 0.3s -count 3 ./internal/vmath
func BenchmarkKernels(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"32Ki", 32 << 10}, {"8Mi", 8 << 20}} {
		x, y, out := randVec(size.n, 1), randVec(size.n, 2), make([]float64, size.n)
		for _, c := range allKernels() {
			b.Run(size.name+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.op(size.n, x, y, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size.n), "ns/elem")
			})
		}
	}
}

func TestReductions(t *testing.T) {
	n := 777
	a, b := randVec(n, 7), randVec(n, 8)
	var dot, sum, asum, nrm float64
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
		sum += a[i]
		asum += math.Abs(a[i])
		nrm += a[i] * a[i]
	}
	if !close1(Dot(n, a, b), dot) {
		t.Error("Dot")
	}
	if !close1(Sum(n, a), sum) {
		t.Error("Sum")
	}
	if !close1(Asum(n, a), asum) {
		t.Error("Asum")
	}
	if !close1(Nrm2(n, a), math.Sqrt(nrm)) {
		t.Error("Nrm2")
	}
	if MaxReduce(n, a) != slowMax(a[:n]) {
		t.Error("MaxReduce")
	}
	if MinReduce(n, a) != slowMin(a[:n]) {
		t.Error("MinReduce")
	}
}

func slowMax(a []float64) float64 {
	m := math.Inf(-1)
	for _, x := range a {
		m = math.Max(m, x)
	}
	return m
}

func slowMin(a []float64) float64 {
	m := math.Inf(1)
	for _, x := range a {
		m = math.Min(m, x)
	}
	return m
}

func TestAxpyScal(t *testing.T) {
	n := 100
	x, y := randVec(n, 9), randVec(n, 10)
	want := make([]float64, n)
	for i := range want {
		want[i] = y[i] + 1.5*x[i]
	}
	Axpy(n, 1.5, x, y)
	for i := range y {
		if !close1(y[i], want[i]) {
			t.Fatal("Axpy")
		}
	}
	Scal(n, 2, y)
	for i := range y {
		if !close1(y[i], 2*want[i]) {
			t.Fatal("Scal")
		}
	}
}

func TestSelectFill(t *testing.T) {
	n := 50
	mask := make([]float64, n)
	for i := range mask {
		mask[i] = float64(i % 2)
	}
	tr, fa := randVec(n, 11), randVec(n, 12)
	out := make([]float64, n)
	Select(n, mask, tr, fa, out)
	for i := range out {
		want := fa[i]
		if i%2 == 1 {
			want = tr[i]
		}
		if out[i] != want {
			t.Fatal("Select")
		}
	}
	Fill(n, 7, out)
	for _, x := range out {
		if x != 7 {
			t.Fatal("Fill")
		}
	}
}

// TestInternalParallelismMatchesSerial: results are identical whatever the
// library's internal thread count (MKL determinism for these kernels): every
// kernel passes the oracle with four internal threads, and a parallel Sum
// matches the serial one up to reassociation.
func TestInternalParallelismMatchesSerial(t *testing.T) {
	checkKernels(t, 4, allKernels())
	defer SetNumThreads(1)
	n := parallelThreshold * 2
	a := randVec(n, 13)
	SetNumThreads(4)
	if !close1(Sum(n, a), func() float64 {
		SetNumThreads(1)
		return Sum(n, a)
	}()) {
		t.Fatal("parallel Sum differs")
	}
}

func TestSetNumThreadsClamps(t *testing.T) {
	defer SetNumThreads(1)
	SetNumThreads(0)
	if NumThreads() != 1 {
		t.Fatal("SetNumThreads(0) should clamp to 1")
	}
	SetNumThreads(8)
	if NumThreads() != 8 {
		t.Fatal("SetNumThreads(8)")
	}
}

func TestShortSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for short slice")
		}
	}()
	Add(10, make([]float64, 5), make([]float64, 10), make([]float64, 10))
}

// TestQuickAddCommutes is a tiny algebraic property check of the kernels.
func TestQuickAddCommutes(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		x := make([]float64, n)
		y := make([]float64, n)
		Add(n, a[:n], b[:n], x)
		Add(n, b[:n], a[:n], y)
		for i := range x {
			if x[i] != y[i] && !(math.IsNaN(x[i]) && math.IsNaN(y[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
