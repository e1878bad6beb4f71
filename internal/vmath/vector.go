package vmath

import "math"

// The vector-math functions mirror MKL's vdXxx API: they take an explicit
// element count n and operate on the first n elements of their slice
// arguments. out may alias an input. All panic if a slice is shorter than
// n, like MKL's undefined behaviour but loud.

func checkLen(n int, vs ...[]float64) {
	for _, v := range vs {
		if len(v) < n {
			panic("vmath: slice shorter than n")
		}
	}
}

// Add computes out = a + b elementwise (vdAdd).
func Add(n int, a, b, out []float64) {
	checkLen(n, a, b, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = a[i] + b[i]
			out[i+1] = a[i+1] + b[i+1]
			out[i+2] = a[i+2] + b[i+2]
			out[i+3] = a[i+3] + b[i+3]
		}
		for ; i < hi; i++ {
			out[i] = a[i] + b[i]
		}
	})
}

// Sub computes out = a - b elementwise (vdSub).
func Sub(n int, a, b, out []float64) {
	checkLen(n, a, b, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = a[i] - b[i]
			out[i+1] = a[i+1] - b[i+1]
			out[i+2] = a[i+2] - b[i+2]
			out[i+3] = a[i+3] - b[i+3]
		}
		for ; i < hi; i++ {
			out[i] = a[i] - b[i]
		}
	})
}

// Mul computes out = a * b elementwise (vdMul).
func Mul(n int, a, b, out []float64) {
	checkLen(n, a, b, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = a[i] * b[i]
			out[i+1] = a[i+1] * b[i+1]
			out[i+2] = a[i+2] * b[i+2]
			out[i+3] = a[i+3] * b[i+3]
		}
		for ; i < hi; i++ {
			out[i] = a[i] * b[i]
		}
	})
}

// Div computes out = a / b elementwise (vdDiv).
func Div(n int, a, b, out []float64) {
	checkLen(n, a, b, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = a[i] / b[i]
			out[i+1] = a[i+1] / b[i+1]
			out[i+2] = a[i+2] / b[i+2]
			out[i+3] = a[i+3] / b[i+3]
		}
		for ; i < hi; i++ {
			out[i] = a[i] / b[i]
		}
	})
}

// MaxV computes out = max(a, b) elementwise (vdFmax).
func MaxV(n int, a, b, out []float64) {
	checkLen(n, a, b, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Max(a[i], b[i])
			out[i+1] = math.Max(a[i+1], b[i+1])
			out[i+2] = math.Max(a[i+2], b[i+2])
			out[i+3] = math.Max(a[i+3], b[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Max(a[i], b[i])
		}
	})
}

// MinV computes out = min(a, b) elementwise (vdFmin).
func MinV(n int, a, b, out []float64) {
	checkLen(n, a, b, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Min(a[i], b[i])
			out[i+1] = math.Min(a[i+1], b[i+1])
			out[i+2] = math.Min(a[i+2], b[i+2])
			out[i+3] = math.Min(a[i+3], b[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Min(a[i], b[i])
		}
	})
}

// Pow computes out = a^b elementwise (vdPow).
func Pow(n int, a, b, out []float64) {
	checkLen(n, a, b, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Pow(a[i], b[i])
			out[i+1] = math.Pow(a[i+1], b[i+1])
			out[i+2] = math.Pow(a[i+2], b[i+2])
			out[i+3] = math.Pow(a[i+3], b[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Pow(a[i], b[i])
		}
	})
}

// Atan2 computes out = atan2(a, b) elementwise (vdAtan2).
func Atan2(n int, a, b, out []float64) {
	checkLen(n, a, b, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Atan2(a[i], b[i])
			out[i+1] = math.Atan2(a[i+1], b[i+1])
			out[i+2] = math.Atan2(a[i+2], b[i+2])
			out[i+3] = math.Atan2(a[i+3], b[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Atan2(a[i], b[i])
		}
	})
}

// Hypot computes out = sqrt(a^2+b^2) elementwise (vdHypot).
func Hypot(n int, a, b, out []float64) {
	checkLen(n, a, b, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Hypot(a[i], b[i])
			out[i+1] = math.Hypot(a[i+1], b[i+1])
			out[i+2] = math.Hypot(a[i+2], b[i+2])
			out[i+3] = math.Hypot(a[i+3], b[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Hypot(a[i], b[i])
		}
	})
}

// Sqrt computes out = sqrt(a) elementwise (vdSqrt).
func Sqrt(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = math.Sqrt(a[i])
		}
	})
}

// InvSqrt computes out = 1/sqrt(a) elementwise (vdInvSqrt).
func InvSqrt(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = 1 / math.Sqrt(a[i])
			out[i+1] = 1 / math.Sqrt(a[i+1])
			out[i+2] = 1 / math.Sqrt(a[i+2])
			out[i+3] = 1 / math.Sqrt(a[i+3])
		}
		for ; i < hi; i++ {
			out[i] = 1 / math.Sqrt(a[i])
		}
	})
}

// Inv computes out = 1/a elementwise (vdInv).
func Inv(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = 1 / a[i]
			out[i+1] = 1 / a[i+1]
			out[i+2] = 1 / a[i+2]
			out[i+3] = 1 / a[i+3]
		}
		for ; i < hi; i++ {
			out[i] = 1 / a[i]
		}
	})
}

// Sqr computes out = a*a elementwise (vdSqr).
func Sqr(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = a[i] * a[i]
			out[i+1] = a[i+1] * a[i+1]
			out[i+2] = a[i+2] * a[i+2]
			out[i+3] = a[i+3] * a[i+3]
		}
		for ; i < hi; i++ {
			out[i] = a[i] * a[i]
		}
	})
}

// Exp computes out = e^a elementwise (vdExp).
func Exp(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Exp(a[i])
			out[i+1] = math.Exp(a[i+1])
			out[i+2] = math.Exp(a[i+2])
			out[i+3] = math.Exp(a[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Exp(a[i])
		}
	})
}

// Ln computes out = ln(a) elementwise (vdLn).
func Ln(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Log(a[i])
			out[i+1] = math.Log(a[i+1])
			out[i+2] = math.Log(a[i+2])
			out[i+3] = math.Log(a[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Log(a[i])
		}
	})
}

// Log1p computes out = ln(1+a) elementwise (vdLog1p).
func Log1p(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Log1p(a[i])
			out[i+1] = math.Log1p(a[i+1])
			out[i+2] = math.Log1p(a[i+2])
			out[i+3] = math.Log1p(a[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Log1p(a[i])
		}
	})
}

// Log2 computes out = log2(a) elementwise (vdLog2).
func Log2(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Log2(a[i])
			out[i+1] = math.Log2(a[i+1])
			out[i+2] = math.Log2(a[i+2])
			out[i+3] = math.Log2(a[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Log2(a[i])
		}
	})
}

// Erf computes the error function elementwise (vdErf).
func Erf(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Erf(a[i])
			out[i+1] = math.Erf(a[i+1])
			out[i+2] = math.Erf(a[i+2])
			out[i+3] = math.Erf(a[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Erf(a[i])
		}
	})
}

// Erfc computes the complementary error function elementwise (vdErfc).
func Erfc(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Erfc(a[i])
			out[i+1] = math.Erfc(a[i+1])
			out[i+2] = math.Erfc(a[i+2])
			out[i+3] = math.Erfc(a[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Erfc(a[i])
		}
	})
}

// CdfNorm computes the standard normal CDF elementwise (vdCdfNorm).
func CdfNorm(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = 0.5 * math.Erfc(-a[i]/math.Sqrt2)
			out[i+1] = 0.5 * math.Erfc(-a[i+1]/math.Sqrt2)
			out[i+2] = 0.5 * math.Erfc(-a[i+2]/math.Sqrt2)
			out[i+3] = 0.5 * math.Erfc(-a[i+3]/math.Sqrt2)
		}
		for ; i < hi; i++ {
			out[i] = 0.5 * math.Erfc(-a[i]/math.Sqrt2)
		}
	})
}

// Abs computes out = |a| elementwise (vdAbs).
func Abs(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Abs(a[i])
			out[i+1] = math.Abs(a[i+1])
			out[i+2] = math.Abs(a[i+2])
			out[i+3] = math.Abs(a[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Abs(a[i])
		}
	})
}

// Sin computes out = sin(a) elementwise (vdSin).
func Sin(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Sin(a[i])
			out[i+1] = math.Sin(a[i+1])
			out[i+2] = math.Sin(a[i+2])
			out[i+3] = math.Sin(a[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Sin(a[i])
		}
	})
}

// Cos computes out = cos(a) elementwise (vdCos).
func Cos(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Cos(a[i])
			out[i+1] = math.Cos(a[i+1])
			out[i+2] = math.Cos(a[i+2])
			out[i+3] = math.Cos(a[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Cos(a[i])
		}
	})
}

// Floor computes out = floor(a) elementwise (vdFloor).
func Floor(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = math.Floor(a[i])
			out[i+1] = math.Floor(a[i+1])
			out[i+2] = math.Floor(a[i+2])
			out[i+3] = math.Floor(a[i+3])
		}
		for ; i < hi; i++ {
			out[i] = math.Floor(a[i])
		}
	})
}

// Neg computes out = -a elementwise.
func Neg(n int, a, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = -a[i]
			out[i+1] = -a[i+1]
			out[i+2] = -a[i+2]
			out[i+3] = -a[i+3]
		}
		for ; i < hi; i++ {
			out[i] = -a[i]
		}
	})
}

// The xC variants apply a scalar constant elementwise, as in Intel IPP's
// AddC family; the paper's workloads need scalar-vector forms.

// AddC computes out = a + c.
func AddC(n int, a []float64, c float64, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = a[i] + c
			out[i+1] = a[i+1] + c
			out[i+2] = a[i+2] + c
			out[i+3] = a[i+3] + c
		}
		for ; i < hi; i++ {
			out[i] = a[i] + c
		}
	})
}

// SubC computes out = a - c.
func SubC(n int, a []float64, c float64, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = a[i] - c
			out[i+1] = a[i+1] - c
			out[i+2] = a[i+2] - c
			out[i+3] = a[i+3] - c
		}
		for ; i < hi; i++ {
			out[i] = a[i] - c
		}
	})
}

// SubCRev computes out = c - a.
func SubCRev(n int, a []float64, c float64, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = c - a[i]
			out[i+1] = c - a[i+1]
			out[i+2] = c - a[i+2]
			out[i+3] = c - a[i+3]
		}
		for ; i < hi; i++ {
			out[i] = c - a[i]
		}
	})
}

// MulC computes out = a * c.
func MulC(n int, a []float64, c float64, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = a[i] * c
			out[i+1] = a[i+1] * c
			out[i+2] = a[i+2] * c
			out[i+3] = a[i+3] * c
		}
		for ; i < hi; i++ {
			out[i] = a[i] * c
		}
	})
}

// DivC computes out = a / c.
func DivC(n int, a []float64, c float64, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = a[i] / c
			out[i+1] = a[i+1] / c
			out[i+2] = a[i+2] / c
			out[i+3] = a[i+3] / c
		}
		for ; i < hi; i++ {
			out[i] = a[i] / c
		}
	})
}

// DivCRev computes out = c / a.
func DivCRev(n int, a []float64, c float64, out []float64) {
	checkLen(n, a, out)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			out[i] = c / a[i]
			out[i+1] = c / a[i+1]
			out[i+2] = c / a[i+2]
			out[i+3] = c / a[i+3]
		}
		for ; i < hi; i++ {
			out[i] = c / a[i]
		}
	})
}

// CopyV copies the first n elements of a into out (cblas_dcopy).
func CopyV(n int, a, out []float64) {
	checkLen(n, a, out)
	copy(out[:n], a[:n])
}

// Fill sets the first n elements of out to c.
func Fill(n int, c float64, out []float64) {
	checkLen(n, out)
	parallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = c
		}
	})
}

// Select computes out[i] = ifTrue[i] when mask[i] != 0, else ifFalse[i]; a
// vectorized ternary used by branch-free numeric code.
func Select(n int, mask, ifTrue, ifFalse, out []float64) {
	checkLen(n, mask, ifTrue, ifFalse, out)
	parallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if mask[i] != 0 {
				out[i] = ifTrue[i]
			} else {
				out[i] = ifFalse[i]
			}
		}
	})
}
