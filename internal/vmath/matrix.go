package vmath

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float64 matrix, the analogue of the buffers
// MKL's L2/L3 BLAS and the paper's matrix split types operate over. Row
// bands share underlying storage, so row-wise splits are zero copy.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a Rows x Cols zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("vmath: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFrom wraps existing data (len must be rows*cols).
func MatrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("vmath: MatrixFrom: len(data)=%d, want %d", len(data), rows*cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a shared-storage slice.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// RowBand returns rows [r0, r1) as a matrix view sharing storage.
func (m *Matrix) RowBand(r0, r1 int) *Matrix {
	if r0 < 0 || r1 < r0 || r1 > m.Rows {
		panic(fmt.Sprintf("vmath: RowBand [%d,%d) out of range (rows %d)", r0, r1, m.Rows))
	}
	return &Matrix{Rows: r1 - r0, Cols: m.Cols, Data: m.Data[r0*m.Cols : r1*m.Cols]}
}

// Clone deep copies the matrix.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

func sameShape(ms ...*Matrix) {
	for _, m := range ms[1:] {
		if m.Rows != ms[0].Rows || m.Cols != ms[0].Cols {
			panic("vmath: matrix shape mismatch")
		}
	}
}

// Elementwise matrix operations write through out, which may alias inputs.

// MatAdd computes out = a + b.
func MatAdd(a, b, out *Matrix) { sameShape(a, b, out); Add(len(a.Data), a.Data, b.Data, out.Data) }

// MatSub computes out = a - b.
func MatSub(a, b, out *Matrix) { sameShape(a, b, out); Sub(len(a.Data), a.Data, b.Data, out.Data) }

// MatMulElem computes out = a * b elementwise.
func MatMulElem(a, b, out *Matrix) { sameShape(a, b, out); Mul(len(a.Data), a.Data, b.Data, out.Data) }

// MatDivElem computes out = a / b elementwise.
func MatDivElem(a, b, out *Matrix) { sameShape(a, b, out); Div(len(a.Data), a.Data, b.Data, out.Data) }

// MatSqrt computes out = sqrt(a) elementwise.
func MatSqrt(a, out *Matrix) { sameShape(a, out); Sqrt(len(a.Data), a.Data, out.Data) }

// MatExp computes out = e^a elementwise.
func MatExp(a, out *Matrix) { sameShape(a, out); Exp(len(a.Data), a.Data, out.Data) }

// MatScale computes out = a * c.
func MatScale(a *Matrix, c float64, out *Matrix) {
	sameShape(a, out)
	MulC(len(a.Data), a.Data, c, out.Data)
}

// MatAddC computes out = a + c.
func MatAddC(a *Matrix, c float64, out *Matrix) {
	sameShape(a, out)
	AddC(len(a.Data), a.Data, c, out.Data)
}

// MatPowC computes out = a^c elementwise.
func MatPowC(a *Matrix, c float64, out *Matrix) {
	sameShape(a, out)
	n, x, y := len(a.Data), a.Data, out.Data
	checkLen(n, x, y)
	parallelFor(n, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			y[i] = math.Pow(x[i], c)
			y[i+1] = math.Pow(x[i+1], c)
			y[i+2] = math.Pow(x[i+2], c)
			y[i+3] = math.Pow(x[i+3], c)
		}
		for ; i < hi; i++ {
			y[i] = math.Pow(x[i], c)
		}
	})
}

// MatCopy copies a into out.
func MatCopy(a, out *Matrix) { sameShape(a, out); copy(out.Data, a.Data) }

// MatFill sets every element of out to c.
func MatFill(out *Matrix, c float64) { Fill(len(out.Data), c, out.Data) }

// MulRowVec computes out[i][j] = a[i][j] * v[j]: v is broadcast across rows.
func MulRowVec(a *Matrix, v []float64, out *Matrix) {
	sameShape(a, out)
	checkLen(a.Cols, v)
	parallelFor(a.Rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row, orow := a.Row(r), out.Row(r)
			for c := range row {
				orow[c] = row[c] * v[c]
			}
		}
	})
}

// MulColVec computes out[i][j] = a[i][j] * v[i]: v scales each row.
func MulColVec(a *Matrix, v []float64, out *Matrix) {
	sameShape(a, out)
	checkLen(a.Rows, v)
	parallelFor(a.Rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row, orow := a.Row(r), out.Row(r)
			for c := range row {
				orow[c] = row[c] * v[r]
			}
		}
	})
}

// AddRowVec computes out[i][j] = a[i][j] + v[j].
func AddRowVec(a *Matrix, v []float64, out *Matrix) {
	sameShape(a, out)
	checkLen(a.Cols, v)
	parallelFor(a.Rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row, orow := a.Row(r), out.Row(r)
			for c := range row {
				orow[c] = row[c] + v[c]
			}
		}
	})
}

// OuterDiff fills out[i][j] = x[i] - x[j]; the pairwise-difference matrix
// nBody-style simulations build. It reads all of x, so it is not splittable
// by rows of out against a split x.
func OuterDiff(x []float64, out *Matrix) {
	if out.Rows != len(x) || out.Cols != len(x) {
		panic("vmath: OuterDiff: out must be len(x) square")
	}
	parallelFor(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := out.Row(i)
			xi := x[i]
			for j := range row {
				row[j] = xi - x[j]
			}
		}
	})
}

// RowSums computes out[i] = sum over columns of row i (a row-wise
// reduction; splittable by rows with concatenated results).
func RowSums(a *Matrix, out []float64) {
	checkLen(a.Rows, out)
	parallelFor(a.Rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			s := 0.0
			for _, x := range a.Row(r) {
				s += x
			}
			out[r] = s
		}
	})
}

// ColSums returns per-column sums (a column-wise reduction over rows; under
// SAs the partial vectors merge by addition).
func ColSums(a *Matrix) []float64 {
	out := make([]float64, a.Cols)
	for r := 0; r < a.Rows; r++ {
		row := a.Row(r)
		for c, x := range row {
			out[c] += x
		}
	}
	return out
}

// ShiftCols writes out[i][j] = a[i][(j+k) mod cols]: a circular column roll.
// Each row depends only on itself, so the operation splits by rows.
func ShiftCols(a *Matrix, k int, out *Matrix) {
	sameShape(a, out)
	cols := a.Cols
	if cols == 0 {
		return
	}
	k = ((k % cols) + cols) % cols
	parallelFor(a.Rows, func(lo, hi int) {
		tmp := make([]float64, cols)
		for r := lo; r < hi; r++ {
			row := a.Row(r)
			copy(tmp, row[k:])
			copy(tmp[cols-k:], row[:k])
			copy(out.Row(r), tmp)
		}
	})
}

// ShiftRows writes out[i][j] = a[(i+k) mod rows][j]: a circular row roll.
// Rows move across the whole matrix, so this is NOT splittable by rows;
// its SA marks every argument "_" and it runs whole (like the indexing
// operations Mozart cannot split in §8.2).
func ShiftRows(a *Matrix, k int, out *Matrix) {
	sameShape(a, out)
	rows := a.Rows
	if rows == 0 {
		return
	}
	k = ((k % rows) + rows) % rows
	if a == out {
		a = a.Clone()
	}
	for r := 0; r < rows; r++ {
		copy(out.Row(r), a.Row((r+k)%rows))
	}
}

// Gemv computes y = alpha*A*x + beta*y (cblas_dgemv, row major, no
// transpose). Splittable by rows of A and y with x broadcast.
func Gemv(alpha float64, a *Matrix, x []float64, beta float64, y []float64) {
	checkLen(a.Cols, x)
	checkLen(a.Rows, y)
	parallelFor(a.Rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := a.Row(r)
			s := 0.0
			for c := range row {
				s += row[c] * x[c]
			}
			y[r] = alpha*s + beta*y[r]
		}
	})
}

// Gemm computes C = alpha*A*B + beta*C (cblas_dgemm, row major). A simple
// blocked kernel; included for completeness of the BLAS surface.
func Gemm(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("vmath: Gemm shape mismatch")
	}
	const blk = 64
	parallelFor(a.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			crow := c.Row(i)
			for j := range crow {
				crow[j] *= beta
			}
		}
		for kk := 0; kk < a.Cols; kk += blk {
			kmax := kk + blk
			if kmax > a.Cols {
				kmax = a.Cols
			}
			for i := lo; i < hi; i++ {
				arow := a.Row(i)
				crow := c.Row(i)
				for k := kk; k < kmax; k++ {
					av := alpha * arow[k]
					brow := b.Row(k)
					for j := range brow {
						crow[j] += av * brow[j]
					}
				}
			}
		}
	})
}
