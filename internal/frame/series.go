// Package frame is the repository's stand-in for Pandas: a columnar
// DataFrame/Series library with null masks, filters, string operations,
// grouped aggregation, and indexed joins. Kernels are single threaded
// (Pandas-in-C style) and know nothing about Mozart; the split annotations
// live in internal/annotations/framesa.
package frame

import (
	"fmt"
	"math"
)

// DType enumerates column element types.
type DType int

// Column element types.
const (
	Float DType = iota
	Int
	String
	Bool
)

func (d DType) String() string {
	switch d {
	case Float:
		return "float64"
	case Int:
		return "int64"
	case String:
		return "string"
	case Bool:
		return "bool"
	}
	return "unknown"
}

// Series is one named, typed column. Exactly one of F/I/S/B is non-nil
// depending on Dtype. Valid is an optional null mask (nil means all valid);
// Valid[i] == false marks row i as null (NaN/None in Pandas terms).
type Series struct {
	Name  string
	Dtype DType
	F     []float64
	I     []int64
	S     []string
	B     []bool
	Valid []bool
}

// NewFloat builds a float64 series with all rows valid.
func NewFloat(name string, vals []float64) *Series {
	return &Series{Name: name, Dtype: Float, F: vals}
}

// NewInt builds an int64 series with all rows valid.
func NewInt(name string, vals []int64) *Series {
	return &Series{Name: name, Dtype: Int, I: vals}
}

// NewString builds a string series with all rows valid.
func NewString(name string, vals []string) *Series {
	return &Series{Name: name, Dtype: String, S: vals}
}

// NewBool builds a bool series with all rows valid.
func NewBool(name string, vals []bool) *Series {
	return &Series{Name: name, Dtype: Bool, B: vals}
}

// Len returns the number of rows.
func (s *Series) Len() int {
	switch s.Dtype {
	case Float:
		return len(s.F)
	case Int:
		return len(s.I)
	case String:
		return len(s.S)
	case Bool:
		return len(s.B)
	}
	return 0
}

// IsValid reports whether row i is non-null.
func (s *Series) IsValid(i int) bool { return s.Valid == nil || s.Valid[i] }

// ElemBytes estimates the per-row storage of the series.
func (s *Series) ElemBytes() int64 {
	switch s.Dtype {
	case Float, Int:
		return 8
	case String:
		return 24
	case Bool:
		return 1
	}
	return 8
}

// Slice returns rows [r0, r1) as a shared-storage view.
func (s *Series) Slice(r0, r1 int) *Series {
	out := &Series{Name: s.Name, Dtype: s.Dtype}
	switch s.Dtype {
	case Float:
		out.F = s.F[r0:r1]
	case Int:
		out.I = s.I[r0:r1]
	case String:
		out.S = s.S[r0:r1]
	case Bool:
		out.B = s.B[r0:r1]
	}
	if s.Valid != nil {
		out.Valid = s.Valid[r0:r1]
	}
	return out
}

// Clone deep copies the series.
func (s *Series) Clone() *Series {
	out := shape(nil, s.Name, s.Dtype, s.Len(), s.Valid != nil)
	out.copyRows(s)
	return out
}

// copyRows copies src's rows, and its mask when the receiver has one (all
// valid when src has none), into a receiver shaped for them.
func (s *Series) copyRows(src *Series) {
	copy(s.F, src.F)
	copy(s.I, src.I)
	copy(s.S, src.S)
	copy(s.B, src.B)
	if s.Valid == nil {
		return
	}
	if src.Valid != nil {
		copy(s.Valid, src.Valid)
	} else {
		fillTrue(s.Valid)
	}
}

// shape readies the result of an out-of-place function: a series called name
// of n rows of dtype dt, with a null mask iff masked. It is the one place such
// a result is allocated. dst, when it is a series whose buffers have the room,
// is rewritten in place and returned, so a caller that hands back an earlier
// result it no longer needs allocates nothing; otherwise (nil, too small,
// another dtype, no mask to reuse) every buffer is fresh and dst is left alone
// — a result never shares storage with only part of dst. The rows' contents
// are unspecified either way: the caller writes every one. Buffers of the
// other dtypes are nil, as Series requires. A result of no rows has an empty,
// non-nil dtype buffer (and mask, when masked), as make gives — Clone
// included. Nil or empty, no function here computes anything different: with
// no rows there is nothing to read, and ConcatSeries drops a mask over none.
func shape(dst *Series, name string, dt DType, n int, masked bool) *Series {
	fit := dst != nil && (!masked || room(dst.Valid, n))
	if fit {
		switch dt {
		case Float:
			fit = room(dst.F, n)
		case Int:
			fit = room(dst.I, n)
		case String:
			fit = room(dst.S, n)
		case Bool:
			fit = room(dst.B, n)
		}
	}
	if !fit {
		dst = &Series{}
	}
	out := Series{Name: name, Dtype: dt}
	switch dt {
	case Float:
		out.F = sized(dst.F, n, fit)
	case Int:
		out.I = sized(dst.I, n, fit)
	case String:
		out.S = sized(dst.S, n, fit)
	case Bool:
		out.B = sized(dst.B, n, fit)
	}
	if masked {
		out.Valid = sized(dst.Valid, n, fit)
	}
	*dst = out
	return dst
}

// room reports whether buf can hold n elements where it is. A nil buffer
// holds none, so that an empty result is shaped like a fresh one.
func room[T any](buf []T, n int) bool { return buf != nil && cap(buf) >= n }

// sized returns n elements of buf when it fits, of a fresh buffer otherwise.
func sized[T any](buf []T, n int, fit bool) []T {
	if fit {
		return buf[:n]
	}
	return make([]T, n)
}

// ConcatSeries stacks series of the same name and dtype. Every buffer of the
// result is allocated once, at its exact final size.
func ConcatSeries(parts ...*Series) *Series {
	if len(parts) == 0 {
		return &Series{}
	}
	out := &Series{Name: parts[0].Name, Dtype: parts[0].Dtype}
	anyMask := false
	var nF, nI, nS, nB, rows int
	for _, p := range parts {
		if p.Dtype != out.Dtype {
			panic(fmt.Sprintf("frame: ConcatSeries dtype mismatch %v vs %v", p.Dtype, out.Dtype))
		}
		if p.Valid != nil {
			anyMask = true
		}
		nF, nI, nS, nB = nF+len(p.F), nI+len(p.I), nS+len(p.S), nB+len(p.B)
		rows += p.Len()
	}
	out.F, out.I, out.S, out.B = exactCap[float64](nF), exactCap[int64](nI), exactCap[string](nS), exactCap[bool](nB)
	for _, p := range parts {
		out.F = append(out.F, p.F...)
		out.I = append(out.I, p.I...)
		out.S = append(out.S, p.S...)
		out.B = append(out.B, p.B...)
	}
	if anyMask && rows > 0 {
		out.Valid = make([]bool, rows)
		at := 0
		for _, p := range parts {
			n := p.Len()
			if p.Valid != nil {
				copy(out.Valid[at:at+n], p.Valid)
			} else {
				fillTrue(out.Valid[at : at+n])
			}
			at += n
		}
	}
	return out
}

// exactCap returns an empty buffer with room for exactly n elements, nil
// when n is zero so unused dtype buffers stay nil.
func exactCap[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// fillTrue marks every row of a mask range valid.
func fillTrue(mask []bool) {
	for i := range mask {
		mask[i] = true
	}
}

// Gather returns the rows of s selected by idx (out-of-range -1 produces a
// null row), used by joins.
func (s *Series) Gather(idx []int) *Series {
	out := &Series{Name: s.Name, Dtype: s.Dtype}
	needMask := false
	for _, i := range idx {
		if i < 0 {
			needMask = true
			break
		}
	}
	if needMask || s.Valid != nil {
		out.Valid = make([]bool, len(idx))
	}
	switch s.Dtype {
	case Float:
		out.F = make([]float64, len(idx))
		for j, i := range idx {
			if i >= 0 {
				out.F[j] = s.F[i]
			} else {
				out.F[j] = math.NaN()
			}
		}
	case Int:
		out.I = make([]int64, len(idx))
		for j, i := range idx {
			if i >= 0 {
				out.I[j] = s.I[i]
			}
		}
	case String:
		out.S = make([]string, len(idx))
		for j, i := range idx {
			if i >= 0 {
				out.S[j] = s.S[i]
			}
		}
	case Bool:
		out.B = make([]bool, len(idx))
		for j, i := range idx {
			if i >= 0 {
				out.B[j] = s.B[i]
			}
		}
	}
	if out.Valid != nil {
		for j, i := range idx {
			out.Valid[j] = i >= 0 && s.IsValid(i)
		}
	}
	return out
}
