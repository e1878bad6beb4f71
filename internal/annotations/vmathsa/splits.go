// Package vmathsa contains the split annotations and splitting API for the
// vmath library (the repository's Intel MKL stand-in), written exactly the
// way the paper's §7 "Intel MKL" integration describes: one split type for
// arrays, one for matrices, one for the size argument, and reduction split
// types whose only interesting operation is the merge. The library itself
// (internal/vmath) is untouched.
package vmathsa

import (
	"encoding/binary"
	"fmt"
	"math"

	"mozart/internal/core"
	"mozart/internal/vmath"
)

// ArraySplitter splits []float64 into sub-slice views. Pieces alias the
// source, so mutations are in place and no merge is needed for mut
// arguments; merge concatenates for returned values.
type ArraySplitter struct{}

// InPlace reports that pieces alias the original storage.
func (ArraySplitter) InPlace() bool { return true }

// Info reports one 8-byte element per float64.
func (ArraySplitter) Info(v any, t core.SplitType) (core.RuntimeInfo, error) {
	a, ok := v.([]float64)
	if !ok {
		return core.RuntimeInfo{}, fmt.Errorf("vmathsa: ArraySplit over %T", v)
	}
	return core.RuntimeInfo{Elems: int64(len(a)), ElemBytes: 8}, nil
}

// Split returns the sub-slice [start, end).
func (ArraySplitter) Split(v any, t core.SplitType, start, end int64) (any, error) {
	a := v.([]float64)
	if end > int64(len(a)) {
		return nil, fmt.Errorf("vmathsa: split [%d,%d) beyond len %d", start, end, len(a))
	}
	return a[start:end], nil
}

// SplitView is the zero-allocation split (core.ViewSplitter): when the reuse
// slot already holds the identical sub-slice view, it is returned unchanged so
// the runtime skips even the interface re-boxing; otherwise the view is
// resliced fresh.
func (ArraySplitter) SplitView(v any, t core.SplitType, start, end int64, reuse any) (any, error) {
	a := v.([]float64)
	if end > int64(len(a)) {
		return nil, fmt.Errorf("vmathsa: split [%d,%d) beyond len %d", start, end, len(a))
	}
	if r, ok := reuse.([]float64); ok && int64(len(r)) == end-start {
		if end == start || &r[0] == &a[start] {
			return reuse, nil
		}
	}
	return a[start:end], nil
}

// Merge concatenates pieces. Pieces that are contiguous views of one backing
// array (the view-split hot path) are stitched back by reslicing — no copy,
// no allocation beyond the result header. Otherwise pieces are copied into a
// fresh slice; the fallback never appends into a piece's backing array, which
// would clobber source data the pieces alias.
func (ArraySplitter) Merge(pieces []any, t core.SplitType) (any, error) {
	if out, ok := stitchFloats(pieces); ok {
		return out, nil
	}
	n := 0
	for _, p := range pieces {
		n += len(p.([]float64))
	}
	if n == 0 {
		return []float64(nil), nil
	}
	out := make([]float64, 0, n)
	for _, p := range pieces {
		out = append(out, p.([]float64)...)
	}
	return out, nil
}

// AllocMerged returns a zeroed slice of total elements (core.PlaceSplitter):
// the destination the runtime fills in parallel instead of running the copy
// branch of Merge.
func (ArraySplitter) AllocMerged(exemplar any, t core.SplitType, total int64) (any, error) {
	if _, ok := exemplar.([]float64); !ok {
		return nil, fmt.Errorf("vmathsa: ArraySplit piece is %T", exemplar)
	}
	return make([]float64, total), nil
}

// Place copies piece into dst[start:end], refusing a piece of any other
// length.
func (ArraySplitter) Place(dst, piece any, t core.SplitType, start, end int64) error {
	d, okD := dst.([]float64)
	p, okP := piece.([]float64)
	if !okD || !okP {
		return fmt.Errorf("vmathsa: cannot place %T into %T", piece, dst)
	}
	if start < 0 || end < start || end > int64(len(d)) || int64(len(p)) != end-start {
		return fmt.Errorf("vmathsa: piece of %d elements does not fit [%d,%d) of %d", len(p), start, end, len(d))
	}
	copy(d[start:end], p)
	return nil
}

// stitchFloats reslices in-order contiguous views of a single backing array
// back into one slice. It reports false when any adjacent pair is not
// physically adjacent (&ext[len(a)] == &b[0] is the adjacency probe — legal
// because cap is checked first) so the caller copies instead.
func stitchFloats(pieces []any) ([]float64, bool) {
	if len(pieces) == 0 {
		return nil, false
	}
	out, ok := pieces[0].([]float64)
	if !ok {
		return nil, false
	}
	for _, p := range pieces[1:] {
		next, ok := p.([]float64)
		if !ok {
			return nil, false
		}
		if len(next) == 0 {
			continue
		}
		if len(out) == 0 {
			out = next
			continue
		}
		if cap(out) < len(out)+len(next) {
			return nil, false
		}
		ext := out[:len(out)+len(next)]
		if &ext[len(out)] != &next[0] {
			return nil, false
		}
		out = ext
	}
	return out, true
}

// SplitAt returns the window view [start, end) for out-of-core streaming
// (core.SplitterAt). For slices a window view is just the sub-slice; the
// runtime then drives Split/Info over it window-locally.
func (ArraySplitter) SplitAt(v any, t core.SplitType, start, end int64) (any, error) {
	return ArraySplitter{}.Split(v, t, start, end)
}

// EncodePiece serializes a merged []float64 partial into a spill frame
// (core.PieceCodec): little-endian float64 bits, 8 bytes per element, written
// into buf's storage when it has room.
func (ArraySplitter) EncodePiece(buf []byte, piece any, t core.SplitType) ([]byte, error) {
	a, ok := piece.([]float64)
	if !ok {
		return nil, fmt.Errorf("vmathsa: encode %T as ArraySplit piece", piece)
	}
	if cap(buf) < 8*len(a) {
		buf = make([]byte, 8*len(a))
	}
	buf = buf[:8*len(a)]
	for i, x := range a {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return buf, nil
}

// DecodePiece deserializes a spill frame back into a []float64 partial,
// into reuse's storage when that is a []float64 with room. A reuse of
// exactly the frame's length comes back as the same value, unboxed again.
func (ArraySplitter) DecodePiece(frame []byte, t core.SplitType, reuse any) (any, error) {
	if len(frame)%8 != 0 {
		return nil, fmt.Errorf("vmathsa: spill frame length %d not a multiple of 8", len(frame))
	}
	n := len(frame) / 8
	out, _ := reuse.([]float64)
	same := len(out) == n
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(frame[8*i:]))
	}
	if same && reuse != nil {
		return reuse, nil
	}
	return out, nil
}

// ArraySplit is the ArraySplit(size) constructor: the split type's single
// parameter is the value of the size argument at position sizeIdx.
func ArraySplit(sizeIdx int) core.TypeExpr {
	return core.Concrete("ArraySplit", ArraySplitter{}, func(args []any) (core.SplitType, error) {
		n, ok := args[sizeIdx].(int)
		if !ok {
			return core.SplitType{}, fmt.Errorf("vmathsa: ArraySplit ctor: arg %d is %T, want int", sizeIdx, args[sizeIdx])
		}
		return core.NewSplitType("ArraySplit", int64(n)), nil
	})
}

// SizeSplitter splits an int length into per-piece lengths.
type SizeSplitter struct{}

// Info reports the length itself as the element count.
func (SizeSplitter) Info(v any, t core.SplitType) (core.RuntimeInfo, error) {
	n, ok := v.(int)
	if !ok {
		return core.RuntimeInfo{}, fmt.Errorf("vmathsa: SizeSplit over %T", v)
	}
	return core.RuntimeInfo{Elems: int64(n), ElemBytes: 0}, nil
}

// Split yields the piece's length.
func (SizeSplitter) Split(v any, t core.SplitType, start, end int64) (any, error) {
	return int(end - start), nil
}

// Merge sums the piece lengths back into the total.
func (SizeSplitter) Merge(pieces []any, t core.SplitType) (any, error) {
	n := 0
	for _, p := range pieces {
		n += p.(int)
	}
	return n, nil
}

// SizeSplit is the SizeSplit(size) constructor.
func SizeSplit(sizeIdx int) core.TypeExpr {
	return core.Concrete("SizeSplit", SizeSplitter{}, func(args []any) (core.SplitType, error) {
		n, ok := args[sizeIdx].(int)
		if !ok {
			return core.SplitType{}, fmt.Errorf("vmathsa: SizeSplit ctor: arg %d is %T, want int", sizeIdx, args[sizeIdx])
		}
		return core.NewSplitType("SizeSplit", int64(n)), nil
	})
}

// MatrixSplitter splits a *vmath.Matrix into row-band views (zero copy).
type MatrixSplitter struct{}

// InPlace reports that row bands alias the original storage.
func (MatrixSplitter) InPlace() bool { return true }

// Info reports one element per row.
func (MatrixSplitter) Info(v any, t core.SplitType) (core.RuntimeInfo, error) {
	m, ok := v.(*vmath.Matrix)
	if !ok {
		return core.RuntimeInfo{}, fmt.Errorf("vmathsa: MatrixSplit over %T", v)
	}
	return core.RuntimeInfo{Elems: int64(m.Rows), ElemBytes: int64(m.Cols) * 8}, nil
}

// Split returns the row band [start, end).
func (MatrixSplitter) Split(v any, t core.SplitType, start, end int64) (any, error) {
	return v.(*vmath.Matrix).RowBand(int(start), int(end)), nil
}

// SplitView is the zero-allocation split (core.ViewSplitter): the reuse slot's
// *Matrix header is retargeted at the requested row band in place, so the
// steady-state batch loop allocates neither the header nor the interface box.
func (MatrixSplitter) SplitView(v any, t core.SplitType, start, end int64, reuse any) (any, error) {
	m := v.(*vmath.Matrix)
	if start < 0 || end < start || end > int64(m.Rows) {
		return nil, fmt.Errorf("vmathsa: matrix split [%d,%d) beyond rows %d", start, end, m.Rows)
	}
	band := m.Data[start*int64(m.Cols) : end*int64(m.Cols)]
	if r, ok := reuse.(*vmath.Matrix); ok && r != m {
		r.Rows = int(end - start)
		r.Cols = m.Cols
		r.Data = band
		return reuse, nil
	}
	return &vmath.Matrix{Rows: int(end - start), Cols: m.Cols, Data: band}, nil
}

// Merge stacks row bands back into one matrix. Bands that are contiguous
// views of one backing array are stitched by reslicing (zero copy); otherwise
// the data is copied into a fresh backing array — never appended into a
// piece's own backing, which the pieces may alias.
func (MatrixSplitter) Merge(pieces []any, t core.SplitType) (any, error) {
	if len(pieces) == 0 {
		return &vmath.Matrix{}, nil
	}
	if out, ok := stitchMatrices(pieces); ok {
		return out, nil
	}
	first := pieces[0].(*vmath.Matrix)
	rows, n := 0, 0
	for _, p := range pieces {
		m := p.(*vmath.Matrix)
		rows += m.Rows
		n += len(m.Data)
	}
	out := &vmath.Matrix{Rows: rows, Cols: first.Cols, Data: make([]float64, 0, n)}
	for _, p := range pieces {
		out.Data = append(out.Data, p.(*vmath.Matrix).Data...)
	}
	return out, nil
}

// AllocMerged returns a zeroed matrix of total rows with the exemplar band's
// column count (core.PlaceSplitter).
func (MatrixSplitter) AllocMerged(exemplar any, t core.SplitType, total int64) (any, error) {
	m, ok := exemplar.(*vmath.Matrix)
	if !ok || m == nil {
		return nil, fmt.Errorf("vmathsa: MatrixSplit piece is %T", exemplar)
	}
	return vmath.NewMatrix(int(total), m.Cols), nil
}

// Place copies the row band piece into rows [start, end) of dst, refusing a
// band of any other height or width.
func (MatrixSplitter) Place(dst, piece any, t core.SplitType, start, end int64) error {
	d, okD := dst.(*vmath.Matrix)
	p, okP := piece.(*vmath.Matrix)
	if !okD || !okP || d == nil || p == nil {
		return fmt.Errorf("vmathsa: cannot place %T into %T", piece, dst)
	}
	if start < 0 || end < start || end > int64(d.Rows) || int64(p.Rows) != end-start || p.Cols != d.Cols || len(p.Data) != p.Rows*p.Cols {
		return fmt.Errorf("vmathsa: %dx%d band does not fit rows [%d,%d) of a %dx%d matrix", p.Rows, p.Cols, start, end, d.Rows, d.Cols)
	}
	copy(d.Data[int(start)*d.Cols:int(end)*d.Cols], p.Data)
	return nil
}

// stitchMatrices reslices in-order contiguous row-band views of one backing
// array back into a single matrix sharing that storage. Reports false (caller
// copies) on any column mismatch or physical discontinuity.
func stitchMatrices(pieces []any) (*vmath.Matrix, bool) {
	first, ok := pieces[0].(*vmath.Matrix)
	if !ok {
		return nil, false
	}
	data, rows, cols := first.Data, first.Rows, first.Cols
	for _, p := range pieces[1:] {
		m, ok := p.(*vmath.Matrix)
		if !ok || m.Cols != cols {
			return nil, false
		}
		rows += m.Rows
		if len(m.Data) == 0 {
			continue
		}
		if len(data) == 0 {
			data = m.Data
			continue
		}
		if cap(data) < len(data)+len(m.Data) {
			return nil, false
		}
		ext := data[:len(data)+len(m.Data)]
		if &ext[len(data)] != &m.Data[0] {
			return nil, false
		}
		data = ext
	}
	return &vmath.Matrix{Rows: rows, Cols: cols, Data: data}, true
}

// MatrixSplit is the MatrixSplit(m) constructor: parameters are the matrix
// dimensions read from the argument at matIdx.
func MatrixSplit(matIdx int) core.TypeExpr {
	return core.Concrete("MatrixSplit", MatrixSplitter{}, func(args []any) (core.SplitType, error) {
		m, ok := args[matIdx].(*vmath.Matrix)
		if !ok || m == nil {
			return core.SplitType{}, fmt.Errorf("vmathsa: MatrixSplit ctor: arg %d is %T, want *vmath.Matrix", matIdx, args[matIdx])
		}
		return core.NewSplitType("MatrixSplit", int64(m.Rows), int64(m.Cols)), nil
	})
}

// AddReduceSplitter merges partial float64 results by addition; the
// reduction split type for Dot/Sum-style functions (§3.3 Ex. 5).
type AddReduceSplitter struct{}

// Info reports a single scalar.
func (AddReduceSplitter) Info(v any, t core.SplitType) (core.RuntimeInfo, error) {
	return core.RuntimeInfo{Elems: 1, ElemBytes: 8}, nil
}

// Split is never valid for reduction results.
func (AddReduceSplitter) Split(v any, t core.SplitType, start, end int64) (any, error) {
	return nil, fmt.Errorf("vmathsa: AddReduce values cannot be split")
}

// Merge sums partial results.
func (AddReduceSplitter) Merge(pieces []any, t core.SplitType) (any, error) {
	s := 0.0
	for _, p := range pieces {
		s += p.(float64)
	}
	return s, nil
}

// AddReduce is the scalar-sum reduction split type.
func AddReduce() core.TypeExpr {
	return core.Concrete("AddReduce", AddReduceSplitter{}, core.FixedCtor(core.NewSplitType("AddReduce")))
}

// MaxReduceSplitter merges partial float64 results by max.
type MaxReduceSplitter struct{}

// Info reports a single scalar.
func (MaxReduceSplitter) Info(v any, t core.SplitType) (core.RuntimeInfo, error) {
	return core.RuntimeInfo{Elems: 1, ElemBytes: 8}, nil
}

// Split is never valid for reduction results.
func (MaxReduceSplitter) Split(v any, t core.SplitType, start, end int64) (any, error) {
	return nil, fmt.Errorf("vmathsa: MaxReduce values cannot be split")
}

// Merge keeps the maximum partial result.
func (MaxReduceSplitter) Merge(pieces []any, t core.SplitType) (any, error) {
	best := pieces[0].(float64)
	for _, p := range pieces[1:] {
		if x := p.(float64); x > best {
			best = x
		}
	}
	return best, nil
}

// MaxReduce is the scalar-max reduction split type.
func MaxReduce() core.TypeExpr {
	return core.Concrete("MaxReduce", MaxReduceSplitter{}, core.FixedCtor(core.NewSplitType("MaxReduce")))
}

// VecAddReduceSplitter merges partial []float64 results by elementwise
// addition; used for column-sum reductions over row-split matrices.
type VecAddReduceSplitter struct{}

// Info reports the vector as a single unit.
func (VecAddReduceSplitter) Info(v any, t core.SplitType) (core.RuntimeInfo, error) {
	return core.RuntimeInfo{Elems: 1, ElemBytes: int64(len(v.([]float64))) * 8}, nil
}

// Split is never valid for reduction results.
func (VecAddReduceSplitter) Split(v any, t core.SplitType, start, end int64) (any, error) {
	return nil, fmt.Errorf("vmathsa: VecAddReduce values cannot be split")
}

// Merge adds the partial vectors elementwise.
func (VecAddReduceSplitter) Merge(pieces []any, t core.SplitType) (any, error) {
	if len(pieces) == 0 {
		return []float64(nil), nil
	}
	out := append([]float64(nil), pieces[0].([]float64)...)
	for _, p := range pieces[1:] {
		v := p.([]float64)
		if len(v) != len(out) {
			return nil, fmt.Errorf("vmathsa: VecAddReduce length mismatch %d vs %d", len(v), len(out))
		}
		for i := range v {
			out[i] += v[i]
		}
	}
	return out, nil
}

// VecAddReduce is the vector-sum reduction split type.
func VecAddReduce() core.TypeExpr {
	return core.Concrete("VecAddReduce", VecAddReduceSplitter{}, core.FixedCtor(core.NewSplitType("VecAddReduce")))
}

func init() {
	// Default split types per data type (§5.1 fallback for uninferrable
	// generics).
	core.RegisterDefaultSplit([]float64(nil), ArraySplitter{}, func(v any) (core.SplitType, error) {
		return core.NewSplitType("ArraySplit", int64(len(v.([]float64)))), nil
	})
	core.RegisterDefaultSplit((*vmath.Matrix)(nil), MatrixSplitter{}, func(v any) (core.SplitType, error) {
		m := v.(*vmath.Matrix)
		return core.NewSplitType("MatrixSplit", int64(m.Rows), int64(m.Cols)), nil
	})

	// Snapshot support for whole-call fallback: matrices are mutated in
	// place through row-band views, so the runtime must be able to restore
	// their backing storage before re-executing a faulted stage whole.
	// []float64 is covered by the runtime's built-in slice snapshot.
	core.RegisterSnapshot((*vmath.Matrix)(nil), func(v any) (func() error, error) {
		m := v.(*vmath.Matrix)
		saved := append([]float64(nil), m.Data...)
		return func() error {
			copy(m.Data, saved)
			return nil
		}, nil
	})
}
