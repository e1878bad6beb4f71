package framesa

import (
	"fmt"
	"sync"

	"mozart/internal/core"
	"mozart/internal/frame"
)

// This file is the placed-output capability (core.PlaceSplitter) of the
// row-split types: instead of collecting every batch's piece and
// concatenating them at stage exit, the runtime allocates the merged
// Series/DataFrame once and each worker copies its piece into its own row
// range. The result equals Merge of the same pieces, in private storage.

// AllocMerged returns an empty Series of total rows shaped like the exemplar
// piece: the dtype's buffer at full size and no null mask. Place creates the
// mask when the first piece carrying one arrives, so an output none of whose
// pieces had a mask ends with Valid == nil, exactly as Merge leaves it.
func (SeriesSplitter) AllocMerged(exemplar any, t core.SplitType, total int64) (any, error) {
	p, ok := exemplar.(*frame.Series)
	if !ok || p == nil {
		return nil, fmt.Errorf("framesa: SeriesSplit piece is %T", exemplar)
	}
	return allocSeries(p, int(total)), nil
}

// Place copies piece into rows [start, end) of dst.
func (SeriesSplitter) Place(dst, piece any, t core.SplitType, start, end int64) error {
	d, okD := dst.(*frame.Series)
	p, okP := piece.(*frame.Series)
	if !okD || !okP || d == nil || p == nil {
		return fmt.Errorf("framesa: cannot place %T into %T", piece, dst)
	}
	return placeSeries(d, p, int(start), int(end))
}

// AllocMerged returns an empty frame (or, for functions annotated
// (df: S) -> S that produce a column, an empty Series — the same decision
// DfSplitter.Merge makes) of total rows with the exemplar piece's schema.
func (DfSplitter) AllocMerged(exemplar any, t core.SplitType, total int64) (any, error) {
	switch p := exemplar.(type) {
	case *frame.Series:
		return SeriesSplitter{}.AllocMerged(p, t, total)
	case *frame.DataFrame:
		if p != nil {
			out := &frame.DataFrame{Cols: make([]*frame.Series, len(p.Cols))}
			for i, c := range p.Cols {
				out.Cols[i] = allocSeries(c, int(total))
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("framesa: DfSplit piece is %T", exemplar)
}

// Place copies piece into rows [start, end) of dst, column by column; the
// piece's schema must match the destination's.
func (DfSplitter) Place(dst, piece any, t core.SplitType, start, end int64) error {
	if _, isSeries := piece.(*frame.Series); isSeries {
		return SeriesSplitter{}.Place(dst, piece, t, start, end)
	}
	d, okD := dst.(*frame.DataFrame)
	p, okP := piece.(*frame.DataFrame)
	if !okD || !okP || d == nil || p == nil {
		return fmt.Errorf("framesa: cannot place %T into %T", piece, dst)
	}
	if len(p.Cols) != len(d.Cols) {
		return fmt.Errorf("framesa: piece has %d columns, destination %d", len(p.Cols), len(d.Cols))
	}
	for i, c := range p.Cols {
		if c.Name != d.Cols[i].Name {
			return fmt.Errorf("framesa: piece column %d is %q, destination %q", i, c.Name, d.Cols[i].Name)
		}
		if err := placeSeries(d.Cols[i], c, int(start), int(end)); err != nil {
			return err
		}
	}
	return nil
}

func allocSeries(like *frame.Series, n int) *frame.Series {
	out := &frame.Series{Name: like.Name, Dtype: like.Dtype}
	switch like.Dtype {
	case frame.Float:
		out.F = make([]float64, n)
	case frame.Int:
		out.I = make([]int64, n)
	case frame.String:
		out.S = make([]string, n)
	case frame.Bool:
		out.B = make([]bool, n)
	}
	return out
}

// placeSeries copies p into dst[r0:r1]. A piece that is not exactly r1-r0
// rows is refused: the function that produced it is not row-preserving, and
// stitching it in would silently shift every later row.
func placeSeries(dst, p *frame.Series, r0, r1 int) error {
	if p.Dtype != dst.Dtype {
		return fmt.Errorf("framesa: piece dtype %v, destination %v", p.Dtype, dst.Dtype)
	}
	if r0 < 0 || r1 < r0 || r1 > dst.Len() || p.Len() != r1-r0 || (p.Valid != nil && len(p.Valid) != r1-r0) {
		return fmt.Errorf("framesa: piece of %d rows does not fit rows [%d,%d) of %d", p.Len(), r0, r1, dst.Len())
	}
	switch dst.Dtype {
	case frame.Float:
		copy(dst.F[r0:r1], p.F)
	case frame.Int:
		copy(dst.I[r0:r1], p.I)
	case frame.String:
		copy(dst.S[r0:r1], p.S)
	case frame.Bool:
		copy(dst.B[r0:r1], p.B)
	}
	if p.Valid != nil {
		copy(placedMask(dst)[r0:r1], p.Valid)
	}
	return nil
}

// maskMu orders the one shared write of a placement: workers fill disjoint
// row ranges of a destination without synchronization, but the first piece
// with a null mask must create dst.Valid for all of them. The lock is held
// only to read or publish the slice header, never while allocating or
// filling, so sessions do not wait on each other's masks.
var maskMu sync.Mutex

// placedMask returns dst's null mask, creating it all-valid on first use.
// Pieces without a mask never call it: their rows keep the all-valid fill.
func placedMask(dst *frame.Series) []bool {
	maskMu.Lock()
	mask := dst.Valid
	maskMu.Unlock()
	if mask != nil {
		return mask
	}
	fresh := make([]bool, dst.Len())
	for i := range fresh {
		fresh[i] = true
	}
	maskMu.Lock()
	if dst.Valid == nil {
		dst.Valid = fresh
	}
	mask = dst.Valid
	maskMu.Unlock()
	return mask
}
