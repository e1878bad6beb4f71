package vmathsa_test

import (
	"context"
	"slices"
	"testing"

	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
	"mozart/internal/vmath"
)

// TestArraySplitViewZeroAllocs pins the acceptance criterion for the
// zero-copy hot path: once the reuse slots are warm (AllocsPerRun's warm-up
// call), repeatedly re-splitting the same array into the same batch ranges
// through SplitView performs zero heap allocations — the identical-view fast
// path returns the reuse slot unchanged, skipping even the interface re-box.
func TestArraySplitViewZeroAllocs(t *testing.T) {
	const n, batch = 4096, 512
	sp := vmathsa.ArraySplitter{}
	st := core.NewSplitType("ArraySplit", n)
	a := randVec(n, 11)
	views := make([]any, n/batch)
	var err error
	run := func() {
		for i := range views {
			lo, hi := int64(i*batch), int64((i+1)*batch)
			var v any
			v, err = sp.SplitView(a, st, lo, hi, views[i])
			if err != nil {
				return
			}
			views[i] = v
		}
	}
	allocs := testing.AllocsPerRun(100, run)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm SplitView loop allocates %.1f objects/run, want 0", allocs)
	}
	for i, v := range views {
		piece := v.([]float64)
		if &piece[0] != &a[i*batch] {
			t.Fatalf("view %d does not alias the source", i)
		}
	}
}

// TestMatrixSplitViewZeroAllocs: the matrix path retargets the reuse piece's
// header in place, so steady-state row-band splits are also allocation-free.
func TestMatrixSplitViewZeroAllocs(t *testing.T) {
	const rows, cols, band = 256, 16, 32
	sp := vmathsa.MatrixSplitter{}
	st := core.NewSplitType("MatrixSplit", rows, cols)
	m := &vmath.Matrix{Rows: rows, Cols: cols, Data: randVec(rows*cols, 13)}
	views := make([]any, rows/band)
	var err error
	run := func() {
		for i := range views {
			lo, hi := int64(i*band), int64((i+1)*band)
			var v any
			v, err = sp.SplitView(m, st, lo, hi, views[i])
			if err != nil {
				return
			}
			views[i] = v
		}
	}
	allocs := testing.AllocsPerRun(100, run)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm matrix SplitView loop allocates %.1f objects/run, want 0", allocs)
	}
	for i, v := range views {
		piece := v.(*vmath.Matrix)
		if &piece.Data[0] != &m.Data[i*band*cols] {
			t.Fatalf("band %d does not alias the source", i)
		}
	}
}

// TestStitchMergeSharesStorage: merging in-order contiguous views reslices
// the original backing array instead of copying.
func TestStitchMergeSharesStorage(t *testing.T) {
	sp := vmathsa.ArraySplitter{}
	st := core.NewSplitType("ArraySplit", 100)
	a := randVec(100, 17)
	var pieces []any
	for lo := int64(0); lo < 100; lo += 30 {
		hi := lo + 30
		if hi > 100 {
			hi = 100
		}
		p, err := sp.SplitView(a, st, lo, hi, nil)
		if err != nil {
			t.Fatal(err)
		}
		pieces = append(pieces, p)
	}
	merged, err := sp.Merge(pieces, st)
	if err != nil {
		t.Fatal(err)
	}
	out := merged.([]float64)
	if len(out) != len(a) || &out[0] != &a[0] {
		t.Fatal("stitched merge should alias the original storage")
	}
}

// TestMergeFallbackCopies: pieces from unrelated arrays cannot stitch; the
// fallback must copy into fresh storage rather than append into a piece's
// backing array (which the piece may alias and appending would clobber).
func TestMergeFallbackCopies(t *testing.T) {
	sp := vmathsa.ArraySplitter{}
	st := core.NewSplitType("ArraySplit", 8)
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	aCopy := append([]float64(nil), a...)
	bCopy := append([]float64(nil), b...)
	merged, err := sp.Merge([]any{a, b}, st)
	if err != nil {
		t.Fatal(err)
	}
	out := merged.([]float64)
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	almost(out, want, t, "fallback merge")
	if &out[0] == &a[0] {
		t.Fatal("fallback merge must not reuse a piece's backing array")
	}
	almost(a, aCopy, t, "piece a untouched")
	almost(b, bCopy, t, "piece b untouched")
}

// TestViewSplitsCounted: an evaluation over view-capable splitters serves
// its input splits through SplitView and counts them, and a second
// evaluation of the same shape reuses the session's warm view slots.
func TestViewSplitsCounted(t *testing.T) {
	const n = 2048
	a, b := randVec(n, 19), randVec(n, 23)
	s := core.NewSession(core.Options{Workers: 2, BatchElems: 256})
	ref := append([]float64(nil), a...)
	vmath.Add(n, ref, b, ref)
	vmath.Mul(n, ref, b, ref)

	vmathsa.Add(s, n, a, b, a)
	vmathsa.Mul(s, n, a, b, a)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	almost(a, ref, t, "first evaluation")
	first := s.Stats().ViewSplits
	if first == 0 {
		t.Fatal("view-capable inputs should be split via SplitView")
	}

	vmath.Add(n, ref, b, ref)
	vmathsa.Add(s, n, a, b, a)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	almost(a, ref, t, "second evaluation")
	if got := s.Stats().ViewSplits; got <= first {
		t.Errorf("ViewSplits = %d after second evaluation, want > %d", got, first)
	}
}

// TestArrayCodecReusesBuffers: the spill codec round-trips a piece bit for
// bit and writes into the buffers it is handed back. EncodePiece fills buf's
// storage when it has room and grows it otherwise; DecodePiece decodes into
// reuse when it has room (the same slice, or the same value at exactly the
// frame's length) and allocates otherwise, and its piece never aliases the
// frame, whose storage the spill replay reuses for the next frame.
func TestArrayCodecReusesBuffers(t *testing.T) {
	sp := vmathsa.ArraySplitter{}
	st := core.NewSplitType("ArraySplit", 4)
	piece := []float64{1.5, -2, 3.25, 1e300}

	small := make([]byte, 8)
	frame, err := sp.EncodePiece(small, piece, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != 32 || &frame[0] == &small[0] {
		t.Fatalf("encode into a buffer of 8 bytes: %d bytes, grown = %v; want 32, grown", len(frame), &frame[0] != &small[0])
	}
	big := make([]byte, 0, 64)
	frame, err = sp.EncodePiece(big, piece, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != 32 || &frame[:1][0] != &big[:1][0] {
		t.Fatal("encode into a buffer with room did not write into its storage")
	}

	for _, c := range []struct {
		name  string
		reuse any
		into  bool // decoded into reuse's storage
		same  bool // reuse itself comes back
	}{
		{"nil", nil, false, false},
		{"too short", make([]float64, 3), false, false},
		{"not a slice", "x", false, false},
		{"exact", make([]float64, 4), true, true},
		{"roomy", make([]float64, 2, 8), true, false},
	} {
		got, err := sp.DecodePiece(frame, st, c.reuse)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out := got.([]float64)
		if !slices.Equal(out, piece) {
			t.Fatalf("%s: decoded %v, want %v", c.name, out, piece)
		}
		r, _ := c.reuse.([]float64)
		if into := cap(r) > 0 && &out[0] == &r[:1][0]; into != c.into {
			t.Fatalf("%s: decoded into reuse = %v, want %v", c.name, into, c.into)
		}
		if c.same {
			if rs, ok := got.([]float64); !ok || &rs[0] != &r[0] || len(rs) != len(r) {
				t.Fatalf("%s: reuse did not come back", c.name)
			}
		}
		for i := range frame {
			frame[i] = 0xff // the replay reads the next frame into this storage
		}
		if !slices.Equal(out, piece) {
			t.Fatalf("%s: the piece changed to %v when its frame was overwritten", c.name, out)
		}
		if frame, err = sp.EncodePiece(frame, piece, st); err != nil {
			t.Fatal(err)
		}
	}
}
