package core

import (
	"fmt"
	"time"

	"mozart/internal/obs"
	"mozart/internal/spill"
)

// This file is the OutOfCore rung of the Governor's pressure ladder: a
// stage whose §5.2 working set (total × Σ elemBytes) exceeds the whole
// byte budget runs the stage loop (executeStageSplit) in element windows of
// half the budget instead of one. Each window is admitted against the
// Governor, split, executed with the stage's normal batch/worker machinery,
// its outputs placed into window-sized destinations or merged down to one
// piece each, and released — so the modeled in-flight footprint never
// exceeds the budget even though the logical input is arbitrarily larger.
//
// The stage's outputs are merged once, at the finale, after every window has
// released its admission (§5.2 Step 3; Merge is associative, §3.4). Until
// then each output keeps its window pieces one of two ways:
//
//   - spill: when the output's splitter implements PieceCodec, each window's
//     piece is encoded and appended to a CRC-framed temp-file store
//     (internal/spill), so the windows' pieces stay off the heap. The finale
//     replays the frames in order. A placeable output (resolvePlaced's rule)
//     allocates its stage-sized destination once and places frame k at
//     [k·window, min((k+1)·window, total)), so each element is copied once
//     whatever the window count; any other output merges its decoded frames
//     once. Buffers are handed back around the loop: each frame is encoded
//     into the previous frame's storage, each decoded into the piece just
//     placed, and a placed window's destination, dead once encoded, is the
//     destination of the next window of its size.
//   - collect: any other output keeps its window pieces on the heap and
//     merges them once.

// shouldStream reports whether a stage must run out of core: the session
// opted in, a budgeted Governor is present, and the stage's whole working
// set cannot fit under the budget even in principle.
func (s *Session) shouldStream(total, sumElemBytes int64) bool {
	if !s.opts.OutOfCore || total <= 0 || sumElemBytes <= 0 {
		return false
	}
	g := s.opts.Governor
	if g == nil {
		return false
	}
	b := g.Budget()
	if b <= 0 {
		return false
	}
	return total > b/sumElemBytes
}

// safeSplitAt is SplitAt behind panic isolation, like the other safe*
// wrappers: splitters are untrusted plugin code.
func (s *Session) safeSplitAt(sp SplitterAt, v any, t SplitType, start, end int64) (view any, err error) {
	defer s.recoverPanic(&err)
	return sp.SplitAt(v, t, start, end)
}

// outOfCore is a stage's state across its windows: whether they run over
// window views, the window and stage sizes in elements, and each output's
// window pieces.
type outOfCore struct {
	// views: every split input's splitter can produce window views
	// (CapWindow in its capability set), so each window executes over a
	// windowed copy of the stage whose inputs cover only [wlo, whi) —
	// generator-backed inputs synthesize just the window. Otherwise the
	// originals stay materialized and the window runs at absolute
	// coordinates.
	views         bool
	window, total int64
	store         *spill.Store
	outs          []outAcc
}

// outAcc holds one output's window pieces until the finale: spilled frames
// when its splitter is a PieceCodec, the pieces themselves otherwise.
type outAcc struct {
	codec  PieceCodec
	stream *spill.Stream
	// place is set for a spilled output that is placeable: the finale places
	// its frames into one destination instead of merging them.
	place PlaceSplitter
	// frame is the last frame encoded, the storage the next one is encoded
	// into: the spill store has written it out by then.
	frame []byte
	// spare is the first window's destination of a placed, spilled output,
	// dead once encoded. Every later window of the full window size places
	// into it, and the finale decodes the first frame into it.
	spare any
	// pieces are the output's window pieces in window order: kept ones, or
	// an unplaced spilled output's decoded frames at the finale.
	pieces []any
}

// newOutOfCore sets up a stage's out-of-core run in windows of window
// elements over total: spillable outputs (splitter implements PieceCodec)
// get a stream of the frame store, the rest collect their pieces.
func (s *Session) newOutOfCore(ex *stageExec, window, total int64) (*outOfCore, error) {
	o := &outOfCore{views: true, window: window, total: total, outs: make([]outAcc, len(ex.st.outputs))}
	for _, in := range ex.inputs {
		if !CapabilitiesOf(in.r.splitter).Has(CapWindow) {
			o.views = false
			break
		}
	}
	placed := resolvePlaced(ex.st.outputs, total)
	for oi, out := range ex.st.outputs {
		codec, ok := out.r.splitter.(PieceCodec)
		if !ok || !CapabilitiesOf(out.r.splitter).Has(CapCodec) {
			continue
		}
		if o.store == nil {
			store, err := spill.NewStore(s.opts.SpillDir)
			if err != nil {
				return nil, s.stageErr(ex.st, OriginInternal, fmt.Errorf("spill store: %w", err))
			}
			o.store = store
		}
		stream, err := o.store.Stream(fmt.Sprintf("out%d", out.b.id))
		if err != nil {
			o.close()
			return nil, s.stageErr(ex.st, OriginInternal, fmt.Errorf("spill stream: %w", err))
		}
		o.outs[oi].codec, o.outs[oi].stream = codec, stream
		if placed != nil && placed[oi] != nil {
			o.outs[oi].place = placed[oi].sp
		}
	}
	return o, nil
}

// close removes the stage's spill store, if it opened one.
func (o *outOfCore) close() {
	if o.store != nil {
		o.store.Close()
	}
}

// windowView is ex over window views of its inputs covering [wlo, whi),
// whose batches run at window coordinates [0, whi−wlo).
func (s *Session) windowView(ex *stageExec, wlo, whi int64) (*stageExec, error) {
	winputs := make([]resolvedInput, len(ex.inputs))
	for i, in := range ex.inputs {
		sa, ok := in.r.splitter.(SplitterAt)
		if !ok {
			return nil, s.stageErr(ex.st, OriginInternal, fmt.Errorf("splitter for %s declares CapWindow but implements no SplitAt", in.r.t))
		}
		view, err := s.safeSplitAt(sa, in.val, in.r.t, wlo, whi)
		if err != nil {
			return nil, s.stageErr(ex.st, OriginSplit, fmt.Errorf("window split of %s [%d,%d): %w", in.r.t, wlo, whi, err))
		}
		winputs[i] = in
		winputs[i].val = view
	}
	return s.newStageExec(ex.si, ex.st, winputs, ex.elemBytes), nil
}

// presetSpares gives each placed, spilled output of the window ex runs its
// spare destination when the window is full-size, so the window places into
// it instead of allocating. The short last window allocates its own.
func (o *outOfCore) presetSpares(ex *stageExec, elems int64) {
	if elems != o.window {
		return
	}
	for oi := range o.outs {
		a, pl := &o.outs[oi], ex.placedAt(oi)
		if pl == nil || a.spare == nil {
			continue
		}
		pl.dst = a.spare
		pl.once.Do(func() {})
	}
}

// add takes output oi's piece of window [wlo, whi): a spillable output
// appends it to its stream as one frame, any other keeps it for the finale.
func (o *outOfCore) add(s *Session, ex *stageExec, oi int, piece any, wlo, whi int64) error {
	out, a := ex.st.outputs[oi], &o.outs[oi]
	if a.codec == nil {
		a.pieces = append(a.pieces, piece)
		return nil
	}
	frame, err := a.codec.EncodePiece(a.frame, piece, out.r.t)
	if err != nil {
		return s.stageErr(ex.st, OriginMerge, fmt.Errorf("encode spill frame output %d: %w", oi, err))
	}
	a.frame = frame
	if _, err := a.stream.Append(frame); err != nil {
		return s.stageErr(ex.st, OriginInternal, fmt.Errorf("spill append output %d: %w", oi, err))
	}
	// The window's destination is dead now that it is encoded. The first
	// window is full-size: window ≤ total.
	if pl := ex.placedAt(oi); pl != nil && pl.dst != nil && a.spare == nil {
		a.spare = pl.dst
	}
	s.stats.add(&s.stats.SpilledBytes, time.Duration(len(frame)))
	s.stats.add(&s.stats.SpilledFrames, 1)
	if tr := s.opts.Tracer; tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvSpill, Time: time.Now(), Stage: ex.si,
			Worker: obs.RuntimeLane, Calls: ex.calls, Split: ex.split,
			Start: wlo, End: whi, Bytes: int64(len(frame)), Detail: "append"})
	}
	return nil
}

// finish is the stage's finale, run once every window has released its
// admission: each output's window pieces become its value in one pass. At
// least one window ran — shouldStream requires elements — and each added a
// piece of every output.
func (o *outOfCore) finish(s *Session, ex *stageExec) error {
	t0 := time.Now()
	for oi, out := range ex.st.outputs {
		a := &o.outs[oi]
		if a.codec != nil {
			dst, err := o.replay(s, ex, oi)
			if err != nil {
				return s.stageErr(ex.st, OriginMerge, fmt.Errorf("spill replay output %d: %w", oi, err))
			}
			if dst != nil {
				out.b.set(dst)
				continue
			}
		}
		v := a.pieces[0] // a lone piece is the value
		if len(a.pieces) > 1 {
			var err error
			if v, err = s.mergePieces(out.r, a.pieces); err != nil {
				return s.stageErr(ex.st, OriginMerge, fmt.Errorf("merge output %d: %w", oi, err))
			}
		}
		out.b.set(v)
	}
	s.stats.add(&s.stats.MergeNS, time.Since(t0))
	return nil
}

// replay reads output oi's frames back in order (CRC-verified). A placeable
// output places frame k at [k·window, min((k+1)·window, total)) of one
// stage-sized destination, which it returns, decoding each frame into the
// piece placed before it; any other output keeps its decoded frames as its
// pieces and returns nil.
func (o *outOfCore) replay(s *Session, ex *stageExec, oi int) (dst any, err error) {
	a, r := &o.outs[oi], ex.st.outputs[oi].r
	reuse := a.spare // nil unless the output is placed
	err = a.stream.Replay(func(seq uint32, payload []byte) error {
		piece, err := a.codec.DecodePiece(payload, r.t, reuse)
		if err != nil {
			return fmt.Errorf("decode spill frame %d: %w", seq, err)
		}
		if a.place == nil {
			a.pieces = append(a.pieces, piece)
			return nil
		}
		if dst == nil {
			if dst, err = s.safeAllocMerged(a.place, piece, r.t, o.total); err != nil {
				return fmt.Errorf("allocate the stage's destination: %w", err)
			}
		}
		lo := int64(seq) * o.window
		if err := s.safePlace(a.place, dst, piece, r.t, lo, min(lo+o.window, o.total)); err != nil {
			return fmt.Errorf("place spill frame %d: %w", seq, err)
		}
		reuse = piece
		return nil
	})
	if err != nil {
		return nil, err
	}
	if tr := s.opts.Tracer; tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvSpill, Time: time.Now(), Stage: ex.si,
			Worker: obs.RuntimeLane, Calls: ex.calls, Split: ex.split,
			Bytes: a.stream.Bytes(), Elems: a.stream.Frames(), Detail: "replay"})
	}
	return dst, nil
}
