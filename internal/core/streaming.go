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
// Window pieces accumulate one of two ways, chosen per output:
//
//   - fold: Merge is associative (§3.4), so the running accumulator folds
//     each window's piece as it arrives — acc = Merge(acc, piece). The
//     accumulator is the only merge-side state on the heap.
//   - spill: when the output's splitter implements PieceCodec, each window's
//     piece is encoded and appended to a CRC-framed temp-file store
//     (internal/spill); the finale replays the frames in order and folds
//     them incrementally. This keeps concatenation-style outputs off the
//     heap until the caller actually forces the merged value.

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
// window views, and each output's accumulator.
type outOfCore struct {
	// views: every split input's splitter can produce window views
	// (CapWindow in its capability set), so each window executes over a
	// windowed copy of the stage whose inputs cover only [wlo, whi) —
	// generator-backed inputs synthesize just the window. Otherwise the
	// originals stay materialized and the window runs at absolute
	// coordinates.
	views bool
	store *spill.Store
	outs  []outAcc
}

// outAcc accumulates one output's window pieces: spilled frames when its
// splitter is a PieceCodec, a running fold otherwise.
type outAcc struct {
	codec  PieceCodec
	stream *spill.Stream
	acc    any
	accSet bool
}

// newOutOfCore sets up a stage's out-of-core run: spillable outputs
// (splitter implements PieceCodec) get a stream of the frame store, the rest
// fold in place.
func (s *Session) newOutOfCore(ex *stageExec) (*outOfCore, error) {
	o := &outOfCore{views: true, outs: make([]outAcc, len(ex.st.outputs))}
	for _, in := range ex.inputs {
		if !CapabilitiesOf(in.r.splitter).Has(CapWindow) {
			o.views = false
			break
		}
	}
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

// add takes output oi's piece of window [wlo, whi): a spillable output
// appends it to its stream as one frame, any other folds it into its
// accumulator.
func (o *outOfCore) add(s *Session, ex *stageExec, oi int, piece any, wlo, whi int64) error {
	out, a := ex.st.outputs[oi], &o.outs[oi]
	if a.codec != nil {
		frame, err := a.codec.EncodePiece(piece, out.r.t)
		if err != nil {
			return s.stageErr(ex.st, OriginMerge, fmt.Errorf("encode spill frame output %d: %w", oi, err))
		}
		if _, err := a.stream.Append(frame); err != nil {
			return s.stageErr(ex.st, OriginInternal, fmt.Errorf("spill append output %d: %w", oi, err))
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
	if err := a.fold(s, out.r, piece); err != nil {
		return s.stageErr(ex.st, OriginMerge, fmt.Errorf("fold output %d: %w", oi, err))
	}
	return nil
}

// fold merges piece into the accumulator; the first piece becomes it.
func (a *outAcc) fold(s *Session, r resolved, piece any) error {
	if !a.accSet {
		a.acc, a.accSet = piece, true
		return nil
	}
	folded, err := s.mergePieces(r, []any{a.acc, piece})
	if err != nil {
		return err
	}
	a.acc = folded
	return nil
}

// finish is the stage's finale: spilled frames are replayed in order
// (CRC-verified) and folded incrementally, and every output takes its
// accumulator as its value. At least one window ran — shouldStream requires
// elements — and each added a piece of every output, so every accumulator
// is set.
func (o *outOfCore) finish(s *Session, ex *stageExec) error {
	t0 := time.Now()
	for oi, out := range ex.st.outputs {
		a := &o.outs[oi]
		if a.codec != nil {
			err := a.stream.Replay(func(seq uint32, payload []byte) error {
				piece, err := a.codec.DecodePiece(payload, out.r.t)
				if err != nil {
					return fmt.Errorf("decode spill frame %d: %w", seq, err)
				}
				return a.fold(s, out.r, piece)
			})
			if err != nil {
				return s.stageErr(ex.st, OriginMerge, fmt.Errorf("spill replay output %d: %w", oi, err))
			}
			if tr := s.opts.Tracer; tr != nil {
				tr.Emit(obs.Event{Kind: obs.EvSpill, Time: time.Now(), Stage: ex.si,
					Worker: obs.RuntimeLane, Calls: ex.calls, Split: ex.split,
					Bytes: a.stream.Bytes(), Elems: a.stream.Frames(), Detail: "replay"})
			}
		}
		out.b.set(a.acc)
	}
	s.stats.add(&s.stats.MergeNS, time.Since(t0))
	return nil
}
