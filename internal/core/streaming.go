package core

import (
	"context"
	"fmt"
	"time"

	"mozart/internal/obs"
	"mozart/internal/spill"
)

// This file is the OutOfCore rung of the Governor's pressure ladder: a
// stage whose §5.2 working set (total × Σ elemBytes) exceeds the whole
// byte budget executes in admission-bounded element windows. Each window
// is admitted against the Governor, split, executed with the stage's
// normal batch/worker machinery, eagerly merged down to one partial per
// output, and released — so the modeled in-flight footprint never exceeds
// the budget even though the logical input is arbitrarily larger.
//
// Window partials accumulate one of two ways, chosen per output:
//
//   - fold: Merge is associative (§3.4), so the running accumulator folds
//     each window partial as it arrives — acc = Merge(acc, partial). The
//     accumulator is the only merge-side state on the heap.
//   - spill: when the output's splitter implements PieceCodec, each window
//     partial is encoded and appended to a CRC-framed temp-file store
//     (internal/spill); the finale replays the frames in order and folds
//     them incrementally. This keeps concatenation-style outputs off the
//     heap until the caller actually forces the merged value.

// shouldStream reports whether a stage must take the streaming path: the
// session opted in, a budgeted Governor is present, and the stage's whole
// working set cannot fit under the budget even in principle.
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

// executeStreaming runs one stage out of core. inputs are the stage's
// resolved split inputs; total and sumElemBytes the §5.2 element count and
// byte width; batch and workers the pre-admission execution shape.
func (s *Session) executeStreaming(ctx context.Context, si int, st *planStage, inputs []resolvedInput, sumElemBytes, total, batch int64, workers int) error {
	g := s.opts.Governor

	// Window size: half the budget in modeled bytes, so a release-then-admit
	// of consecutive windows can overlap with concurrent sessions without
	// saturating the budget, clamped to at least one batch of progress.
	windowElems := clamp64(g.Budget()/(2*sumElemBytes), 1, total)
	batch = min(batch, windowElems)
	workers = int(clamp64(int64(workers), 1, windowElems))

	ex := s.newStageExec(si, st, inputs, sumElemBytes)

	// Views: when every split input's splitter can produce window views
	// (CapWindow in its capability set), each window executes over a
	// windowed copy of the stage whose inputs cover only [wlo, whi) —
	// generator-backed inputs synthesize just the window. Otherwise the
	// originals stay materialized and the runtime drives absolute split
	// coordinates.
	useViews := len(inputs) > 0
	for _, in := range inputs {
		if !CapabilitiesOf(in.r.splitter).Has(CapWindow) {
			useViews = false
			break
		}
	}

	s.notePressure(g, si, ex.calls, PressureOutOfCore)
	if tr := s.opts.Tracer; tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvStageBegin, Time: time.Now(), Stage: si,
			Worker: obs.RuntimeLane, Calls: ex.calls, Split: ex.split,
			Elems: total, Bytes: sumElemBytes, BatchElems: batch, Workers: workers,
			CacheBytes: s.opts.cacheTargetBytes(), Detail: "out-of-core"})
	}

	// Per-output accumulation state. Spillable outputs (splitter implements
	// PieceCodec) go to the frame store; the rest fold in place.
	type outAcc struct {
		codec  PieceCodec
		stream *spill.Stream
		acc    any
		accSet bool
	}
	accs := make([]*outAcc, len(st.outputs))
	var store *spill.Store
	defer func() {
		if store != nil {
			store.Close()
		}
	}()
	for oi, out := range st.outputs {
		a := &outAcc{}
		if codec, ok := out.r.splitter.(PieceCodec); ok && CapabilitiesOf(out.r.splitter).Has(CapCodec) {
			if store == nil {
				var err error
				store, err = spill.NewStore(s.opts.SpillDir)
				if err != nil {
					return s.stageErr(st, OriginInternal, fmt.Errorf("spill store: %w", err))
				}
			}
			stream, err := store.Stream(fmt.Sprintf("out%d", out.b.id))
			if err != nil {
				return s.stageErr(st, OriginInternal, fmt.Errorf("spill stream: %w", err))
			}
			a.codec, a.stream = codec, stream
		}
		accs[oi] = a
	}

	// The window loop: admit → (view-)split → execute → merge → spill or
	// fold → release, one admission-bounded window at a time.
	runWindow := func(wlo, whi int64) error {
		wlen := whi - wlo
		req := wlen * sumElemBytes
		if b := g.Budget(); req > b && b > 0 {
			req = b
		}
		t0 := time.Now()
		admitted, err := g.admit(ctx, req)
		wait := time.Since(t0)
		s.stats.add(&s.stats.AdmissionWaitNS, wait)
		if err != nil {
			return s.stageErr(st, originFromContext(err), err)
		}
		defer g.release(admitted)
		if tr := s.opts.Tracer; tr != nil {
			tr.Emit(obs.Event{Kind: obs.EvAdmission, Time: time.Now(), Dur: wait,
				Stage: si, Worker: obs.RuntimeLane, Calls: ex.calls,
				Start: wlo, End: whi, Bytes: admitted, BatchElems: batch, Workers: workers})
		}

		wex, lo, hi := ex, wlo, whi
		if useViews {
			winputs := make([]resolvedInput, len(inputs))
			for i, in := range inputs {
				sa, ok := in.r.splitter.(SplitterAt)
				if !ok {
					return s.stageErr(st, OriginInternal, fmt.Errorf("splitter for %s declares CapWindow but implements no SplitAt", in.r.t))
				}
				view, err := s.safeSplitAt(sa, in.val, in.r.t, wlo, whi)
				if err != nil {
					return s.stageErr(st, OriginSplit, fmt.Errorf("window split of %s [%d,%d): %w", in.r.t, wlo, whi, err))
				}
				winputs[i] = in
				winputs[i].val = view
			}
			wex = s.newStageExec(si, st, winputs, sumElemBytes)
			lo, hi = 0, wlen
		}

		// A window runs no more workers than it has elements, so every
		// worker holds a partial of every output.
		results, err := s.runStatic(ctx, wex, lo, hi, batch, min(workers, int(wlen)))
		if err != nil {
			return err
		}
		defer s.pools.putOuts(results)

		t1 := time.Now()
		for oi, out := range st.outputs {
			piece, err := s.mergePartials(out.r, results, oi)
			if err != nil {
				return s.stageErr(st, OriginMerge, fmt.Errorf("window merge output %d: %w", oi, err))
			}
			a := accs[oi]
			if a.codec != nil {
				frame, err := a.codec.EncodePiece(piece, out.r.t)
				if err != nil {
					return s.stageErr(st, OriginMerge, fmt.Errorf("encode spill frame output %d: %w", oi, err))
				}
				if _, err := a.stream.Append(frame); err != nil {
					return s.stageErr(st, OriginInternal, fmt.Errorf("spill append output %d: %w", oi, err))
				}
				s.stats.add(&s.stats.SpilledBytes, time.Duration(len(frame)))
				s.stats.add(&s.stats.SpilledFrames, 1)
				if tr := s.opts.Tracer; tr != nil {
					tr.Emit(obs.Event{Kind: obs.EvSpill, Time: time.Now(), Stage: si,
						Worker: obs.RuntimeLane, Calls: ex.calls, Split: ex.split,
						Start: wlo, End: whi, Bytes: int64(len(frame)), Detail: "append"})
				}
				continue
			}
			if !a.accSet {
				a.acc, a.accSet = piece, true
				continue
			}
			folded, err := s.mergePieces(out.r, []any{a.acc, piece})
			if err != nil {
				return s.stageErr(st, OriginMerge, fmt.Errorf("fold output %d: %w", oi, err))
			}
			a.acc = folded
		}
		s.stats.add(&s.stats.MergeNS, time.Since(t1))
		if len(st.outputs) > 0 {
			s.emitMerge(ex, obs.RuntimeLane, time.Since(t1))
		}
		return nil
	}

	for wlo := int64(0); wlo < total; wlo += windowElems {
		whi := wlo + windowElems
		if whi > total {
			whi = total
		}
		if err := ctx.Err(); err != nil {
			return s.stageErr(st, originFromContext(err), err)
		}
		if err := runWindow(wlo, whi); err != nil {
			return err
		}
	}

	// Finale: replay spilled frames in order (CRC-verified) and fold them
	// incrementally; fold-mode outputs already hold their accumulator.
	t2 := time.Now()
	for oi, out := range st.outputs {
		a := accs[oi]
		if a.codec != nil {
			err := a.stream.Replay(func(seq uint32, payload []byte) error {
				piece, err := a.codec.DecodePiece(payload, out.r.t)
				if err != nil {
					return fmt.Errorf("decode spill frame %d: %w", seq, err)
				}
				if !a.accSet {
					a.acc, a.accSet = piece, true
					return nil
				}
				folded, err := s.mergePieces(out.r, []any{a.acc, piece})
				if err != nil {
					return err
				}
				a.acc = folded
				return nil
			})
			if err != nil {
				return s.stageErr(st, OriginMerge, fmt.Errorf("spill replay output %d: %w", oi, err))
			}
			if tr := s.opts.Tracer; tr != nil {
				tr.Emit(obs.Event{Kind: obs.EvSpill, Time: time.Now(), Stage: si,
					Worker: obs.RuntimeLane, Calls: ex.calls, Split: ex.split,
					Bytes: a.stream.Bytes(), Elems: a.stream.Frames(), Detail: "replay"})
			}
		}
		if !a.accSet {
			merged, err := s.mergePieces(out.r, nil)
			if err != nil {
				return s.stageErr(st, OriginMerge, fmt.Errorf("merge output %d: %w", oi, err))
			}
			a.acc = merged
		}
		out.b.set(a.acc)
	}
	s.stats.add(&s.stats.MergeNS, time.Since(t2))
	s.finishStageBindings(st)
	s.stats.add(&s.stats.StreamedStages, 1)

	// The squeeze is over: the stage's working set has been released, so
	// the governor's level returns to normal (MaxLevel keeps the episode).
	s.notePressure(g, si, ex.calls, PressureNormal)
	return nil
}
