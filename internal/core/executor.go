package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mozart/internal/obs"
	ir "mozart/internal/plan"
)

// execute runs every stage of the plan in order (§5.2).
func (s *Session) execute(ctx context.Context, p *plan) error {
	for si := range p.stages {
		if err := ctx.Err(); err != nil {
			se := s.stageErr(&p.stages[si], originFromContext(err), err)
			se.Stage = si
			return se
		}
		if err := s.executeStage(ctx, p, si, &p.stages[si]); err != nil {
			return err
		}
		s.stats.add(&s.stats.Stages, 1)
	}
	return nil
}

// executeStage runs one stage with splitting and parallelism, applying the
// stage timeout and — on annotation faults — the fallback policy: restore
// any in-place-mutated inputs from a pre-stage snapshot and re-execute the
// stage's calls whole, unsplit and unpipelined, the way the plain library
// would run them.
func (s *Session) executeStage(ctx context.Context, p *plan, si int, st *planStage) error {
	if s.opts.StageTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.StageTimeout)
		defer cancel()
	}

	// Snapshot mutated inputs up front so a fallback can undo the partial
	// in-place work of a failed split execution.
	var snap *stageSnapshot
	var snapErr error
	if s.opts.FallbackPolicy != FallbackOff && len(st.inputs) > 0 {
		snap, snapErr = s.snapshotStage(st)
	}

	tr := s.opts.Tracer
	stageStart := time.Now()
	err := s.executeStageSplit(ctx, p, si, st)
	if err == nil {
		// A split stage that ran clean closes half-open breakers on its
		// annotations (the cooldown probe passed).
		s.recordStageSuccess(st)
		s.emitStageEnd(tr, si, st, stageStart, nil)
		return nil
	}
	err = s.stampStage(err, si, st)

	var serr *StageError
	if s.opts.FallbackPolicy == FallbackOff || len(st.inputs) == 0 ||
		!errors.As(err, &serr) || !serr.AnnotationFault() {
		s.emitStageEnd(tr, si, st, stageStart, err)
		return err
	}
	if snapErr != nil {
		err = fmt.Errorf("%w (whole-call fallback skipped: %v)", err, snapErr)
		s.emitStageEnd(tr, si, st, stageStart, err)
		return err
	}
	snap.restore()
	fbStart := time.Now()
	if ferr := s.executeWhole(st); ferr != nil {
		err = fmt.Errorf("mozart: stage %d: whole-call fallback failed: %w (after %v)", si, ferr, err)
		s.emitStageEnd(tr, si, st, stageStart, err)
		return err
	}
	s.stats.add(&s.stats.FallbackStages, 1)
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvFallback, Time: time.Now(), Dur: time.Since(fbStart),
			Stage: si, Worker: obs.RuntimeLane, Calls: st.pipeline, Detail: err.Error()})
	}
	if s.opts.FallbackPolicy == FallbackQuarantine {
		s.quarantineStage(st, serr)
	}
	// The stage recovered: its end event reports success, the fallback span
	// carries the original fault.
	s.emitStageEnd(tr, si, st, stageStart, nil)
	return nil
}

// emitStageEnd closes a stage's span on the runtime lane, covering split
// execution plus any whole-call fallback re-execution.
func (s *Session) emitStageEnd(tr obs.Tracer, si int, st *planStage, start time.Time, err error) {
	if tr == nil {
		return
	}
	e := obs.Event{Kind: obs.EvStageEnd, Time: time.Now(), Dur: time.Since(start),
		Stage: si, Worker: obs.RuntimeLane, Calls: st.pipeline}
	if err != nil {
		e.Detail = err.Error()
	}
	tr.Emit(e)
}

// stampStage fills in the stage index on StageErrors produced deep inside
// the executor, or wraps other errors with the stage index.
func (s *Session) stampStage(err error, si int, st *planStage) error {
	var serr *StageError
	if errors.As(err, &serr) {
		if serr.Stage < 0 {
			serr.Stage = si
		}
		return err
	}
	return fmt.Errorf("mozart: stage %d: %w", si, err)
}

// stageErr wraps err in a StageError for stage st. The stage index is
// stamped by executeStage; batch range and call name are attached by the
// caller when known.
func (s *Session) stageErr(st *planStage, origin FaultOrigin, err error) *StageError {
	se := &StageError{Stage: -1, Calls: callNames(st), Origin: origin, Start: -1, End: -1, Err: err}
	var p *panicErr
	if errors.As(err, &p) {
		se.PanicValue, se.Stack = p.val, p.stack
	}
	return se
}

func originFromContext(err error) FaultOrigin {
	if errors.Is(err, context.DeadlineExceeded) {
		return OriginTimeout
	}
	return OriginCanceled
}

// ---- panic isolation ------------------------------------------------------
//
// Every entry into annotator- or library-supplied code goes through one of
// the safe* wrappers below: a panic in a worker goroutine becomes an error
// instead of killing the host process (annotations are untrusted plugins).

// recoverPanic converts a panic into a panicErr carrying the recovered
// value and the stack of the recovering goroutine.
func (s *Session) recoverPanic(err *error) {
	if r := recover(); r != nil {
		s.stats.add(&s.stats.RecoveredPanics, 1)
		*err = &panicErr{val: r, stack: debug.Stack()}
	}
}

// safeCall runs call n's one registered function, whichever convention it
// was registered under — the only place either is invoked, so nothing wrapped
// around the function (fault injection, tracing) is ever bypassed. out is the
// destination offered to a FuncInto: a dead piece of its own on the split
// path, nil everywhere else.
func (s *Session) safeCall(n *node, args []any, out any) (ret any, err error) {
	defer s.recoverPanic(&err)
	if n.into != nil {
		return n.into(args, out)
	}
	return n.fn(args)
}

func (s *Session) safeInfo(sp Splitter, v any, t SplitType) (info RuntimeInfo, err error) {
	defer s.recoverPanic(&err)
	return sp.Info(v, t)
}

func (s *Session) safeSplit(sp Splitter, v any, t SplitType, start, end int64) (piece any, err error) {
	defer s.recoverPanic(&err)
	return sp.Split(v, t, start, end)
}

func (s *Session) safeSplitView(sp ViewSplitter, v any, t SplitType, start, end int64, reuse any) (piece any, err error) {
	defer s.recoverPanic(&err)
	return sp.SplitView(v, t, start, end, reuse)
}

func (s *Session) safeMerge(sp Splitter, pieces []any, t SplitType) (v any, err error) {
	defer s.recoverPanic(&err)
	return sp.Merge(pieces, t)
}

func (s *Session) safeAllocMerged(sp PlaceSplitter, exemplar any, t SplitType, total int64) (dst any, err error) {
	defer s.recoverPanic(&err)
	return sp.AllocMerged(exemplar, t, total)
}

func (s *Session) safePlace(sp PlaceSplitter, dst, piece any, t SplitType, start, end int64) (err error) {
	defer s.recoverPanic(&err)
	return sp.Place(dst, piece, t, start, end)
}

// ---- split execution ------------------------------------------------------

// resolvedInput is a stage input with its splitter pinned down (deferred
// defaults resolved against the materialized value).
type resolvedInput struct {
	stageInput
	val  any
	info RuntimeInfo
}

// stageExec bundles a stage with its resolved inputs for the worker loops.
// mutInPlace lists the inputs whose storage the stage's calls mutate
// through aliasing in-place splits — the pieces batch-granular retry must
// snapshot before an attempt so a replay is idempotent.
type stageExec struct {
	st         *planStage
	inputs     []resolvedInput
	mutInPlace []resolvedInput

	// viewers[i] is inputs[i]'s splitter as a ViewSplitter when its
	// capability set includes CapView (nil otherwise), resolved once per
	// stage so the per-batch loop never type-asserts. View-capable inputs
	// split through SplitView with a per-worker reuse slot: in steady
	// state the previous evaluation's piece is still the right view and
	// comes back unboxed — zero allocations.
	viewers []ViewSplitter

	// placed[i] is st.outputs[i]'s destination in the current window when
	// the output is delivered by placement (nil entry, or nil table,
	// otherwise). The table is sized to the window, and origin is the
	// window's first element in the coordinates its batches run at, so the
	// piece of [start, end) lands at [start−origin, end−origin).
	placed []*placedOutput
	origin int64

	// Per-stage observability detail, computed once so the per-batch hot
	// loop emits events without building strings or re-deriving sizes.
	si        int    // stage index within the plan
	calls     string // "a -> b -> c" pipeline rendering
	split     string // split type rendering
	elemBytes int64  // Σ element bytes across split inputs (§5.2 model)
}

// mutInPlaceInputs selects the resolved inputs some call mutates through an
// in-place splitter. Inputs with copying splitters need no batch snapshot:
// their mutation lands in merged output pieces, which a failed batch never
// publishes.
func mutInPlaceInputs(st *planStage, inputs []resolvedInput) []resolvedInput {
	mut := map[int]bool{}
	for _, c := range st.calls {
		for i, p := range c.n.sa.Params {
			if p.Mut && !c.args[i].broadcast {
				mut[c.n.args[i].id] = true
			}
		}
	}
	var out []resolvedInput
	for _, in := range inputs {
		if mut[in.b.id] && CapabilitiesOf(in.r.splitter).Has(CapInPlace) {
			out = append(out, in)
		}
	}
	return out
}

// resolveViewers builds the per-input ViewSplitter table for a stage: only
// splitters whose capability set declares CapView are consulted, and only
// then asserted to the concrete interface (the CapabilitiesOf contract).
func resolveViewers(inputs []resolvedInput) []ViewSplitter {
	var viewers []ViewSplitter
	for i, in := range inputs {
		if !CapabilitiesOf(in.r.splitter).Has(CapView) {
			continue
		}
		vs, ok := in.r.splitter.(ViewSplitter)
		if !ok {
			continue // declared but not callable: stay on the Split path
		}
		if viewers == nil {
			viewers = make([]ViewSplitter, len(inputs))
		}
		viewers[i] = vs
	}
	return viewers
}

// placedOutput is the destination of one stage output assembled by
// placement: whichever batch of the window finishes first allocates the
// window-sized value (once), and every batch copies its piece into its own
// element range.
type placedOutput struct {
	sp    PlaceSplitter
	total int64
	once  sync.Once
	dst   any
	err   error
}

// resolvePlaced builds the placement table for a window of total elements:
// an output qualifies when its split type is concrete and known at plan time
// (not deferred, not unknown) and its splitter declares CapPlace, which is
// the annotator's promise that pieces are length-preserving. Reductions,
// GroupSplit and filter-style outputs keep Merge.
func resolvePlaced(outputs []stageOutput, total int64) []*placedOutput {
	var placed []*placedOutput
	for i, o := range outputs {
		if o.r.deferred || o.r.t.IsUnknown() || !CapabilitiesOf(o.r.splitter).Has(CapPlace) {
			continue
		}
		ps, ok := o.r.splitter.(PlaceSplitter)
		if !ok {
			continue // declared but not callable: stay on the Merge path
		}
		if placed == nil {
			placed = make([]*placedOutput, len(outputs))
		}
		placed[i] = &placedOutput{sp: ps, total: total}
	}
	return placed
}

// placedAt returns output i's placement destination, nil when the output is
// collected and merged.
func (ex *stageExec) placedAt(i int) *placedOutput {
	if ex.placed == nil {
		return nil
	}
	return ex.placed[i]
}

// reusable reports whether a piece whose producer the plan marked reuse is
// dead once its batch has been delivered: stage-local scratch always is, an
// output only when deliver copies it out (placement) instead of keeping it.
func (ex *stageExec) reusable(reuse int32) bool {
	return reuse == reuseScratch || (reuse > reuseNever && ex.placedAt(int(reuse)-1) != nil)
}

// newStageExec bundles stage si with its resolved inputs. The split label
// names the first input with a real element width (a SizeSplit-style
// zero-width input doesn't name the stage's data), matching the IR's
// SplitLabel rule; an input whose type was known at plan time reuses the
// IR's rendering instead of building the string again.
func (s *Session) newStageExec(si int, st *planStage, inputs []resolvedInput, sumElemBytes int64) *stageExec {
	li := 0
	for i, in := range inputs {
		if in.info.ElemBytes != 0 {
			li = i
			break
		}
	}
	split := st.ir.Inputs[li].Split
	if in := st.inputs[li].r; in.deferred || in.splitter == nil {
		split = inputs[li].r.t.String() // resolved from the default registry just now
	}
	ex := &stageExec{
		st: st, inputs: inputs, viewers: resolveViewers(inputs),
		si: si, calls: st.pipeline, split: split, elemBytes: sumElemBytes,
	}
	if s.opts.RetryPolicy.enabled() {
		ex.mutInPlace = mutInPlaceInputs(st, inputs)
	}
	return ex
}

func (s *Session) executeStageSplit(ctx context.Context, p *plan, si int, st *planStage) error {
	// Resolve inputs against materialized values.
	inputs := make([]resolvedInput, 0, len(st.inputs))
	widths := make([]int64, 0, len(st.inputs))
	for _, in := range st.inputs {
		if !in.b.hasVal {
			return s.stageErr(st, OriginInternal, fmt.Errorf("input of %s is not materialized", describeStage(st)))
		}
		ri := resolvedInput{stageInput: in, val: in.b.val}
		if in.r.deferred || in.r.splitter == nil {
			d, ok := lookupDefaultSplit(in.b.val)
			if !ok {
				return s.stageErr(st, OriginInfo, fmt.Errorf("no default split type registered for %T", in.b.val))
			}
			t, err := d.ctor(in.b.val)
			if err != nil {
				return s.stageErr(st, OriginInfo, fmt.Errorf("default constructor for %T: %w", in.b.val, err))
			}
			ri.r.splitter, ri.r.t, ri.r.deferred = d.splitter, t, false
		}
		info, err := s.safeInfo(ri.r.splitter, ri.val, ri.r.t)
		if err != nil {
			return s.stageErr(st, OriginInfo, fmt.Errorf("Info(%s): %w", ri.r.t, err))
		}
		ri.info = info
		widths = append(widths, info.ElemBytes)
		inputs = append(inputs, ri)
	}
	// The §5.2 working set counts the split inputs plus the stage's live
	// (non-reduced) produced values, each estimated at the mean input width
	// — the shared byte model from the plan IR, identical to what Explain
	// reports and what internal/planlower feeds into memsim.
	var produced int
	if st.ir != nil {
		produced = len(st.ir.Live)
	}
	sumElemBytes := ir.StageBytes(widths, produced, 0)
	for _, b := range st.broadcast {
		if !b.hasVal {
			return s.stageErr(st, OriginInternal, fmt.Errorf("broadcast value is not materialized"))
		}
	}

	// A stage with nothing to split executes each call once, whole.
	if len(inputs) == 0 {
		if tr := s.opts.Tracer; tr != nil {
			tr.Emit(obs.Event{Kind: obs.EvStageBegin, Time: time.Now(), Stage: si,
				Worker: obs.RuntimeLane, Calls: st.pipeline, Split: "whole", Workers: 1})
		}
		return s.executeWhole(st)
	}

	infos := make([]RuntimeInfo, len(inputs))
	for i, in := range inputs {
		infos[i] = in.info
	}
	total, err := CheckSameElems(infos)
	if err != nil {
		return s.stageErr(st, OriginInfo, err)
	}
	if total == 0 && s.opts.Pedantic {
		return s.stageErr(st, OriginPedantic, fmt.Errorf("pedantic: stage received zero elements"))
	}

	// Batch and worker count come from the plan IR, so a Tuner's overrides
	// (plan.BatchSource) apply here exactly as Explain renders them.
	batch := s.planBatchSize(p, sumElemBytes, total)
	// A stage runs no more workers than it has elements, and a zero-element
	// stage runs one: a worker without a batch would be an offer for nothing.
	workers := int(clamp64(int64(s.planWorkers(p)), 1, max(total, 1)))
	// Accumulate the split-stage actuals the post-evaluation tuner
	// observation reports (stages run sequentially; no atomics needed).
	p.obsElems += total
	p.obsBytes += total * sumElemBytes

	// The stage loop runs windows of elements. In memory the stage is one
	// window, and under a Governor it may start with a smaller batch or fewer
	// workers, or block until its modeled footprint fits under the byte
	// budget. Out of core — the session opted in and the stage's whole §5.2
	// working set exceeds the budget — it runs in windows of half the budget,
	// each admitted on its own, instead of blocking on an admission that can
	// never fully fit.
	ex := s.newStageExec(si, st, inputs, sumElemBytes)
	g := s.opts.Governor
	window, windows := total, int64(1)
	var ooc *outOfCore
	var detail string
	if s.shouldStream(total, sumElemBytes) {
		window = clamp64(g.Budget()/(2*sumElemBytes), 1, total)
		windows = (total + window - 1) / window
		batch = min(batch, window)
		workers = int(clamp64(int64(workers), 1, window))
		s.notePressure(g, si, ex.calls, PressureOutOfCore)
		// The squeeze is over however the stage ends: its windows have
		// released their bytes (MaxLevel keeps the episode).
		defer s.notePressure(g, si, ex.calls, PressureNormal)
		if ooc, err = s.newOutOfCore(ex, window, total); err != nil {
			return err
		}
		defer ooc.close()
		detail = "out-of-core"
	} else {
		var admitted int64
		if batch, workers, admitted, err = s.admitStage(ctx, ex, total, batch, workers); err != nil {
			return err
		}
		defer g.release(admitted)
	}

	if tr := s.opts.Tracer; tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvStageBegin, Time: time.Now(), Stage: si,
			Worker: obs.RuntimeLane, Calls: ex.calls, Split: ex.split,
			Elems: total, Bytes: sumElemBytes, BatchElems: batch, Workers: workers,
			CacheBytes: s.opts.cacheTargetBytes(), Detail: detail})
	}

	for k := int64(0); k < windows; k++ {
		wlo := k * window
		if err := s.runWindow(ctx, ex, ooc, wlo, min(wlo+window, total), batch, workers); err != nil {
			return err
		}
	}
	if ooc != nil {
		if err := ooc.finish(s, ex); err != nil {
			return err
		}
		s.stats.add(&s.stats.StreamedStages, 1)
	}
	// In-place mutated bindings are already up to date; mark them ready.
	s.finishStageBindings(st)
	return nil
}

// runWindow is one pass of the stage loop over elements [wlo, whi): split,
// pipeline every batch through the stage's calls (§5.2 Steps 1–2), and exit
// the window (Step 3). Out of core the window is admitted on its own, and
// runs over window views of the inputs when ooc has them, and a spilled
// output's spare destination is preset when it has the window's size. Either
// way it builds a placement table sized to the window, so no destination is
// ever larger than what the window was admitted for. A canceled context stops
// the window's workers at their first batch.
func (s *Session) runWindow(ctx context.Context, ex *stageExec, ooc *outOfCore, wlo, whi, batch int64, workers int) error {
	wex, lo, hi := ex, wlo, whi
	if ooc != nil {
		admitted, err := s.admit(ctx, ex, (whi-wlo)*ex.elemBytes, wlo, whi, batch, workers)
		if err != nil {
			return err
		}
		defer s.opts.Governor.release(admitted)
		if ooc.views {
			if wex, err = s.windowView(ex, wlo, whi); err != nil {
				return err
			}
			lo, hi = 0, whi-wlo
		}
	}
	wex.placed, wex.origin = resolvePlaced(ex.st.outputs, hi-lo), lo
	if ooc != nil {
		ooc.presetSpares(wex, hi-lo)
	}

	// A window runs no more workers than it has elements, so every worker
	// holds a partial of every collected output.
	results, err := s.runStatic(ctx, wex, lo, hi, batch, int(clamp64(int64(workers), 1, max(hi-lo, 1))))
	if err != nil {
		return err
	}
	defer s.pools.putOuts(results)
	return s.exitWindow(wex, ooc, results, wlo, whi)
}

// runStatic executes [lo, hi) of a stage with static partitioning: workers
// take contiguous, near-equal element ranges (§5.2 Step 1), and the first
// worker error cancels the stage context so siblings stop at their next batch
// boundary. It returns the per-worker results in element order; the caller
// hands them back to the pools once merged.
func (s *Session) runStatic(ctx context.Context, ex *stageExec, lo, hi, batch int64, workers int) ([]workerOut, error) {
	per := (hi - lo) / int64(workers)
	rem := (hi - lo) % int64(workers)

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := s.pools.getOuts(workers)
	s.fanOut(workers, func(w int) {
		// The first rem workers take one extra element.
		wlo := lo + int64(w)*per + min(int64(w), rem)
		whi := wlo + per
		if int64(w) < rem {
			whi++
		}
		s.workerLoop(wctx, ex, func() {
			results[w].partials, results[w].err = s.runWorker(wctx, ex, w, wlo, whi, batch, results[w].partials)
		})
		if results[w].err != nil {
			cancel()
		}
	})

	errs := make([]error, len(results))
	for i, r := range results {
		errs[i] = r.err
	}
	if err := s.firstWorkerError(ex.st, errs); err != nil {
		return nil, err
	}
	return results, nil
}

// fanShares is the claim state of one fanOut call: shares 1…workers−1 go to
// whoever takes them from next first, and wg counts those not yet finished.
// It is allocated per call and never recycled: a helper that wakes after
// fanOut returned still holds it, and must find it exhausted.
type fanShares struct {
	body    func(w int)
	workers int32
	next    atomic.Int32 // last share claimed; share 0 is the caller's
	wg      sync.WaitGroup
}

// claim runs the next unclaimed share; once none is left it reports false
// without touching stage state.
func (f *fanShares) claim() bool {
	w := f.next.Add(1)
	if w >= f.workers {
		return false
	}
	f.body(int(w))
	f.wg.Done()
	return true
}

// fanOut runs body(0) … body(workers-1), each exactly once, and returns once
// all have. It is the only place stage workers start. Share 0 runs on the
// calling goroutine; every other share is offered to the worker pool and run
// by whoever claims it first — a helper when it wakes, or the caller once it
// has nothing else left — so the caller waits only for shares a helper has
// begun, never for a helper to start: a stage too small to outlast a wake-up
// costs its one-worker time plus the offers. One worker touches no
// goroutine, channel or timer at all.
func (s *Session) fanOut(workers int, body func(w int)) {
	if workers <= 1 {
		body(0)
		return
	}
	f := &fanShares{body: body, workers: int32(workers)}
	f.wg.Add(workers - 1)
	help := func() { f.claim() } // a helper takes at most one share
	for w := 1; w < workers; w++ {
		s.spawn(help)
	}
	body(0)
	for f.claim() {
	}
	f.wg.Wait()
}

// spawn offers a stage-worker task to the session's worker pool, accounting
// goroutine creation in Stats.WorkerSpawns (zero across steady-state
// evaluations is the pool's reuse proof).
func (s *Session) spawn(task func()) {
	s.stats.add(&s.stats.PoolTasks, 1)
	if s.opts.WorkerPool.Run(task) {
		s.stats.add(&s.stats.WorkerSpawns, 1)
	}
}

// workerLoop runs body, optionally under pprof labels so CPU profiles
// attribute worker samples to the stage and split type
// (go tool pprof -tagfocus mozart_stage=N). Worker 0 labels the evaluating
// goroutine; pprof.Do re-applies the labels ctx carries when body returns.
func (s *Session) workerLoop(ctx context.Context, ex *stageExec, body func()) {
	if !s.opts.ProfileLabels {
		body()
		return
	}
	labels := pprof.Labels("mozart_stage", strconv.Itoa(ex.si), "mozart_split", ex.split)
	pprof.Do(ctx, labels, func(context.Context) { body() })
}

// emitMerge reports a merge span of duration d ending now: a worker's
// placements plus pre-merge, or the final merge on the runtime lane.
func (s *Session) emitMerge(ex *stageExec, worker int, d time.Duration) {
	if tr := s.opts.Tracer; tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvMerge, Time: time.Now(), Dur: d,
			Stage: ex.si, Worker: worker, Calls: ex.calls, Split: ex.split})
	}
}

// firstWorkerError picks the stage's result from per-worker errors: a real
// fault wins over cancellation noise from siblings that merely observed the
// canceled context; if every error is a context error, the caller's context
// expired and the stage reports a timeout/cancellation fault.
func (s *Session) firstWorkerError(st *planStage, errs []error) error {
	var cancelErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var se *StageError
		if errors.As(err, &se) {
			return err
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelErr == nil {
				cancelErr = err
			}
			continue
		}
		return err
	}
	if cancelErr == nil {
		return nil
	}
	return s.stageErr(st, originFromContext(cancelErr), cancelErr)
}

// mergePieces merges pieces under resolution r, resolving a deferred
// splitter from the pieces' dynamic type.
func (s *Session) mergePieces(r resolved, pieces []any) (any, error) {
	sp := r.splitter
	if sp == nil {
		if len(pieces) == 0 {
			return nil, fmt.Errorf("cannot merge zero pieces: the split type is deferred and no piece reveals the data type (zero-element input to a type-destroying call?)")
		}
		d, ok := lookupDefaultSplit(pieces[0])
		if !ok {
			return nil, fmt.Errorf("no default split type registered for %T", pieces[0])
		}
		sp = d.splitter
	}
	return s.safeMerge(sp, pieces, r.t)
}

// deliver is the one place a finished batch's output pieces leave the batch
// loop. A placed output's piece is copied into its window's destination at
// [start, end) right away, while it is still cache-hot, and nothing refers to
// it afterwards — which is what lets runBatch hand it back to its producer as
// the next batch's destination; every other output's piece is appended to
// pieces[oi], the worker's list for that output, for the pre-merge at the end
// of its range. It returns the time spent placing, which the caller accounts
// as its merge time.
func (s *Session) deliver(ex *stageExec, out map[int]any, start, end int64, pieces [][]any) (time.Duration, error) {
	var t0 time.Time
	n := 0
	for oi, o := range ex.st.outputs {
		piece, ok := out[o.b.id]
		if !ok {
			continue
		}
		pl := ex.placedAt(oi)
		if pl == nil {
			pieces[oi] = append(pieces[oi], piece)
			continue
		}
		if n == 0 {
			t0 = time.Now()
		}
		n++
		pl.once.Do(func() { pl.dst, pl.err = s.safeAllocMerged(pl.sp, piece, o.r.t, pl.total) })
		err := pl.err
		if err == nil {
			err = s.safePlace(pl.sp, pl.dst, piece, o.r.t, start-ex.origin, end-ex.origin)
		}
		if err != nil {
			se := s.stageErr(ex.st, OriginMerge, fmt.Errorf("place output %d: %w", oi, err))
			se.Start, se.End = start, end
			return 0, se
		}
	}
	if n == 0 {
		return 0, nil
	}
	s.stats.add(&s.stats.PlacedPieces, time.Duration(n))
	return time.Since(t0), nil
}

// windowPiece is output oi's piece of the window: its placement destination,
// already whole and handed off by pointer, or — for a collected output, and a
// placed one no batch ran for — its worker partials merged in worker order,
// which is element order: workers own contiguous ranges, and a worker that
// ran no batch has none.
func (s *Session) windowPiece(ex *stageExec, results []workerOut, oi int) (any, error) {
	if pl := ex.placedAt(oi); pl != nil && pl.dst != nil {
		return pl.dst, nil
	}
	pieces := s.pools.getAnys(len(results))[:0]
	for _, res := range results {
		if p := res.partials[oi]; p != nil {
			pieces = append(pieces, p)
		}
	}
	merged, err := s.mergePieces(ex.st.outputs[oi].r, pieces)
	s.pools.putAnys(pieces[:cap(pieces)])
	return merged, err
}

// exitWindow is window exit on the coordinating thread (§5.2 Step 3): each
// output's piece of the window is, in memory, the output's value; out of
// core ooc takes it for the stage's finale, spilled or kept.
func (s *Session) exitWindow(ex *stageExec, ooc *outOfCore, results []workerOut, wlo, whi int64) error {
	t0 := time.Now()
	for oi, out := range ex.st.outputs {
		piece, err := s.windowPiece(ex, results, oi)
		if err != nil {
			return s.stageErr(ex.st, OriginMerge, fmt.Errorf("merge output %d: %w", oi, err))
		}
		if ooc == nil {
			out.b.set(piece)
		} else if err := ooc.add(s, ex, oi, piece, wlo, whi); err != nil {
			return err
		}
	}
	d := time.Since(t0)
	s.stats.add(&s.stats.MergeNS, d)
	s.emitMerge(ex, obs.RuntimeLane, d)
	return nil
}

// finishStageBindings marks every binding written by the stage as ready.
func (s *Session) finishStageBindings(st *planStage) {
	for _, c := range st.calls {
		for i, p := range c.n.sa.Params {
			if p.Mut {
				c.n.args[i].ready = true
			}
		}
	}
}

// noteWorkerMerge accounts a worker's merge-side time for a stage — its
// placements plus any pre-merge — as merge time and one merge span on the
// worker's lane, however many batches it ran.
func (s *Session) noteWorkerMerge(ex *stageExec, w int, d time.Duration) {
	if d > 0 {
		s.stats.add(&s.stats.MergeNS, d)
		s.emitMerge(ex, w, d)
	}
}

// runBatch splits inputs for [start, end), pipelines the batch through the
// stage's calls, and returns the pieces of stage outputs. sc is the pooled
// per-worker scratch (env map, argument buffers, SplitView reuse slots,
// destination slots). It is the single batch body of every window, in
// memory or out of core, so panic isolation, Pedantic checks and destination
// reuse behave identically under both. w is the worker lane and attempt the
// retry attempt number, both only used for the batch span event. The
// returned output map is scratch-owned, and so are the pieces in it that came
// from a reusable call: callers must consume both before the worker's next
// batch.
func (s *Session) runBatch(ex *stageExec, sc *workerScratch, w int, start, end int64, attempt int) (map[int]any, error) {
	st, inputs := ex.st, ex.inputs
	batchErr := func(origin FaultOrigin, call string, err error) *StageError {
		se := s.stageErr(st, origin, err)
		se.Call = call
		se.Start, se.End = start, end
		return se
	}

	env := sc.env
	clear(env)
	t0 := time.Now()
	views := 0
	for ii, in := range inputs {
		var piece any
		var err error
		if ex.viewers != nil && ex.viewers[ii] != nil {
			// Zero-copy path: hand the splitter the reuse slot from the
			// last batch at these coordinates. In steady state the slot
			// already holds the right view of the right storage and comes
			// back unchanged — no copy, no boxing, no allocation.
			key := viewKey{in: ii, start: start, end: end}
			piece, err = s.safeSplitView(ex.viewers[ii], in.val, in.r.t, start, end, sc.views[key])
			if err == nil {
				sc.views[key] = piece
				views++
			}
		} else {
			piece, err = s.safeSplit(in.r.splitter, in.val, in.r.t, start, end)
		}
		if err != nil {
			return nil, batchErr(OriginSplit, "", fmt.Errorf("split of %s: %w", in.r.t, err))
		}
		if s.opts.Pedantic && piece == nil {
			return nil, batchErr(OriginPedantic, "", fmt.Errorf("pedantic: splitter for %s produced nil piece", in.r.t))
		}
		env[in.b.id] = piece
	}
	splitDur := time.Since(t0)
	s.stats.add(&s.stats.SplitNS, splitDur)
	s.stats.add(&s.stats.Batches, 1)
	if views > 0 {
		s.stats.add(&s.stats.ViewSplits, time.Duration(views))
	}

	var taskDur time.Duration
	reused := 0
	for ci, c := range st.calls {
		args := sc.argsFor(ci, len(c.n.args))
		for i, r := range c.args {
			b := c.n.args[i]
			if r.broadcast {
				args[i] = b.val
				continue
			}
			piece, ok := env[b.id]
			if !ok {
				return nil, batchErr(OriginInternal, c.n.name, fmt.Errorf("%s: internal: no piece for split argument %s", c.n.name, c.n.sa.Params[i].Name))
			}
			if s.opts.Pedantic && piece == nil {
				return nil, batchErr(OriginPedantic, c.n.name, fmt.Errorf("pedantic: %s received nil piece for %s", c.n.name, c.n.sa.Params[i].Name))
			}
			args[i] = piece
		}
		if s.opts.Logf != nil {
			s.opts.Logf("mozart: call %s on elements [%d,%d)", c.n.name, start, end)
		}
		// The piece this call returned for the worker's previous batch is its
		// destination now, if nothing can still see it. The slot is empty
		// while the call runs: a call that fails leaves nothing half-written
		// behind for the replay.
		var slot *any
		var dst any
		if ex.reusable(c.reuse) {
			slot = sc.slot(ci, len(st.calls))
			if dst, *slot = *slot, nil; dst != nil {
				reused++
			}
		}
		t1 := time.Now()
		ret, err := s.safeCall(c.n, args, dst)
		d := time.Since(t1)
		taskDur += d
		s.stats.add(&s.stats.TaskNS, d)
		s.stats.add(&s.stats.Calls, 1)
		if err != nil {
			return nil, batchErr(OriginCall, c.n.name, fmt.Errorf("%s: %w", c.n.name, err))
		}
		if slot != nil {
			*slot = ret
		}
		if c.n.ret != nil {
			env[c.n.ret.id] = ret
		}
	}
	if reused > 0 {
		s.stats.add(&s.stats.ReusedPieces, time.Duration(reused))
	}
	var out map[int]any
	if len(st.outputs) > 0 {
		out = sc.out
		clear(out)
		for _, o := range st.outputs {
			if piece, ok := env[o.b.id]; ok {
				out[o.b.id] = piece
			}
		}
	}
	if tr := s.opts.Tracer; tr != nil {
		now := time.Now() // read once: a span ends where it says and began Dur before
		tr.Emit(obs.Event{Kind: obs.EvBatch, Time: now, Dur: now.Sub(t0),
			Stage: ex.si, Worker: w, Start: start, End: end,
			Calls: ex.calls, Split: ex.split,
			SplitNS: int64(splitDur), TaskNS: int64(taskDur),
			Bytes: (end - start) * ex.elemBytes, Attempt: attempt})
	}
	return out, nil
}

// workerOut is one worker's share of a stage: partials[oi] is its pre-merged
// piece of output oi (nil for a placed output or a worker that ran no batch).
type workerOut struct {
	partials []any
	err      error
}

// runWorker is the per-worker driver loop (§5.2 Step 2): for each batch in
// the worker's element range, run the batch through the stage and deliver
// its output pieces; at the end the worker pre-merges the pieces it
// collected into partials, which it reuses and returns. The worker checks the
// stage context between batches and aborts promptly once a sibling has
// failed or the stage deadline passed.
func (s *Session) runWorker(ctx context.Context, ex *stageExec, w int, lo, hi, batch int64, partials []any) ([]any, error) {
	st := ex.st
	sc := s.pools.getScratch()
	defer s.pools.putScratch(sc)
	pieces := sc.collected(len(st.outputs))
	var mergeDur time.Duration
	defer func() { s.noteWorkerMerge(ex, w, mergeDur) }()

	for start := lo; start < hi; start += batch {
		if err := ctx.Err(); err != nil {
			return partials, err
		}
		end := min(start+batch, hi)
		out, err := s.runBatchResilient(ctx, ex, sc, w, start, end)
		if err != nil {
			return partials, err
		}
		d, err := s.deliver(ex, out, start, end, pieces)
		if err != nil {
			return partials, err
		}
		mergeDur += d
	}

	// Per-worker pre-merge (§5.2 Step 3) of the collected outputs keeps the
	// main-thread merge cheap and is valid because Merge is associative.
	partials = resize(partials, len(st.outputs))
	t2 := time.Now()
	merges := 0
	for oi, o := range st.outputs {
		if len(pieces[oi]) == 0 {
			continue
		}
		merged, err := s.mergePieces(o.r, pieces[oi])
		if err != nil {
			return partials, s.stageErr(st, OriginMerge, fmt.Errorf("worker merge: %w", err))
		}
		partials[oi] = merged
		merges++
	}
	if merges > 0 {
		mergeDur += time.Since(t2)
	}
	return partials, nil
}

// executeWhole runs a stage that has no split inputs — or a stage being
// re-executed under the fallback policy — by executing every call once over
// full values on the calling thread, exactly as the unannotated library
// would. Panics are still isolated into StageErrors.
func (s *Session) executeWhole(st *planStage) error {
	for _, c := range st.calls {
		args := make([]any, len(c.n.args))
		for i, b := range c.n.args {
			if !b.hasVal {
				return s.stageErr(st, OriginInternal, fmt.Errorf("%s: argument %s not materialized", c.n.name, c.n.sa.Params[i].Name))
			}
			args[i] = b.val
		}
		if s.opts.Logf != nil {
			s.opts.Logf("mozart: call %s (whole)", c.n.name)
		}
		t0 := time.Now()
		ret, err := s.safeCall(c.n, args, nil)
		s.stats.add(&s.stats.TaskNS, time.Since(t0))
		s.stats.add(&s.stats.Calls, 1)
		if err != nil {
			se := s.stageErr(st, OriginCall, fmt.Errorf("%s: %w", c.n.name, err))
			se.Call = c.n.name
			return se
		}
		if c.n.ret != nil {
			c.n.ret.set(ret)
		}
		for i, p := range c.n.sa.Params {
			if p.Mut {
				c.n.args[i].ready = true
			}
		}
	}
	return nil
}

func callNames(st *planStage) []string {
	names := make([]string, 0, len(st.calls))
	for _, c := range st.calls {
		names = append(names, c.n.name)
	}
	return names
}

func describeStage(st *planStage) string {
	if len(st.calls) == 0 {
		return "empty stage"
	}
	return fmt.Sprintf("stage[%s]", st.pipeline)
}
