package core

import "sync"

// sessionPools is the sync.Pool-backed scratch reuse layer for the hot
// path. Every per-evaluation buffer the executor used to allocate fresh —
// per-worker env/args scratch and piece lists, workerOut result slices and
// their partials, merge piece slices — cycles through these pools instead, so
// a session's second and later evaluations run the split→call→merge loop
// without heap growth. Pools are per-Session (created in NewSession), so
// buffers can never migrate between concurrent sessions by construction;
// the poison mode exists to prove no code path *retains* a buffer after
// returning it.
type sessionPools struct {
	// poison, when true (Options.PoisonPools), overwrites the slots of
	// every returned buffer with a sentinel value before pooling it. Any
	// code path that kept a reference past the put sees poisonedBuffer{}
	// instead of its data and fails loudly (type asserts miss, results
	// corrupt deterministically). Debug mode for the leak tests.
	poison bool

	scratch sync.Pool // *workerScratch
	outs    sync.Pool // *[]workerOut
	anys    sync.Pool // *[]any
}

// poisonedBuffer is the sentinel written into returned buffers under
// poison mode. No real piece ever has this type, so any consumer of a
// leaked buffer trips an assertion or comparison failure immediately.
type poisonedBuffer struct{}

func newSessionPools(poison bool) *sessionPools {
	return &sessionPools{poison: poison}
}

// viewKey identifies one SplitView reuse slot: the piece most recently
// produced for input index in over element range [start, end). Keys recur
// across evaluations of the same plan shape, which is exactly when the
// previous piece is still the right view and can be returned unboxed.
type viewKey struct {
	in         int
	start, end int64
}

// workerScratch is the reusable per-worker state for the batch hot loop:
// the env map threading pieces between pipelined calls, the per-batch
// output map, the per-output piece lists deliver appends to, per-call
// argument buffers, the SplitView reuse slots, and the destination slots of
// calls registered through CallInto.
// Scratches are pooled across stages and evaluations; the views map is
// deliberately never cleared — stale entries are revalidated by the
// splitter (a view of the wrong storage or range fails the alias check and
// is rebuilt), and hits are what make the steady state allocation-free.
type workerScratch struct {
	env    map[int]any
	out    map[int]any
	pieces [][]any // pieces[oi]: output oi's collected pieces, in batch order
	args   [][]any
	views  map[viewKey]any
	// slots[ci] is the piece call ci of the stage returned for this worker's
	// previous batch, kept only while planCall.reuse says it is dead: the
	// call's destination for the next batch. The table exists only on workers
	// that ran a stage with such a call, and is emptied when the scratch goes
	// back to the pool, so a piece outlives its stage by nothing.
	slots []any
}

// slot returns the destination slot of call ci in a stage of n calls.
func (sc *workerScratch) slot(ci, n int) *any {
	if len(sc.slots) < n {
		sc.slots = make([]any, n)
	}
	return &sc.slots[ci]
}

// collected returns the worker's piece lists for a stage of n outputs, each
// empty.
func (sc *workerScratch) collected(n int) [][]any {
	for len(sc.pieces) < n {
		sc.pieces = append(sc.pieces, nil)
	}
	for oi := range sc.pieces {
		sc.pieces[oi] = sc.pieces[oi][:0]
	}
	return sc.pieces[:n]
}

// argsFor returns the scratch argument slice for call index ci, sized n.
func (sc *workerScratch) argsFor(ci, n int) []any {
	for len(sc.args) <= ci {
		sc.args = append(sc.args, nil)
	}
	if cap(sc.args[ci]) < n {
		sc.args[ci] = make([]any, n)
	}
	sc.args[ci] = sc.args[ci][:n]
	return sc.args[ci]
}

func (p *sessionPools) getScratch() *workerScratch {
	if sc, ok := p.scratch.Get().(*workerScratch); ok {
		return sc
	}
	return &workerScratch{
		env:   map[int]any{},
		out:   map[int]any{},
		views: map[viewKey]any{},
	}
}

func (p *sessionPools) putScratch(sc *workerScratch) {
	clear(sc.env)
	clear(sc.out)
	for oi, pieces := range sc.pieces {
		p.scrub(pieces)
		sc.pieces[oi] = pieces[:0]
	}
	for _, args := range sc.args {
		p.scrub(args)
	}
	p.scrub(sc.slots)
	// sc.views intentionally survives: entries are revalidated on reuse.
	p.scratch.Put(sc)
}

// scrub empties a buffer on its way back to a pool: every slot nil, or the
// sentinel under poison mode.
func (p *sessionPools) scrub(buf []any) {
	var empty any
	if p.poison {
		empty = poisonedBuffer{}
	}
	for i := range buf {
		buf[i] = empty
	}
}

// getOuts returns a []workerOut of length n with no errors and empty
// partials, whose storage runWorker reuses.
func (p *sessionPools) getOuts(n int) []workerOut {
	if bp, ok := p.outs.Get().(*[]workerOut); ok && cap(*bp) >= n {
		return (*bp)[:n]
	}
	return make([]workerOut, n)
}

// putOuts hands back a merged stage's worker results, partials included.
func (p *sessionPools) putOuts(buf []workerOut) {
	for i := range buf {
		p.scrub(buf[i].partials)
		buf[i] = workerOut{partials: buf[i].partials[:0]}
	}
	p.outs.Put(&buf)
}

// getAnys returns a zeroed []any of length n.
func (p *sessionPools) getAnys(n int) []any {
	if bp, ok := p.anys.Get().(*[]any); ok && cap(*bp) >= n {
		buf := (*bp)[:n]
		for i := range buf {
			buf[i] = nil
		}
		return buf
	}
	return make([]any, n)
}

func (p *sessionPools) putAnys(buf []any) {
	p.scrub(buf)
	p.anys.Put(&buf)
}

// resize returns buf with length n and every slot nil, reusing its storage
// when it is large enough.
func resize(buf []any, n int) []any {
	if cap(buf) < n {
		return make([]any, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
