package core

import "strings"

// SplitterCaps is the unified capability bitset for the optional splitter
// extensions. The Splitter surface grew one optional interface per PR
// (InPlacer, SplitterAt, PieceCodec, now ViewSplitter); SplitterCaps folds
// their discovery into a single probe so the executor, planner, streaming
// path, and checksuite consult one lattice instead of scattering type
// assertions. The bits are independent — a splitter may hold any subset —
// but in practice CapView implies CapInPlace (a view's pieces alias the
// source by definition).
type SplitterCaps uint32

const (
	// CapInPlace: pieces alias the source's storage, so mutations to pieces
	// are already visible in the original value and the runtime skips
	// collecting and merging mutated pieces (InPlacer).
	CapInPlace SplitterCaps = 1 << iota
	// CapView: the splitter can produce pieces into caller-provided reuse
	// slots without allocating (ViewSplitter.SplitView), making the
	// split→call hot loop allocation-free in steady state.
	CapView
	// CapWindow: the splitter can produce bounded window views for
	// out-of-core streaming (SplitterAt.SplitAt).
	CapWindow
	// CapCodec: the splitter can encode/decode pieces to byte frames for
	// spilling (PieceCodec).
	CapCodec
	// CapPlace: the splitter can allocate a full-size merged value up front
	// and copy each batch's piece into its element range (PlaceSplitter), so
	// workers assemble an output in parallel instead of collecting pieces
	// for Merge.
	CapPlace
)

// Has reports whether every bit in want is set.
func (c SplitterCaps) Has(want SplitterCaps) bool { return c&want == want }

// String renders the set bits as "inplace|view|window|codec|place" (empty string
// for the zero set). The rendering is stable; Explain output embeds it, once
// per stage input of every plan, so all 32 sets are rendered up front.
func (c SplitterCaps) String() string { return capsNames[c&(1<<5-1)] }

var capsNames = func() (names [1 << 5]string) {
	for i := range names {
		c := SplitterCaps(i)
		parts := make([]string, 0, 5)
		if c.Has(CapInPlace) {
			parts = append(parts, "inplace")
		}
		if c.Has(CapView) {
			parts = append(parts, "view")
		}
		if c.Has(CapWindow) {
			parts = append(parts, "window")
		}
		if c.Has(CapCodec) {
			parts = append(parts, "codec")
		}
		if c.Has(CapPlace) {
			parts = append(parts, "place")
		}
		names[i] = strings.Join(parts, "|")
	}
	return names
}()

// ViewSplitter is the zero-copy split capability (CapView). SplitView is
// Split with an explicit reuse slot: when reuse already is the requested
// piece — same source storage, same [start, end) range — the splitter
// returns reuse itself unchanged, so the boxed interface value is recycled
// and the steady-state hot loop performs zero allocations. Otherwise the
// splitter either rewrites reuse's fields in place (pointer-shaped pieces
// such as *imagelib.Image or *vmath.Matrix) or builds a fresh view of v's
// storage (slice-shaped pieces). Pieces returned by SplitView MUST alias
// v's storage; the checksuite verifies this by pointer identity.
type ViewSplitter interface {
	Splitter
	SplitView(v any, t SplitType, start, end int64, reuse any) (any, error)
}

// PlaceSplitter is the placed-output capability (CapPlace) for split types
// whose piece over [start, end) holds exactly end-start elements of the
// merged value. AllocMerged returns an empty merged value of total elements,
// shaped like exemplar (any one piece); Place copies piece into dst's
// [start, end) and must refuse a piece of any other length. The runtime
// calls AllocMerged once per output and Place once per batch, concurrently
// from several workers over disjoint ranges, then uses dst as the output:
// once every range is placed dst must equal Merge of the same pieces
// (optional parts such as null masks present iff some piece carried one),
// and it must not alias any piece.
type PlaceSplitter interface {
	Splitter
	AllocMerged(exemplar any, t SplitType, total int64) (dst any, err error)
	Place(dst, piece any, t SplitType, start, end int64) error
}

// CapsDeclarer lets a splitter declare its capability set explicitly,
// overriding interface-based derivation. Wrappers (e.g. faultinject's
// splitter shim) must satisfy every optional interface statically to be
// able to delegate, which would make plain interface assertions report
// capabilities the wrapped splitter lacks; declaring caps restores the
// truth. A declarer's set must be consistent with the methods that are
// actually callable — the runtime trusts the declaration.
type CapsDeclarer interface {
	SplitterCaps() SplitterCaps
}

// CapabilitiesOf probes a splitter's capability set. Splitters that
// implement CapsDeclarer are taken at their word; for everyone else the
// set derives from the optional interfaces (InPlacer, ViewSplitter,
// SplitterAt, PieceCodec, PlaceSplitter). This is the single discovery point: runtime
// code gates on the returned bits and only then asserts the concrete
// interface to invoke it.
func CapabilitiesOf(s Splitter) SplitterCaps {
	if s == nil {
		return 0
	}
	if d, ok := s.(CapsDeclarer); ok {
		return d.SplitterCaps()
	}
	var c SplitterCaps
	if ip, ok := s.(InPlacer); ok && ip.InPlace() {
		c |= CapInPlace
	}
	if _, ok := s.(ViewSplitter); ok {
		c |= CapView
	}
	if _, ok := s.(SplitterAt); ok {
		c |= CapWindow
	}
	if _, ok := s.(PieceCodec); ok {
		c |= CapCodec
	}
	if _, ok := s.(PlaceSplitter); ok {
		c |= CapPlace
	}
	return c
}
