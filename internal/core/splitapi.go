package core

import (
	"fmt"
	"reflect"
	"sync"
)

// RuntimeInfo is filled in by a splitter's Info function (§5.2 Step 1). It
// tells the runtime how many split units ("elements") a value contains and
// how many bytes each occupies, which drives batch-size selection.
type RuntimeInfo struct {
	// Elems is the total number of split units the value will produce
	// (array elements, matrix rows, DataFrame rows, image rows, ...).
	Elems int64
	// ElemBytes is the size in bytes of one split unit.
	ElemBytes int64
}

// Splitter is the splitting API annotators implement per split type (§3.3,
// Table 1). A Splitter bridges the SplitType abstraction with code that
// actually partitions and reassembles a concrete data type.
type Splitter interface {
	// Info relays runtime sizing information for value v, which has split
	// type t, to the runtime.
	Info(v any, t SplitType) (RuntimeInfo, error)
	// Split returns the piece of v covering element range [start, end).
	// Pieces may alias v's storage (zero-copy) or be copies; aliasing
	// splitters should also implement InPlacer.
	Split(v any, t SplitType, start, end int64) (any, error)
	// Merge coalesces pieces into a single value. Merge must be
	// associative (§3.4). For reduction split types this is where partial
	// results are combined.
	Merge(pieces []any, t SplitType) (any, error)
}

// InPlacer is an optional interface for splitters whose pieces alias the
// original value's storage (e.g. sub-slices). For such splitters, mutations
// to pieces are already visible in the original value and the runtime skips
// collecting and merging mutated pieces.
type InPlacer interface {
	InPlace() bool
}

// SplitterAt is the chunked-split extension of Splitter for out-of-core
// streaming (the Governor's OutOfCore pressure level). SplitAt returns a
// window view of v covering element range [start, end): a value of the same
// logical kind as v that the runtime can Split/Info like any full input,
// but whose materialized footprint is bounded by the window — either an
// alias of v's storage or, for generator-backed inputs, a sub-generator
// that synthesizes only its own window. When every split input of a stage
// implements SplitterAt, each out-of-core window runs over views of its
// inputs, so only the in-flight window's pieces ever exist.
type SplitterAt interface {
	Splitter
	SplitAt(v any, t SplitType, start, end int64) (any, error)
}

// PieceCodec is the optional spill extension of Splitter. An out-of-core
// stage encodes each window's piece of the output into a byte frame, spills
// it to the CRC-checked temp-file store (internal/spill), and decodes the
// frames back in order at the stage's finale, so the windows' pieces stay
// off the heap until then. Encode/Decode must round-trip: Decode(Encode(p))
// merges equal to p.
//
// Both directions take a buffer back from the caller. EncodePiece writes the
// frame into buf's storage when it fits (and allocates otherwise); the
// runtime hands it the previous window's frame, which the spill store has
// already written out. DecodePiece may decode into reuse when it fits — the
// runtime hands it the previous frame's piece once that has been copied into
// the stage's destination, or nil — and must never alias frame, whose
// storage the replay reuses for the next frame.
type PieceCodec interface {
	EncodePiece(buf []byte, piece any, t SplitType) ([]byte, error)
	DecodePiece(frame []byte, t SplitType, reuse any) (any, error)
}

// Ctor is a split type constructor (§3.2, "Split Type Constructors"): it
// maps the values of a call's arguments to the split type's parameters.
// args holds the captured argument values in positional order; entries for
// lazy values that have not been computed yet are nil. Constructors must not
// modify their arguments.
type Ctor func(args []any) (SplitType, error)

// FixedCtor returns a constructor that ignores the arguments and always
// yields the given split type.
func FixedCtor(t SplitType) Ctor {
	return func([]any) (SplitType, error) { return t, nil }
}

// defaultSplit describes the fallback split behaviour for one concrete data
// type, used when type inference cannot pin down a generic (§5.1: "Mozart
// falls back to a default for the data type: annotators provide a default
// split type constructor per data type").
type defaultSplit struct {
	splitter Splitter
	ctor     func(v any) (SplitType, error)
}

var (
	defaultsMu sync.RWMutex
	defaults   = map[reflect.Type]defaultSplit{}
)

// RegisterDefaultSplit registers the default splitter and split type
// constructor for values of the same dynamic type as sample. The constructor
// receives the value itself (not the full argument list).
func RegisterDefaultSplit(sample any, s Splitter, ctor func(v any) (SplitType, error)) {
	defaultsMu.Lock()
	defer defaultsMu.Unlock()
	defaults[reflect.TypeOf(sample)] = defaultSplit{splitter: s, ctor: ctor}
}

// lookupDefaultSplit finds the registered default for v's dynamic type.
func lookupDefaultSplit(v any) (defaultSplit, bool) {
	if v == nil {
		return defaultSplit{}, false
	}
	defaultsMu.RLock()
	defer defaultsMu.RUnlock()
	d, ok := defaults[reflect.TypeOf(v)]
	return d, ok
}

// DefaultSplitFor resolves the registered default splitter and split type
// for v, the resolution a generic parameter gets at plan time; annotation
// test suites use it to reach the splitter behind a generic.
func DefaultSplitFor(v any) (Splitter, SplitType, error) {
	d, ok := lookupDefaultSplit(v)
	if !ok {
		return nil, SplitType{}, fmt.Errorf("mozart: no default split type registered for %T", v)
	}
	t, err := d.ctor(v)
	return d.splitter, t, err
}

// CheckSameElems verifies that all infos agree on the element count, the
// §3.4 requirement that all split functions produce the same number of
// splits for a given function.
func CheckSameElems(infos []RuntimeInfo) (int64, error) {
	if len(infos) == 0 {
		return 0, nil
	}
	n := infos[0].Elems
	for _, in := range infos[1:] {
		if in.Elems != n {
			return 0, fmt.Errorf("mozart: split inputs disagree on element count: %d vs %d", n, in.Elems)
		}
	}
	return n, nil
}
