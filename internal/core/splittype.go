package core

import (
	"strconv"
	"sync/atomic"
)

// SplitType is a parameterized type N<V0...Vn> describing how a value is
// split (§3.2). Two split types are equal iff their names and parameter
// values are equal. The runtime guarantees that the number-of-pieces
// parameter mentioned in the paper is uniform across a stage, so it is not
// represented here.
//
// The special "unknown" split type is modeled with a non-zero unique id:
// each unknown is equal only to itself.
type SplitType struct {
	Name      string
	Params    []int64
	unknownID uint64
}

var unknownCounter atomic.Uint64

// NewSplitType returns a concrete split type with the given name and
// parameter values.
func NewSplitType(name string, params ...int64) SplitType {
	return SplitType{Name: name, Params: params}
}

// NewUnknownType returns a fresh unknown split type, equal only to itself
// (§3.2, "Unknown Split Type").
func NewUnknownType() SplitType {
	return SplitType{Name: "unknown", unknownID: unknownCounter.Add(1)}
}

// IsUnknown reports whether t is an unknown split type.
func (t SplitType) IsUnknown() bool { return t.unknownID != 0 }

// IsZero reports whether t is the zero SplitType (no type assigned).
func (t SplitType) IsZero() bool {
	return t.Name == "" && t.Params == nil && t.unknownID == 0
}

// Equal reports whether two split types are equal: same name, same
// parameters, and for unknown types, the same unique identity.
func (t SplitType) Equal(o SplitType) bool {
	if t.unknownID != 0 || o.unknownID != 0 {
		return t.unknownID == o.unknownID
	}
	if t.Name != o.Name || len(t.Params) != len(o.Params) {
		return false
	}
	for i := range t.Params {
		if t.Params[i] != o.Params[i] {
			return false
		}
	}
	return true
}

// String renders the split type as Name<p0, p1, ...> (unknown#N for an
// unknown), in one allocation.
func (t SplitType) String() string {
	if t.IsZero() {
		return "<none>"
	}
	var buf [64]byte
	if t.unknownID != 0 {
		return string(strconv.AppendUint(append(buf[:0], "unknown#"...), t.unknownID, 10))
	}
	if len(t.Params) == 0 {
		return t.Name
	}
	b := append(buf[:0], t.Name...)
	b = append(b, '<')
	for i, p := range t.Params {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendInt(b, p, 10)
	}
	b = append(b, '>')
	return string(b)
}
