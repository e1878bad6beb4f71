package core

import "fmt"

// TypeKind enumerates the kinds of type expressions that can appear in a
// split annotation (§3.2).
type TypeKind int

const (
	// KindMissing is the "_" type: the argument is not split; the full
	// value is broadcast (copied, usually a pointer copy) to each pipeline.
	KindMissing TypeKind = iota
	// KindConcrete is a named split type with a constructor.
	KindConcrete
	// KindGeneric is a generic such as S: all occurrences of the same name
	// within one SA must resolve to equal split types.
	KindGeneric
	// KindUnknown marks a value whose split type is destroyed by the call
	// (filters etc.). Each resolution produces a fresh unique type.
	KindUnknown
)

// TypeExpr is one type expression inside an annotation.
type TypeExpr struct {
	Kind     TypeKind
	Generic  string   // for KindGeneric
	Splitter Splitter // for KindConcrete
	Ctor     Ctor     // for KindConcrete
	TypeName string   // for KindConcrete: diagnostic name
}

// Missing returns the "_" type expression.
func Missing() TypeExpr { return TypeExpr{Kind: KindMissing} }

// Generic returns a generic type expression with the given name.
func Generic(name string) TypeExpr { return TypeExpr{Kind: KindGeneric, Generic: name} }

// Unknown returns the unknown type expression.
func Unknown() TypeExpr { return TypeExpr{Kind: KindUnknown} }

// Concrete returns a concrete type expression backed by the given splitter
// and constructor.
func Concrete(name string, s Splitter, ctor Ctor) TypeExpr {
	return TypeExpr{Kind: KindConcrete, TypeName: name, Splitter: s, Ctor: ctor}
}

// Param is one annotated function parameter.
type Param struct {
	Name string
	// Mut marks the parameter as mutated by the function; the runtime uses
	// this to add data-dependency edges and to write back merged results
	// for copying splitters.
	Mut  bool
	Type TypeExpr
}

// Annotation is a split annotation over one side-effect-free function
// (Listing 3). Ret is nil for void functions.
type Annotation struct {
	FuncName string
	Params   []Param
	Ret      *TypeExpr
}

// Validate performs the structural checks the paper's annotate tool
// performs: generics used consistently, concrete types fully specified. The
// planner runs it on every call of every plan, so it allocates only to
// report an error.
func (a *Annotation) Validate() error {
	if a == nil {
		return fmt.Errorf("mozart: nil annotation")
	}
	// check names the offending type as where+name ("param "+"x", "return").
	check := func(where, name string, t TypeExpr) error {
		switch t.Kind {
		case KindConcrete:
			if t.Splitter == nil || t.Ctor == nil {
				return fmt.Errorf("mozart: %s: %s%s: concrete split type %q needs a splitter and a constructor", a.FuncName, where, name, t.TypeName)
			}
		case KindGeneric:
			if t.Generic == "" {
				return fmt.Errorf("mozart: %s: %s%s: generic split type needs a name", a.FuncName, where, name)
			}
		}
		return nil
	}
	for i, p := range a.Params {
		if p.Name == "" {
			return fmt.Errorf("mozart: %s: unnamed parameter", a.FuncName)
		}
		for _, q := range a.Params[:i] {
			if q.Name == p.Name {
				return fmt.Errorf("mozart: %s: duplicate parameter name %q", a.FuncName, p.Name)
			}
		}
		if err := check("param ", p.Name, p.Type); err != nil {
			return err
		}
	}
	if a.Ret != nil {
		if err := check("return", "", *a.Ret); err != nil {
			return err
		}
	}
	return nil
}

// Func is the calling convention for registered functions. The runtime
// invokes fn with the (possibly split) argument values in positional order;
// fn returns the produced value, or nil for void functions. Functions must
// be side-effect free apart from mutating arguments marked mut (§2.2).
type Func func(args []any) (any, error)

// FuncInto is the calling convention for a registered function that can
// write its result into storage it is handed (NumPy's out=), registered
// through Session.CallInto. args is as for Func. out is a destination the
// runtime offers: nil, or a value this same call returned for an earlier batch
// that nothing can observe any more — its contents are unspecified, and it may
// be the wrong shape, dtype or even Go type for this batch, so fn must check
// it the way a SplitView checks its reuse slot, build its result in out's
// storage only when out fits, and allocate otherwise. Whole-call execution
// and fallback re-execution pass nil.
//
// Registering a function this way is a promise the runtime relies on: the
// result shares storage with none of the arguments (it is out's storage or
// fresh), and the function keeps no reference to an argument or to out after
// it returns. A function that may return a view of an argument stays on Func.
type FuncInto func(args []any, out any) (any, error)
