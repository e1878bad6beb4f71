package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
)

// CheckConfig configures CheckAnnotation.
type CheckConfig struct {
	// Trials is the number of randomized runs (default 16).
	Trials int
	// MaxWorkers bounds the randomized worker count (default 8).
	MaxWorkers int
	// MaxBatch bounds the randomized batch size in elements (default 1024).
	MaxBatch int64
	// Seed makes the check deterministic.
	Seed int64
}

func (c CheckConfig) withDefaults() CheckConfig {
	if c.Trials <= 0 {
		c.Trials = 16
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 8
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	return c
}

// CheckSpec names everything CheckAnnotation needs: the annotated function,
// its annotation, a deterministic argument generator, an equality predicate,
// and the check configuration. A struct (rather than positional parameters)
// keeps call sites self-describing and lets future knobs ride along without
// breaking them.
type CheckSpec struct {
	// Fn is the function under check, or FnInto when it is registered
	// through CallInto; exactly one is set.
	Fn     Func
	FnInto FuncInto
	// Annotation is Fn's split annotation.
	Annotation *Annotation
	// Gen generates one argument list per seed. It must return an
	// independent but identical list when called twice with the same seed,
	// so the whole and split runs see equal inputs.
	Gen func(seed int64) []any
	// Eq compares a split-run result (return value or mut argument) against
	// the whole-run reference.
	Eq func(got, want any) bool
	// Config tunes trials, randomization bounds, and the seed.
	Config CheckConfig
}

// whole runs the function under check once over args, the way the runtime
// runs a call it does not split: a destination-taking function is offered
// no destination.
func (spec CheckSpec) whole(args []any) (any, error) {
	if spec.FnInto != nil {
		return spec.FnInto(args, nil)
	}
	return spec.Fn(args)
}

// CheckAnnotation fuzz-checks the §3.4 soundness condition of a split
// annotation:
//
//	F(a, b, ...) = Merge(F(a1, b1, ...), F(a2, b2, ...), ...)
//
// It repeatedly generates arguments with spec.Gen, runs the function whole,
// runs it again under the runtime with a randomized worker count and batch
// size, and compares the results — the return value and every mut argument —
// with spec.Eq.
//
// This is the tooling the paper's §7.1 calls for ("tools that could
// formally prove an SA's compatibility with a function would be helpful...
// we also fuzz tested our annotated functions"): it cannot prove
// soundness, but it reliably catches annotations like a row-split over a
// function with cross-row behaviour (see the imagesa Blur tests).
func CheckAnnotation(spec CheckSpec) error {
	sa, gen, eq := spec.Annotation, spec.Gen, spec.Eq
	if (spec.Fn == nil) == (spec.FnInto == nil) {
		return fmt.Errorf("mozart: check: %s: exactly one of Fn and FnInto must be set", sa.FuncName)
	}
	if err := sa.Validate(); err != nil {
		return err
	}
	cfg := spec.Config.withDefaults()
	if err := checkViewCaps(spec, cfg); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for trial := 0; trial < cfg.Trials; trial++ {
		seed := cfg.Seed + int64(trial)*7919
		wholeArgs := gen(seed)
		splitArgs := gen(seed)
		if len(wholeArgs) != len(sa.Params) || len(splitArgs) != len(sa.Params) {
			return fmt.Errorf("mozart: check: gen returned %d args, annotation has %d params", len(wholeArgs), len(sa.Params))
		}

		wantRet, err := spec.whole(wholeArgs)
		if err != nil {
			return fmt.Errorf("mozart: check: trial %d: whole run failed: %w", trial, err)
		}

		workers := 1 + rng.Intn(cfg.MaxWorkers)
		batch := 1 + rng.Int63n(cfg.MaxBatch)
		s := NewSession(Options{Workers: workers, BatchElems: batch, Pedantic: true})
		mutFuts := make([]*Future, len(sa.Params))
		for i, p := range sa.Params {
			if p.Mut {
				mutFuts[i] = s.Track(splitArgs[i])
			}
		}
		callArgs := make([]any, len(splitArgs))
		copy(callArgs, splitArgs)
		var retFut *Future
		if spec.FnInto != nil {
			retFut = s.CallInto(spec.FnInto, sa, callArgs...)
		} else {
			retFut = s.Call(spec.Fn, sa, callArgs...)
		}
		if err := s.EvaluateContext(context.Background()); err != nil {
			return fmt.Errorf("mozart: check: trial %d (workers=%d batch=%d): %w", trial, workers, batch, err)
		}

		if sa.Ret != nil {
			got, err := retFut.Get()
			if err != nil {
				return fmt.Errorf("mozart: check: trial %d: reading result: %w", trial, err)
			}
			if !eq(got, wantRet) {
				return fmt.Errorf("mozart: check: trial %d (workers=%d batch=%d): split result differs from whole run — the annotation is unsound for %s", trial, workers, batch, sa.FuncName)
			}
		}
		for i, p := range sa.Params {
			if !p.Mut {
				continue
			}
			got, err := mutFuts[i].Get()
			if err != nil {
				return fmt.Errorf("mozart: check: trial %d: reading mut arg %s: %w", trial, p.Name, err)
			}
			if !eq(got, wholeArgs[i]) {
				return fmt.Errorf("mozart: check: trial %d (workers=%d batch=%d): mut argument %s differs from whole run — the annotation is unsound for %s", trial, workers, batch, p.Name, sa.FuncName)
			}
		}
	}
	return nil
}

// checkViewCaps verifies the CapView contract for every concrete parameter
// whose splitter declares it: SplitView pieces must alias the source's
// storage (pointer containment of every backing array), must agree with the
// plain Split over the same range, and the reuse slot must round-trip — a
// retargeted reuse piece still aliases the source, and mutating through a
// view is visible in the source. An aliasing violation is an annotation bug
// the executor cannot detect at run time (it would silently decay zero-copy
// to copies, or worse, drop writes), so the checker rejects it up front.
func checkViewCaps(spec CheckSpec, cfg CheckConfig) error {
	sa := spec.Annotation
	args := spec.Gen(cfg.Seed + 104729)
	if len(args) != len(sa.Params) {
		return nil // the trial loop reports the arity mismatch
	}
	for i, p := range sa.Params {
		if p.Type.Kind != KindConcrete {
			continue
		}
		sp := p.Type.Splitter
		if !CapabilitiesOf(sp).Has(CapView) {
			continue
		}
		vs, ok := sp.(ViewSplitter)
		if !ok {
			return fmt.Errorf("mozart: check: %s: param %s: splitter declares CapView but implements no SplitView", sa.FuncName, p.Name)
		}
		t, err := p.Type.Ctor(args)
		if err != nil {
			continue
		}
		v := args[i]
		info, err := sp.Info(v, t)
		if err != nil || info.Elems < 2 {
			continue
		}
		mid := info.Elems / 2
		fail := func(detail string, err error) error {
			if err != nil {
				return fmt.Errorf("mozart: check: %s: param %s: %s: %w", sa.FuncName, p.Name, detail, err)
			}
			return fmt.Errorf("mozart: check: %s: param %s: %s", sa.FuncName, p.Name, detail)
		}

		// A fresh view must alias the source and match the plain split.
		a, err := vs.SplitView(v, t, 0, mid, nil)
		if err != nil {
			return fail("SplitView failed", err)
		}
		if !viewAliases(a, v) {
			return fail("SplitView piece does not alias the source (CapView requires aliasing views)", nil)
		}
		ref, err := sp.Split(v, t, 0, mid)
		if err != nil {
			return fail("Split failed", err)
		}
		if !reflect.DeepEqual(a, ref) {
			return fail("SplitView piece differs from Split over the same range", nil)
		}

		// Retargeting the reuse slot at a different range must still alias
		// and still match the plain split.
		b, err := vs.SplitView(v, t, mid, info.Elems, a)
		if err != nil {
			return fail("SplitView with reuse failed", err)
		}
		if !viewAliases(b, v) {
			return fail("reused SplitView piece does not alias the source", nil)
		}
		ref2, err := sp.Split(v, t, mid, info.Elems)
		if err != nil {
			return fail("Split failed", err)
		}
		if !reflect.DeepEqual(b, ref2) {
			return fail("reused SplitView piece differs from Split over the same range", nil)
		}

		// Identical-range reuse must be stable (the zero-alloc fast path).
		c, err := vs.SplitView(v, t, mid, info.Elems, b)
		if err != nil {
			return fail("identical-range SplitView with reuse failed", err)
		}
		if !reflect.DeepEqual(c, ref2) {
			return fail("identical-range SplitView reuse corrupted the piece", nil)
		}

		// Writes through a view must land in the source (the round-trip
		// under mutation the in-place write-back path depends on).
		if !mutationVisible(c, v) {
			return fail("mutation through a SplitView piece is not visible in the source", nil)
		}
	}
	return nil
}

// bufferRange is one backing array reachable from a value: the slice itself
// plus its [base, base+n*size) address range.
type bufferRange struct {
	val  reflect.Value
	base uintptr
	size uintptr
	n    int
}

// collectBuffers gathers the backing arrays of every non-empty slice
// reachable through pointers, exported struct fields, interfaces, and
// pointer/struct slice elements, to a bounded depth.
func collectBuffers(rv reflect.Value, depth int, out *[]bufferRange) {
	if depth > 6 || !rv.IsValid() {
		return
	}
	switch rv.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !rv.IsNil() {
			collectBuffers(rv.Elem(), depth+1, out)
		}
	case reflect.Struct:
		for i := 0; i < rv.NumField(); i++ {
			if rv.Type().Field(i).IsExported() {
				collectBuffers(rv.Field(i), depth+1, out)
			}
		}
	case reflect.Slice:
		if rv.Len() == 0 {
			return
		}
		*out = append(*out, bufferRange{val: rv, base: rv.Pointer(), size: rv.Type().Elem().Size(), n: rv.Len()})
		switch rv.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Struct, reflect.Interface:
			for i := 0; i < rv.Len(); i++ {
				collectBuffers(rv.Index(i), depth+1, out)
			}
		}
	}
}

// contains reports whether p's address range lies within s's.
func (s bufferRange) contains(p bufferRange) bool {
	return p.size == s.size && p.base >= s.base &&
		p.base+uintptr(p.n)*p.size <= s.base+uintptr(s.n)*s.size
}

// overlaps reports whether the two address ranges share a byte.
func (s bufferRange) overlaps(p bufferRange) bool {
	return p.base < s.base+uintptr(s.n)*s.size && s.base < p.base+uintptr(p.n)*p.size
}

// SharedStorage relates the backing arrays reachable from a — through
// pointers, exported fields and slices — to those reachable from b, by
// address: every reports that a has backing arrays and each lies within one
// of b's (a is a view of b), some that at least one overlaps one of b's.
// Annotation test suites use it to check what the runtime has to take on
// trust: that a CapView piece aliases its source, and that a FuncInto result
// is its destination's storage or fresh, never an argument's.
func SharedStorage(a, b any) (every, some bool) {
	var ab, bb []bufferRange
	collectBuffers(reflect.ValueOf(a), 0, &ab)
	collectBuffers(reflect.ValueOf(b), 0, &bb)
	every = len(ab) > 0
	for _, p := range ab {
		within := false
		for _, s := range bb {
			within = within || s.contains(p)
			some = some || s.overlaps(p)
		}
		every = every && within
	}
	return every, some
}

// viewAliases is the pointer-identity aliasing check for CapView: every
// backing array of piece lies within one of src's.
func viewAliases(piece, src any) bool {
	every, _ := SharedStorage(piece, src)
	return every
}

// mutationVisible pokes the first scalar buffer of piece and reads the same
// memory back through src's containing buffer, restoring the original value
// afterwards. True when the write is observed (or when piece exposes no
// scalar buffer to probe — the aliasing check has already passed).
func mutationVisible(piece, src any) bool {
	var pb, sb []bufferRange
	collectBuffers(reflect.ValueOf(piece), 0, &pb)
	collectBuffers(reflect.ValueOf(src), 0, &sb)
	for _, p := range pb {
		k := p.val.Type().Elem().Kind()
		switch k {
		case reflect.Float64, reflect.Float32, reflect.Int64, reflect.Int32, reflect.Int,
			reflect.Uint64, reflect.Uint32, reflect.Uint8, reflect.Bool:
		default:
			continue
		}
		for _, s := range sb {
			if !s.contains(p) {
				continue
			}
			idx := int((p.base - s.base) / p.size)
			pe := p.val.Index(0)
			se := s.val.Index(idx)
			old := reflect.ValueOf(pe.Interface())
			switch k {
			case reflect.Bool:
				pe.SetBool(!pe.Bool())
			case reflect.Float64, reflect.Float32:
				pe.SetFloat(pe.Float() + 1)
			case reflect.Uint64, reflect.Uint32, reflect.Uint8:
				pe.SetUint(pe.Uint() ^ 1)
			default:
				pe.SetInt(pe.Int() + 1)
			}
			visible := reflect.DeepEqual(se.Interface(), pe.Interface())
			pe.Set(old)
			return visible
		}
	}
	return true
}
