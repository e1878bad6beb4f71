package checksuite_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mozart/internal/annotations/checksuite"
	"mozart/internal/annotations/framesa"
	"mozart/internal/annotations/gensa"
	"mozart/internal/annotations/imagesa"
	"mozart/internal/annotations/nlpsa"
	"mozart/internal/annotations/tensorsa"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
	"mozart/internal/frame"
)

// allCases lists every annotation package's check cases.
func allCases() []struct {
	pkg   string
	cases []checksuite.Case
} {
	return []struct {
		pkg   string
		cases []checksuite.Case
	}{
		{"vmathsa", vmathsa.CheckCases()},
		{"tensorsa", tensorsa.CheckCases()},
		{"framesa", framesa.CheckCases()},
		{"nlpsa", nlpsa.CheckCases()},
		{"imagesa", imagesa.CheckCases()},
		{"gensa", gensa.CheckCases()},
	}
}

// TestEveryAnnotationPackagePassesCheckAnnotation fuzz-checks the §3.4
// soundness condition for every registered annotation package in one
// table: each package contributes its Func/Annotation pairs via
// CheckCases(), and a package exporting no cases is itself a failure so a
// new integration cannot silently opt out of the suite.
func TestEveryAnnotationPackagePassesCheckAnnotation(t *testing.T) {
	for _, g := range allCases() {
		if len(g.cases) == 0 {
			t.Errorf("%s: no check cases exported", g.pkg)
			continue
		}
		for _, c := range g.cases {
			t.Run(g.pkg+"/"+c.Name, func(t *testing.T) {
				spec := c.CheckSpec
				if spec.Config.Seed == 0 {
					spec.Config.Seed = int64(len(c.Name)) * 1031
				}
				if err := core.CheckAnnotation(spec); err != nil {
					t.Errorf("%s: %v", c.Name, err)
				}
			})
		}
	}
}

// TestPlaceMatchesMerge checks the CapPlace contract for every split
// parameter of every check case whose splitter declares it (a generic
// parameter resolves to its data type's default splitter, as at plan time):
// at random cut points, placing the pieces — in any order, from any
// exemplar — into AllocMerged's destination deep-equals Merge of the same
// pieces, including a null mask that is present iff some piece carried one;
// a piece of the wrong length, or past the end, is refused; and the
// destination shares no storage with the pieces.
func TestPlaceMatchesMerge(t *testing.T) {
	checked := 0
	for _, g := range allCases() {
		for _, c := range g.cases {
			for i, p := range c.Annotation.Params {
				name := fmt.Sprintf("%s/%s/%s", g.pkg, c.Name, p.Name)
				rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
				for trial := 0; trial < 8; trial++ {
					args := c.Gen(rng.Int63())
					sp, st, ok := paramSplitter(p, args, i)
					if !ok || !core.CapabilitiesOf(sp).Has(core.CapPlace) {
						break
					}
					ps, ok := sp.(core.PlaceSplitter)
					if !ok {
						t.Fatalf("%s: splitter %T declares CapPlace but implements no Place", name, sp)
					}
					if err := checkPlace(ps, args[i], st, rng); err != nil {
						t.Fatalf("%s: trial %d: %v", name, trial, err)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no check case exercises a CapPlace splitter")
	}
}

// TestFuncIntoContract checks, for every check case registered through
// CallInto, what the runtime takes on trust when it hands a call one of its
// earlier pieces as a destination (core.FuncInto): whatever it is offered — an
// earlier result of its own that is larger, the same size or smaller, an
// earlier result of any other case (another dtype, a scalar), values of other
// Go types — the function returns exactly what it returns when offered
// nothing; the result shares its backing arrays with the destination when the
// destination had the room, with none of it otherwise, and never with an
// argument. Destinations are dirty: they were computed from other data.
func TestFuncIntoContract(t *testing.T) {
	type intoCase struct {
		name string
		checksuite.Case
	}
	var cases []intoCase
	for _, g := range allCases() {
		for _, c := range g.cases {
			if c.FnInto != nil {
				cases = append(cases, intoCase{g.pkg + "/" + c.Name, c})
			}
		}
	}
	if len(cases) == 0 {
		t.Fatal("no check case is registered through CallInto")
	}
	// result runs c offered nothing, over the first num/den of the rows of
	// the arguments generated for seed.
	result := func(c intoCase, seed int64, num, den int64) (args []any, ret any) {
		t.Helper()
		args = c.Gen(seed)
		if num != den {
			args = leadingRows(t, c.Case, args, num, den)
		}
		ret, err := c.FnInto(args, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return args, ret
	}
	const (
		shares = iota // the destination has the room: the result is its storage
		fresh         // it has not: the result shares nothing with it
		either        // all of it or none of it, never a part
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} { // framesa: without and with a null mask
				offer := func(what string, num, den int64, out any, expect int) {
					t.Helper()
					args, want := result(c, seed, num, den)
					before := shallowCopy(out)
					got, err := c.FnInto(args, out)
					if err != nil {
						t.Fatalf("seed %d, offered %s: %v", seed, what, err)
					}
					if g, w := render(got), render(want); g != w {
						t.Fatalf("seed %d, offered %s: result differs from the one computed with no destination:\n got %s\nwant %s", seed, what, g, w)
					}
					for i, a := range args {
						if _, some := core.SharedStorage(got, a); some {
							t.Fatalf("seed %d, offered %s: result shares storage with argument %d", seed, what, i)
						}
					}
					every, some := core.SharedStorage(got, before)
					if _, buffers := core.SharedStorage(got, got); !buffers {
						return // a scalar has no storage to share
					}
					switch {
					case expect == shares && !every:
						t.Fatalf("seed %d, offered %s: the destination had the room but the result is not its storage", seed, what)
					case expect == fresh && some:
						t.Fatalf("seed %d, offered %s: the destination did not fit but the result shares storage with it", seed, what)
					case some && !every:
						t.Fatalf("seed %d, offered %s: the result shares storage with part of the destination", seed, what)
					}
				}
				_, whole := result(c, seed+100, 1, 1)
				offer("a larger earlier result", 1, 2, whole, shares)
				_, whole = result(c, seed+100, 1, 1)
				offer("an earlier result of the same size", 1, 1, whole, shares)
				_, third := result(c, seed+100, 1, 3)
				offer("a smaller earlier result", 1, 1, third, fresh)
				for _, other := range cases {
					if other.name != c.name {
						_, foreign := result(other, seed+200, 1, 1)
						offer("a result of "+other.name, 1, 1, foreign, either)
					}
				}
				for _, foreign := range []any{7, "seven", []float64{1, 2, 3}, struct{}{}, (*frame.Series)(nil), &frame.DataFrame{}} {
					offer(fmt.Sprintf("a %T", foreign), 1, 1, foreign, fresh)
				}
			}
		})
	}
}

// leadingRows splits every split argument of a case down to its first
// num/den of the rows, the way the runtime would cut a batch.
func leadingRows(t *testing.T, c checksuite.Case, args []any, num, den int64) []any {
	t.Helper()
	out := make([]any, len(args))
	for i, p := range c.Annotation.Params {
		sp, st, ok := paramSplitter(p, args, i)
		if !ok {
			out[i] = args[i] // a whole ("_") argument
			continue
		}
		info, err := sp.Info(args[i], st)
		if err == nil {
			out[i], err = sp.Split(args[i], st, 0, info.Elems*num/den)
		}
		if err != nil {
			t.Fatalf("%s: splitting %s: %v", c.Name, p.Name, err)
		}
	}
	return out
}

// shallowCopy copies the value a pointer points at, so that what its fields
// referred to before a call can be compared with what the call returned even
// when the call rewrote the value in place. Other values are returned as is.
func shallowCopy(v any) any {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return v
	}
	c := reflect.New(rv.Type().Elem())
	c.Elem().Set(rv.Elem())
	return c.Interface()
}

// render prints a result bit for bit (NaN equal to itself), following one
// pointer.
func render(v any) string {
	if rv := reflect.ValueOf(v); rv.Kind() == reflect.Pointer && !rv.IsNil() {
		v = rv.Elem().Interface()
	}
	return fmt.Sprintf("%T%+v", v, v)
}

// paramSplitter resolves the splitter and split type of one annotated
// parameter the way the planner does for a fresh input.
func paramSplitter(p core.Param, args []any, i int) (core.Splitter, core.SplitType, bool) {
	switch p.Type.Kind {
	case core.KindConcrete:
		st, err := p.Type.Ctor(args)
		return p.Type.Splitter, st, err == nil
	case core.KindGeneric:
		sp, st, err := core.DefaultSplitFor(args[i])
		return sp, st, err == nil
	}
	return nil, core.SplitType{}, false
}

func checkPlace(ps core.PlaceSplitter, v any, st core.SplitType, rng *rand.Rand) error {
	info, err := ps.Info(v, st)
	if err != nil {
		return err
	}
	total := info.Elems
	if total < 4 {
		return fmt.Errorf("value has %d elements, need >= 4 to cut", total)
	}
	cuts := []int64{0, total}
	for k := rng.Intn(6); k >= 0; k-- {
		cuts = append(cuts, 1+rng.Int63n(total-1))
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)

	// Three mask shapes over the same cut points: as split, no piece with a
	// mask, and alternating (frame types only; others repeat the first).
	for _, shape := range []string{"split", "unmasked", "mixed"} {
		pieces := make([]any, len(cuts)-1)
		for j := range pieces {
			piece, err := ps.Split(v, st, cuts[j], cuts[j+1])
			if err != nil {
				return err
			}
			if shape == "unmasked" || (shape == "mixed" && j%2 == 0) {
				piece = withoutMask(piece)
			}
			pieces[j] = piece
		}
		want, err := ps.Merge(pieces, st)
		if err != nil {
			return fmt.Errorf("%s: Merge: %w", shape, err)
		}
		got, err := ps.AllocMerged(pieces[rng.Intn(len(pieces))], st, total)
		if err != nil {
			return fmt.Errorf("%s: AllocMerged: %w", shape, err)
		}
		for _, j := range rng.Perm(len(pieces)) {
			if err := ps.Place(got, pieces[j], st, cuts[j], cuts[j+1]); err != nil {
				return fmt.Errorf("%s: Place [%d,%d): %w", shape, cuts[j], cuts[j+1], err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s: placed value differs from Merge at cuts %v:\n got %+v\nwant %+v", shape, cuts, got, want)
		}

		// Wrong length and out of range are refused.
		if err := ps.Place(got, pieces[0], st, cuts[0], cuts[1]+1); err == nil {
			return fmt.Errorf("%s: Place accepted a %d-element piece for [%d,%d)", shape, cuts[1], cuts[0], cuts[1]+1)
		}
		last := len(pieces) - 1
		if err := ps.Place(got, pieces[last], st, cuts[last]+1, total+1); err == nil {
			return fmt.Errorf("%s: Place accepted a range past the end", shape)
		}

		// No aliasing: scribbling over every piece changes what Merge sees
		// but not the value already placed.
		before, err := json.Marshal(got)
		if err != nil {
			return err
		}
		for _, piece := range pieces {
			scribble(reflect.ValueOf(piece))
		}
		scribbled, err := ps.Merge(pieces, st)
		if err != nil {
			return err
		}
		after, _ := json.Marshal(got)
		if changed, _ := json.Marshal(scribbled); bytes.Equal(changed, before) {
			return fmt.Errorf("%s: scribble did not change the pieces; the aliasing check is vacuous", shape)
		}
		if !bytes.Equal(before, after) {
			return fmt.Errorf("%s: mutating a piece after Place changed the destination (dst aliases its pieces)", shape)
		}
	}
	return nil
}

// withoutMask returns a shallow copy of a frame piece with its null masks
// dropped (same data buffers); other piece types are returned unchanged.
func withoutMask(piece any) any {
	switch p := piece.(type) {
	case *frame.Series:
		c := *p
		c.Valid = nil
		return &c
	case *frame.DataFrame:
		out := &frame.DataFrame{Cols: make([]*frame.Series, len(p.Cols))}
		for i, c := range p.Cols {
			out.Cols[i] = withoutMask(c).(*frame.Series)
		}
		return out
	}
	return piece
}

// scribble overwrites the first element of every scalar buffer reachable
// from v through pointers, exported fields and slices.
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			scribble(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				scribble(v.Field(i))
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			return
		}
		e := v.Index(0)
		switch e.Kind() {
		case reflect.Float64:
			e.SetFloat(e.Float() + 1)
		case reflect.Int64:
			e.SetInt(e.Int() + 1)
		case reflect.Bool:
			e.SetBool(!e.Bool())
		case reflect.String:
			e.SetString(e.String() + "!")
		default:
			for i := 0; i < v.Len(); i++ {
				scribble(v.Index(i))
			}
		}
	}
}
