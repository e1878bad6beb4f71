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
