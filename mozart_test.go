package mozart_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mozart"
)

// The tests in this file use only the public facade, the way a downstream
// user would: define a custom data type, implement the splitting API for
// it, annotate two black-box functions, and run them under the runtime.

// wordList is the user's library data type: a list of text records.
type wordList struct {
	words []string
}

// upcaseAll and countLong are the user's existing "library" functions —
// they know nothing about Mozart.
func upcaseAll(w *wordList) *wordList {
	out := &wordList{words: make([]string, len(w.words))}
	for i, s := range w.words {
		out.words[i] = strings.ToUpper(s)
	}
	return out
}

func countLong(w *wordList, min int) int64 {
	var n int64
	for _, s := range w.words {
		if len(s) >= min {
			n++
		}
	}
	return n
}

// wordSplitter is the user's splitting API for wordList: split by record
// ranges (views), merge by concatenation.
type wordSplitter struct{}

func (wordSplitter) InPlace() bool { return true }

func (wordSplitter) Info(v any, t mozart.SplitType) (mozart.RuntimeInfo, error) {
	return mozart.RuntimeInfo{Elems: int64(len(v.(*wordList).words)), ElemBytes: 24}, nil
}

func (wordSplitter) Split(v any, t mozart.SplitType, start, end int64) (any, error) {
	return &wordList{words: v.(*wordList).words[start:end]}, nil
}

func (wordSplitter) Merge(pieces []any, t mozart.SplitType) (any, error) {
	out := &wordList{}
	for _, p := range pieces {
		out.words = append(out.words, p.(*wordList).words...)
	}
	return out, nil
}

// countSplitter merges partial counts by addition.
type countSplitter struct{}

func (countSplitter) Info(v any, t mozart.SplitType) (mozart.RuntimeInfo, error) {
	return mozart.RuntimeInfo{Elems: 1, ElemBytes: 8}, nil
}

func (countSplitter) Split(v any, t mozart.SplitType, start, end int64) (any, error) {
	return nil, fmt.Errorf("counts cannot be split")
}

func (countSplitter) Merge(pieces []any, t mozart.SplitType) (any, error) {
	var n int64
	for _, p := range pieces {
		n += p.(int64)
	}
	return n, nil
}

func wordSplit(argIdx int) mozart.TypeExpr {
	return mozart.Concrete("WordSplit", wordSplitter{}, func(args []any) (mozart.SplitType, error) {
		w := args[argIdx].(*wordList)
		return mozart.NewSplitType("WordSplit", int64(len(w.words))), nil
	})
}

var upcaseSA = &mozart.Annotation{
	FuncName: "upcaseAll",
	Params:   []mozart.Param{{Name: "w", Type: wordSplit(0)}},
	Ret:      func() *mozart.TypeExpr { t := mozart.Generic("S"); return &t }(),
}

var countSA = &mozart.Annotation{
	FuncName: "countLong",
	Params: []mozart.Param{
		{Name: "w", Type: mozart.Generic("S")},
		{Name: "min", Type: mozart.Missing()},
	},
	Ret: func() *mozart.TypeExpr {
		t := mozart.Concrete("CountReduce", countSplitter{}, mozart.FixedCtor(mozart.NewSplitType("CountReduce")))
		return &t
	}(),
}

var upcaseFn mozart.Func = func(args []any) (any, error) {
	return upcaseAll(args[0].(*wordList)), nil
}

var countFn mozart.Func = func(args []any) (any, error) {
	return countLong(args[0].(*wordList), args[1].(int)), nil
}

func init() {
	// The §5.1 fallback: generics over fresh wordList values split this way.
	mozart.RegisterDefaultSplit((*wordList)(nil), wordSplitter{}, func(v any) (mozart.SplitType, error) {
		return mozart.NewSplitType("WordSplit", int64(len(v.(*wordList).words))), nil
	})
}

func makeWords(n int, seed int64) *wordList {
	rng := rand.New(rand.NewSource(seed))
	w := &wordList{words: make([]string, n)}
	vocab := []string{"go", "cache", "pipeline", "annotation", "split", "merge", "runtime", "mozart"}
	for i := range w.words {
		w.words[i] = vocab[rng.Intn(len(vocab))]
	}
	return w
}

// TestPublicAPICustomSplitType: a user-defined split type pipelines two
// black-box functions through the public API.
func TestPublicAPICustomSplitType(t *testing.T) {
	in := makeWords(5000, 1)
	want := countLong(upcaseAll(in), 6)

	s := mozart.NewSession(mozart.Options{Workers: 4, BatchElems: 123})
	up := s.Call(upcaseFn, upcaseSA, in)
	cnt := s.Call(countFn, countSA, up, 6)
	got, err := cnt.Int64()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("count = %d want %d", got, want)
	}
	if st := s.Stats(); st.Stages != 1 {
		t.Errorf("upcase+count should pipeline, got %d stages", st.Stages)
	}
}

// TestPublicAPICheckAnnotation: the soundness checker is reachable from the
// facade and validates the custom annotation.
func TestPublicAPICheckAnnotation(t *testing.T) {
	gen := func(seed int64) []any { return []any{makeWords(700, seed), 6} }
	eq := func(got, want any) bool {
		g, ok := got.(int64)
		w, ok2 := want.(int64)
		return ok && ok2 && g == w
	}
	if err := mozart.CheckAnnotation(mozart.CheckSpec{Fn: countFn, Annotation: countSA, Gen: gen, Eq: eq, Config: mozart.CheckConfig{Seed: 5}}); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIDynamicScheduling: a two-call pipeline over 77-element batches
// at five workers, through the facade, matches the unsplit library. (The name
// is the one the test had when it ran a second, dynamic scheduler.)
func TestPublicAPIDynamicScheduling(t *testing.T) {
	in := makeWords(3000, 2)
	want := countLong(upcaseAll(in), 5)
	s := mozart.NewSession(mozart.Options{Workers: 5, BatchElems: 77})
	got, err := s.Call(countFn, countSA, s.Call(upcaseFn, upcaseSA, in), 5).Int64()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("count = %d want %d", got, want)
	}
}
