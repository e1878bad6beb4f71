package vmathsa_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
	ir "mozart/internal/plan"
)

// divK: out = a / k, where size is split with a and k is the whole size.
var (
	divKFn core.Func = func(args []any) (any, error) {
		m, a, k, out := args[0].(int), args[1].([]float64), args[2].(int), args[3].([]float64)
		for i := 0; i < m; i++ {
			out[i] = a[i] / float64(k)
		}
		return nil, nil
	}
	divKSA = &core.Annotation{FuncName: "divK", Params: []core.Param{
		{Name: "size", Type: vmathsa.SizeSplit(0)},
		{Name: "a", Type: vmathsa.ArraySplit(0)},
		{Name: "k", Type: core.Missing()},
		{Name: "out", Mut: true, Type: vmathsa.ArraySplit(0)},
	}}
)

// mulK: out = a * k, where a and out are split by the length k and k itself
// is broadcast.
var (
	mulKFn core.Func = func(args []any) (any, error) {
		a, out, k := args[0].([]float64), args[1].([]float64), args[2].(int)
		for i := range out {
			out[i] = a[i] * float64(k)
		}
		return nil, nil
	}
	mulKSA = &core.Annotation{FuncName: "mulK", Params: []core.Param{
		{Name: "a", Type: vmathsa.ArraySplit(2)},
		{Name: "out", Mut: true, Type: vmathsa.ArraySplit(2)},
		{Name: "k", Type: core.Missing()},
	}}
)

// incr: out = a + 1 over size elements; incrMutSA declares size mut.
var (
	incrFn core.Func = func(args []any) (any, error) {
		m, a, out := args[0].(int), args[1].([]float64), args[2].([]float64)
		for i := 0; i < m; i++ {
			out[i] = a[i] + 1
		}
		return nil, nil
	}
	incrSA = &core.Annotation{FuncName: "incr", Params: []core.Param{
		{Name: "size", Type: vmathsa.SizeSplit(0)},
		{Name: "a", Type: vmathsa.ArraySplit(0)},
		{Name: "out", Mut: true, Type: vmathsa.ArraySplit(0)},
	}}
	incrMutSA = &core.Annotation{FuncName: "incrMut", Params: []core.Param{
		{Name: "size", Mut: true, Type: vmathsa.SizeSplit(0)},
		{Name: "a", Type: vmathsa.ArraySplit(0)},
		{Name: "out", Mut: true, Type: vmathsa.ArraySplit(0)},
	}}
)

// runSessionAndLibrary runs prog on a session and on a nil session (the
// library itself), each over its own copy of the inputs, fails unless the
// two leave every input bit-for-bit equal, and returns the session's plan.
func runSessionAndLibrary(t *testing.T, n int, prog func(s *core.Session, a, b []float64)) *ir.Plan {
	t.Helper()
	a0, b0 := randVec(n, 1), randVec(n, 2)
	a, b := append([]float64(nil), a0...), append([]float64(nil), b0...)
	prog(nil, a0, b0)

	s := core.NewSession(core.Options{Workers: 2, BatchElems: 100})
	prog(s, a, b)
	p, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"a", a, a0}, {"b", b, b0}} {
		for i := range c.want {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				t.Fatalf("%s[%d] = %v on the session, %v in the library", c.name, i, c.got[i], c.want[i])
			}
		}
	}
	return p
}

// sizeInputs counts the stage's SizeSplit inputs.
func sizeInputs(st *ir.Stage) int {
	k := 0
	for _, in := range st.Inputs {
		if strings.HasPrefix(in.Split, "SizeSplit") {
			k++
		}
	}
	return k
}

// TestEqualSizesShareOneBinding pins which raw ints capture identifies by
// value: one passed to a non-mut parameter of a concrete split type shares
// a binding with every equal int passed under the same type name, so a
// stage splits each distinct size once. A broadcast ("_") int, a mut one and
// a tracked one each keep a binding of their own.
func TestEqualSizesShareOneBinding(t *testing.T) {
	const n = 1000
	stages := func(t *testing.T, p *ir.Plan, want int) {
		t.Helper()
		if len(p.Stages) != want {
			t.Fatalf("%d stages, want %d:\n%s", len(p.Stages), want, p.Describe())
		}
	}

	t.Run("equal sizes across calls", func(t *testing.T) {
		p := runSessionAndLibrary(t, n, func(s *core.Session, a, b []float64) {
			vmathsa.Log1p(s, n, a, a)
			vmathsa.Add(s, n, a, b, a)
			vmathsa.Mul(s, n, a, b, b)
			vmathsa.Sqrt(s, n, b, b)
		})
		stages(t, p, 1)
		if k := sizeInputs(&p.Stages[0]); k != 1 {
			t.Errorf("%d SizeSplit inputs, want 1:\n%s", k, p.Describe())
		}
	})

	t.Run("split and broadcast in one call", func(t *testing.T) {
		p := runSessionAndLibrary(t, n, func(s *core.Session, a, b []float64) {
			vmathsa.Log1p(s, n, a, a)
			s.Call(divKFn, divKSA, n, a, n, a)
		})
		stages(t, p, 1)
		c := p.Stages[0].Calls[1]
		if c.Args[0].Binding == c.Args[2].Binding {
			t.Errorf("divK's split size and broadcast k share binding %%%d", c.Args[0].Binding)
		}
	})

	t.Run("split then broadcast adds no stage", func(t *testing.T) {
		p := runSessionAndLibrary(t, n, func(s *core.Session, a, b []float64) {
			vmathsa.Log1p(s, n, a, a)
			s.Call(mulKFn, mulKSA, a, a, n)
			vmathsa.Add(s, n, a, b, b)
		})
		stages(t, p, 1)
		if k := sizeInputs(&p.Stages[0]); k != 1 {
			t.Errorf("%d SizeSplit inputs, want 1:\n%s", k, p.Describe())
		}
	})

	t.Run("mut and tracked sizes keep their own", func(t *testing.T) {
		p := runSessionAndLibrary(t, n, func(s *core.Session, a, b []float64) {
			vmathsa.Add(s, n, a, b, a)
			s.Call(incrFn, incrMutSA, n, a, a)
			s.Call(incrFn, incrSA, s.Track(n), b, b)
			vmathsa.Mul(s, n, a, b, a)
		})
		stages(t, p, 1)
		calls := p.Stages[0].Calls
		shared, mut, tracked := calls[0].Args[0].Binding, calls[1].Args[0].Binding, calls[2].Args[0].Binding
		if calls[3].Args[0].Binding != shared {
			t.Errorf("the two vmath calls' sizes are bindings %%%d and %%%d, want one", shared, calls[3].Args[0].Binding)
		}
		if mut == shared || tracked == shared || mut == tracked {
			t.Errorf("shared size %%%d, mut size %%%d, tracked size %%%d: want three bindings", shared, mut, tracked)
		}
	})
}
