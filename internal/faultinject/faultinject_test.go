package faultinject_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mozart/internal/core"
	"mozart/internal/faultinject"
)

// chunkSplitter is a minimal []float64 splitter for exercising the wrapper.
type chunkSplitter struct{}

func (chunkSplitter) InPlace() bool { return true }

func (chunkSplitter) Info(v any, t core.SplitType) (core.RuntimeInfo, error) {
	return core.RuntimeInfo{Elems: int64(len(v.([]float64))), ElemBytes: 8}, nil
}

func (chunkSplitter) Split(v any, t core.SplitType, start, end int64) (any, error) {
	return v.([]float64)[start:end], nil
}

func (chunkSplitter) Merge(pieces []any, t core.SplitType) (any, error) {
	var out []float64
	for _, p := range pieces {
		out = append(out, p.([]float64)...)
	}
	return out, nil
}

func okFn(args []any) (any, error) { return args[0], nil }

func TestNthCallFiresExactlyOnce(t *testing.T) {
	inj := faultinject.New(0)
	inj.ErrorOnNthCall("f", 3)
	fn := inj.WrapFunc("f", okFn)
	for i := 1; i <= 5; i++ {
		_, err := fn([]any{i})
		if (i == 3) != (err != nil) {
			t.Errorf("call %d: err = %v", i, err)
		}
	}
	if got := inj.Count("f", faultinject.AspectCall); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
}

func TestEveryCallFault(t *testing.T) {
	inj := faultinject.New(0)
	inj.Add("f", faultinject.Fault{Aspect: faultinject.AspectCall, Kind: faultinject.KindError, Msg: "always"})
	fn := inj.WrapFunc("f", okFn)
	for i := 0; i < 3; i++ {
		if _, err := fn(nil); err == nil || err.Error() != "always" {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
}

func TestPanicKind(t *testing.T) {
	inj := faultinject.New(0)
	inj.PanicOnNthCall("f", 1)
	fn := inj.WrapFunc("f", okFn)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("want panic")
		}
		if !strings.Contains(r.(string), "injected call fault at f") {
			t.Errorf("panic value %v", r)
		}
	}()
	_, _ = fn(nil)
}

func TestSlowKind(t *testing.T) {
	inj := faultinject.New(0)
	inj.SlowCalls("f", 5*time.Millisecond)
	fn := inj.WrapFunc("f", okFn)
	t0 := time.Now()
	if _, err := fn([]any{1}); err != nil {
		t.Fatal(err)
	}
	if time.Since(t0) < 5*time.Millisecond {
		t.Error("slow fault did not delay the call")
	}
}

func TestWrapSplitterPreservesInPlace(t *testing.T) {
	inj := faultinject.New(0)
	wrapped := inj.WrapSplitter("s", chunkSplitter{})
	ip, ok := wrapped.(core.InPlacer)
	if !ok || !ip.InPlace() {
		t.Error("wrapper must preserve the underlying InPlace declaration")
	}
}

func TestSplitAndInfoFaults(t *testing.T) {
	inj := faultinject.New(0)
	inj.ErrorOnNthInfo("s", 1)
	inj.ErrorOnNthSplit("s", 2)
	sp := inj.WrapSplitter("s", chunkSplitter{})
	data := []float64{1, 2, 3, 4}

	if _, err := sp.Info(data, core.SplitType{}); err == nil {
		t.Error("want injected Info error")
	}
	if _, err := sp.Info(data, core.SplitType{}); err != nil {
		t.Errorf("second Info: %v", err)
	}
	if _, err := sp.Split(data, core.SplitType{}, 0, 2); err != nil {
		t.Errorf("first Split: %v", err)
	}
	if _, err := sp.Split(data, core.SplitType{}, 2, 4); err == nil {
		t.Error("want injected Split error on second invocation")
	}
}

func TestCorruptMerge(t *testing.T) {
	inj := faultinject.New(0)
	inj.CorruptNthMerge("s", 1)
	sp := inj.WrapSplitter("s", chunkSplitter{})
	merged, err := sp.Merge([]any{[]float64{1, 2}, []float64{3}}, core.SplitType{})
	if err != nil {
		t.Fatal(err)
	}
	out := merged.([]float64)
	if out[0] <= 1e8 {
		t.Errorf("merge was not corrupted: %v", out)
	}
	if out[1] != 2 || out[2] != 3 {
		t.Errorf("corruption touched more than the first element: %v", out)
	}

	merged, err = sp.Merge([]any{[]float64{1, 2}}, core.SplitType{})
	if err != nil || merged.([]float64)[0] != 1 {
		t.Errorf("second merge should be clean: %v, %v", merged, err)
	}
}

func TestErrorOnMerge(t *testing.T) {
	inj := faultinject.New(0)
	inj.ErrorOnNthMerge("s", 1)
	sp := inj.WrapSplitter("s", chunkSplitter{})
	if _, err := sp.Merge([]any{[]float64{1}}, core.SplitType{}); err == nil {
		t.Error("want injected Merge error")
	}
}

func TestSeededRandomIsDeterministic(t *testing.T) {
	a := faultinject.New(99).PanicOnRandomCall("f", 1000)
	b := faultinject.New(99).PanicOnRandomCall("f", 1000)
	if a != b {
		t.Errorf("same seed chose different invocations: %d vs %d", a, b)
	}
	if a < 1 || a > 1000 {
		t.Errorf("chosen invocation %d out of range", a)
	}
}

func TestReset(t *testing.T) {
	inj := faultinject.New(0)
	fn := inj.WrapFunc("f", okFn)
	_, _ = fn([]any{1})
	inj.Reset()
	if got := inj.Count("f", faultinject.AspectCall); got != 0 {
		t.Errorf("Count after Reset = %d, want 0", got)
	}
}

// TestInjectorDrivesRuntimeFallback closes the loop: an injector-armed
// panic inside a real session is recovered and degraded by the runtime.
func TestInjectorDrivesRuntimeFallback(t *testing.T) {
	inj := faultinject.New(0)
	inj.PanicOnNthCall("lib", 2)
	double := inj.WrapFunc("lib", func(args []any) (any, error) {
		in := args[0].([]float64)
		out := make([]float64, len(in))
		for i, x := range in {
			out[i] = 2 * x
		}
		return out, nil
	})
	sexpr := core.Concrete("Chunk", inj.WrapSplitter("lib", chunkSplitter{}), func(args []any) (core.SplitType, error) {
		return core.NewSplitType("Chunk", int64(len(args[0].([]float64)))), nil
	})
	ret := sexpr
	sa := &core.Annotation{FuncName: "lib", Params: []core.Param{{Name: "a", Type: sexpr}}, Ret: &ret}

	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i)
	}
	s := core.NewSession(core.Options{Workers: 2, BatchElems: 8, FallbackPolicy: core.FallbackWholeCall})
	v, err := s.Call(double, sa, data).Get()
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	out := v.([]float64)
	for i := range data {
		if out[i] != 2*data[i] {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], 2*data[i])
		}
	}
	if st := s.Stats(); st.RecoveredPanics < 1 || st.FallbackStages != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestTransientRangeFiresThenHeals: a fault armed for occurrences 2..4
// fires exactly there and the site succeeds again from occurrence 5 on.
func TestTransientRangeFiresThenHeals(t *testing.T) {
	inj := faultinject.New(0)
	inj.TransientErrorOnCalls("f", 2, 4)
	fn := inj.WrapFunc("f", okFn)
	for i := int64(1); i <= 7; i++ {
		_, err := fn([]any{1})
		wantErr := i >= 2 && i <= 4
		if wantErr != (err != nil) {
			t.Errorf("call %d: err = %v, want error: %v", i, err, wantErr)
		}
		if err != nil && !errors.Is(err, core.ErrTransient) {
			t.Errorf("call %d: error %v does not wrap core.ErrTransient", i, err)
		}
	}
}

// TestTransientSplitRange: the same range semantics on the Split aspect.
func TestTransientSplitRange(t *testing.T) {
	inj := faultinject.New(0)
	inj.TransientErrorOnSplits("arr", 1, 2)
	sp := inj.WrapSplitter("arr", chunkSplitter{})
	v := []float64{1, 2, 3, 4}
	for i := int64(1); i <= 4; i++ {
		_, err := sp.Split(v, core.SplitType{}, 0, 2)
		wantErr := i <= 2
		if wantErr != (err != nil) {
			t.Errorf("split %d: err = %v, want error: %v", i, err, wantErr)
		}
		if err != nil && !errors.Is(err, core.ErrTransient) {
			t.Errorf("split %d: error %v does not wrap core.ErrTransient", i, err)
		}
	}
	if got := inj.Count("arr", faultinject.AspectSplit); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
}

// TestTransientRetryEndToEnd: an injected fail-once-then-succeed library
// error is absorbed by RetryPolicy and the result matches the fault-free
// run; the wrapper preserves the splitter's in-place declaration so the
// batch snapshot machinery engages.
func TestTransientRetryEndToEnd(t *testing.T) {
	run := func(retry core.RetryPolicy, inj *faultinject.Injector) ([]float64, core.StatsSnapshot, error) {
		n := 32
		a := make([]float64, n)
		out := make([]float64, n)
		for i := range a {
			a[i] = float64(i) + 0.5
		}
		arr := core.Concrete("ChunkSplit", inj.WrapSplitter("arr", chunkSplitter{}),
			core.FixedCtor(core.NewSplitType("ChunkSplit")))
		sa := &core.Annotation{FuncName: "copy", Params: []core.Param{
			{Name: "a", Type: arr},
			{Name: "out", Mut: true, Type: arr},
		}}
		fn := inj.WrapFunc("copy", func(args []any) (any, error) {
			src, dst := args[0].([]float64), args[1].([]float64)
			for i := range src {
				dst[i] += src[i]
			}
			return nil, nil
		})
		s := core.NewSession(core.Options{Workers: 2, BatchElems: 8, RetryPolicy: retry})
		s.Call(fn, sa, a, out)
		err := s.EvaluateContext(context.Background())
		return out, s.Stats(), err
	}

	// Retries disabled: the transient error aborts the evaluation.
	inj := faultinject.New(0)
	inj.TransientErrorOnCalls("copy", 2, 2)
	if _, _, err := run(core.RetryPolicy{}, inj); err == nil {
		t.Fatal("retries disabled: want the injected transient error to fail Evaluate")
	}

	// MaxAttempts 3: the replay succeeds and the accumulate applies once.
	inj = faultinject.New(0)
	inj.TransientErrorOnCalls("copy", 2, 2)
	out, st, err := run(core.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}, inj)
	if err != nil {
		t.Fatalf("with retry: %v", err)
	}
	for i := range out {
		want := float64(i) + 0.5
		if out[i] != want {
			t.Fatalf("out[%d] = %v, want %v (batch replay not idempotent)", i, out[i], want)
		}
	}
	if st.RetriedBatches != 1 {
		t.Errorf("RetriedBatches = %d, want 1", st.RetriedBatches)
	}
}

func TestLatencyInjectionDelaysCalls(t *testing.T) {
	inj := faultinject.New(3)
	inj.LatencyOnCalls("slowsite", 5*time.Millisecond, 15*time.Millisecond)
	fn := inj.WrapFunc("slowsite", func(args []any) (any, error) { return nil, nil })
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := fn(nil); err != nil {
			t.Fatalf("wrapped func: %v", err)
		}
		if el := time.Since(start); el < 5*time.Millisecond {
			t.Fatalf("call %d returned after %v, want >= 5ms of injected latency", i, el)
		}
	}
	if got := inj.Count("slowsite", faultinject.AspectCall); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
}

// TestHookOnNthCall: a KindHook fault runs its hook on exactly the Nth
// invocation and never perturbs the call's own result.
func TestHookOnNthCall(t *testing.T) {
	inj := faultinject.New(0)
	var fired int
	inj.HookOnNthCall("f", 3, func() { fired++ })
	fn := inj.WrapFunc("f", okFn)
	for i := 0; i < 5; i++ {
		got, err := fn([]any{i})
		if err != nil {
			t.Fatalf("call %d errored: %v", i, err)
		}
		if got != i {
			t.Fatalf("call %d returned %v, want %v", i, got, i)
		}
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}
}

// TestSqueezeBudgetOnNthCall: the budget-squeeze fault shrinks the Governor
// mid-sequence; calls before the squeeze see the original budget, calls
// after it see the shrunken one.
func TestSqueezeBudgetOnNthCall(t *testing.T) {
	g := core.NewGovernor(1 << 20)
	inj := faultinject.New(0)
	inj.SqueezeBudgetOnNthCall("f", 2, g, 4096)
	fn := inj.WrapFunc("f", okFn)

	if _, err := fn([]any{0}); err != nil {
		t.Fatal(err)
	}
	if got := g.Budget(); got != 1<<20 {
		t.Fatalf("budget before squeeze = %d, want %d", got, 1<<20)
	}
	if _, err := fn([]any{1}); err != nil {
		t.Fatal(err)
	}
	if got := g.Budget(); got != 4096 {
		t.Fatalf("budget after squeeze = %d, want 4096", got)
	}
	// The shrunken budget gates admission immediately.
	if _, ok := g.TryAdmit(8192); ok {
		t.Fatal("TryAdmit above the squeezed budget succeeded")
	}
}

// doubleInto is a destination-taking (a: S) -> S that doubles a []float64.
func doubleInto(args []any, out any) (any, error) {
	a := args[0].([]float64)
	dst, _ := out.([]float64)
	if cap(dst) < len(a) {
		dst = make([]float64, len(a))
	}
	dst = dst[:len(a)]
	for i, x := range a {
		dst[i] = 2 * x
	}
	return dst, nil
}

// A call registered through CallInto has one function, so a fault wrapped
// around it fires wherever the call runs: on the split path (handed a
// destination or not), on the replay of a retried batch, and in the whole
// call the stage falls back to. Each firing is counted.
func TestWrapFuncIntoFiresOnEveryPath(t *testing.T) {
	const n, batch = 64, 8
	typ := core.Concrete("Chunk", chunkSplitter{}, core.FixedCtor(core.NewSplitType("Chunk")))
	sa := &core.Annotation{FuncName: "double", Params: []core.Param{{Name: "a", Type: typ}}, Ret: &typ}
	in := make([]float64, n)
	for i := range in {
		in[i] = float64(i)
	}
	run := func(inj *faultinject.Injector, opts core.Options) (core.StatsSnapshot, error) {
		opts.Workers, opts.BatchElems = 1, batch
		s := core.NewSession(opts)
		// The first result is read by the second call only: scratch, so the
		// first call is handed its earlier pieces.
		out := s.CallInto(inj.WrapFuncInto("double", doubleInto), sa, s.CallInto(inj.WrapFuncInto("double", doubleInto), sa, in))
		got, err := out.Float64s()
		for i := range got {
			if got[i] != 4*in[i] {
				t.Fatalf("element %d = %v, want %v", i, got[i], 4*in[i])
			}
		}
		return s.Stats(), err
	}
	const splitRuns = 2 * n / batch // two calls a batch

	inj := faultinject.New(0)
	st, err := run(inj, core.Options{})
	if err != nil || inj.Count("double", faultinject.AspectCall) != splitRuns || st.ReusedPieces == 0 {
		t.Fatalf("split path: err %v, %d firings (want %d), %d pieces reused (want some)",
			err, inj.Count("double", faultinject.AspectCall), splitRuns, st.ReusedPieces)
	}

	inj = faultinject.New(0)
	inj.TransientErrorOnCalls("double", 6, 6) // the second call of the third batch
	st, err = run(inj, core.Options{RetryPolicy: core.RetryPolicy{MaxAttempts: 2, Sleep: func(time.Duration) {}}})
	if err != nil || st.RetriedBatches != 1 || inj.Count("double", faultinject.AspectCall) != splitRuns+2 {
		t.Fatalf("retry replay: err %v, %d retried batches, %d firings (want %d: the replay runs both calls again)",
			err, st.RetriedBatches, inj.Count("double", faultinject.AspectCall), splitRuns+2)
	}

	inj = faultinject.New(0)
	inj.PanicOnNthCall("double", 6)
	st, err = run(inj, core.Options{FallbackPolicy: core.FallbackWholeCall})
	if err != nil || st.FallbackStages != 1 || inj.Count("double", faultinject.AspectCall) != 6+2 {
		t.Fatalf("whole-call fallback: err %v, %d fallback stages, %d firings (want 8: six split runs and the two whole calls)",
			err, st.FallbackStages, inj.Count("double", faultinject.AspectCall))
	}
}
