package core_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"mozart/internal/core"
	"mozart/internal/workloads"
)

// TestNilSessionRunsEagerly pins the contract that lets a workload be one
// program: a nil *core.Session is the unmodified library. Call and CallInto
// run the function at once, on the caller, and return a resolved Future;
// Futures among the arguments are read first; a FuncInto is offered no
// destination; fn's error is the Future's. Track and EvaluateContext work
// on nil, no goroutine is started, and a workload's Base variant, which runs
// with a nil session, makes no session for Config.OnSession to see.
func TestNilSessionRunsEagerly(t *testing.T) {
	var s *core.Session
	goroutines := runtime.NumGoroutine()
	// ran is written by the functions and read here without
	// synchronisation: under -race a call run by another goroutine fails.
	ran := 0
	double := func(args []any) (any, error) {
		ran++
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Errorf("%d goroutines during an eager call, %d before", n, goroutines)
		}
		xs := args[0].([]float64)
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = 2 * x
		}
		return out, nil
	}
	sa := &core.Annotation{FuncName: "double", Params: []core.Param{{Name: "a", Type: genericS}}, Ret: &genericS}
	in := []float64{1, 2, 3}
	want, _ := double([]any{in})
	ran = 0

	f := s.Call(double, sa, in)
	if ran != 1 || !f.Resolved() {
		t.Fatalf("Call ran fn %d times, Resolved() = %v; want once, before returning, and resolved", ran, f.Resolved())
	}
	if got, err := f.Get(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Call: %v, %v; want the direct call's %v", got, err, want)
	}

	// A Future argument is unwrapped to its value, and the caller's
	// argument slice keeps the Future.
	args := []any{f}
	g := s.Call(func(args []any) (any, error) {
		if _, ok := args[0].(*core.Future); ok {
			t.Error("fn was handed a *core.Future")
		}
		return double(args)
	}, sa, args...)
	if got, _ := g.Float64s(); !reflect.DeepEqual(got, []float64{4, 8, 12}) {
		t.Fatalf("Call over a Future: %v, want [4 8 12]", got)
	}
	if args[0] != f {
		t.Error("the caller's argument slice was rewritten")
	}

	// CallInto is offered no destination.
	var offered any = "unset"
	h := s.CallInto(func(args []any, out any) (any, error) {
		offered = out
		return double(args)
	}, sa, in)
	if got, err := h.Get(); offered != nil || err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("CallInto: %v, %v, offered %v; want %v, nil error, no destination", got, err, offered, want)
	}

	// fn's error is carried by the Future, and by one that reads it.
	boom := errors.New("boom")
	e := s.Call(func([]any) (any, error) { return nil, boom }, sa, in)
	if _, err := e.Get(); !errors.Is(err, boom) || e.Resolved() {
		t.Fatalf("failed call: Get error %v, Resolved() = %v; want boom and unresolved", err, e.Resolved())
	}
	ran = 0
	if _, err := s.Call(double, sa, e).Get(); !errors.Is(err, boom) || ran != 0 {
		t.Fatalf("call over a failed Future: error %v, fn ran %d times; want boom, not run", err, ran)
	}

	// Track, Keep, GetContext and EvaluateContext work on nil.
	tr := s.Track(in).Keep()
	if got, err := tr.GetContext(context.Background()); err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("Track: %v, %v; want %v", got, err, in)
	}
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatalf("EvaluateContext on nil: %v", err)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the eager calls, %d before", n, goroutines)
	}

	// Base runs its program with a nil session: OnSession sees none.
	spec, err := workloads.ByName("blackscholes-mkl")
	if err != nil {
		t.Fatal(err)
	}
	sessions := 0
	cfg := workloads.Config{Scale: 64, Threads: 1, OnSession: func(*core.Session) { sessions++ }}
	if _, err := spec.Run(workloads.Base, cfg); err != nil || sessions != 0 {
		t.Fatalf("Base: err %v, OnSession called %d times; want 0", err, sessions)
	}
	if _, err := spec.Run(workloads.Mozart, cfg); err != nil || sessions != 1 {
		t.Fatalf("Mozart: err %v, OnSession called %d times; want 1", err, sessions)
	}
}
