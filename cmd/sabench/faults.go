package main

import (
	"context"
	"fmt"
	"time"

	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
	"mozart/internal/faultinject"
	"mozart/internal/vmath"
)

// faultCalls builds injector-wrapped annotated versions of the Listing-1
// pipeline's three functions (log1p, add, div). Each function and the
// shared array splitter run through inj under the function's MKL-style
// site name, so faults can be armed per call site.
func faultCalls(inj *faultinject.Injector) map[string]struct {
	fn core.Func
	sa *core.Annotation
} {
	arrOf := func(site string) core.TypeExpr {
		return core.Concrete("ArraySplit", inj.WrapSplitter(site, vmathsa.ArraySplitter{}), func(args []any) (core.SplitType, error) {
			return core.NewSplitType("ArraySplit", int64(args[0].(int))), nil
		})
	}
	unary := func(site string, f func(int, []float64, []float64)) (core.Func, *core.Annotation) {
		fn := inj.WrapFunc(site, func(args []any) (any, error) {
			f(args[0].(int), args[1].([]float64), args[2].([]float64))
			return nil, nil
		})
		arr := arrOf(site)
		return fn, &core.Annotation{FuncName: site, Params: []core.Param{
			{Name: "size", Type: vmathsa.SizeSplit(0)},
			{Name: "a", Type: arr},
			{Name: "out", Mut: true, Type: arr},
		}}
	}
	binary := func(site string, f func(int, []float64, []float64, []float64)) (core.Func, *core.Annotation) {
		fn := inj.WrapFunc(site, func(args []any) (any, error) {
			f(args[0].(int), args[1].([]float64), args[2].([]float64), args[3].([]float64))
			return nil, nil
		})
		arr := arrOf(site)
		return fn, &core.Annotation{FuncName: site, Params: []core.Param{
			{Name: "size", Type: vmathsa.SizeSplit(0)},
			{Name: "a", Type: arr},
			{Name: "b", Type: arr},
			{Name: "out", Mut: true, Type: arr},
		}}
	}
	out := map[string]struct {
		fn core.Func
		sa *core.Annotation
	}{}
	log1pFn, log1pSA := unary("vdLog1p", vmath.Log1p)
	addFn, addSA := binary("vdAdd", vmath.Add)
	divFn, divSA := binary("vdDiv", vmath.Div)
	out["log1p"] = struct {
		fn core.Func
		sa *core.Annotation
	}{log1pFn, log1pSA}
	out["add"] = struct {
		fn core.Func
		sa *core.Annotation
	}{addFn, addSA}
	out["div"] = struct {
		fn core.Func
		sa *core.Annotation
	}{divFn, divSA}
	return out
}

// faults measures the cost of the fault-tolerance machinery on the Listing-1
// vector pipeline: a clean annotated run vs runs where an injected
// annotation fault (a panic in one batch, or a splitter error) forces the
// runtime to degrade to whole-call execution or quarantine the annotation.
func faults(scaleDiv int) {
	fmt.Println("=== Fault-injection ablation: fallback overhead on the Listing-1 pipeline (measured) ===")
	n := (1 << 22) / scaleDiv

	mkInputs := func() (d1, tmp, vol []float64) {
		d1 = make([]float64, n)
		tmp = make([]float64, n)
		vol = make([]float64, n)
		for i := 0; i < n; i++ {
			d1[i] = float64(i%100)/100 + 0.1
			tmp[i] = float64(i%37)/37 + 0.1
			vol[i] = float64(i%53)/53 + 0.5
		}
		return
	}

	// Library reference (whole calls, no Mozart).
	ref, tmp, vol := mkInputs()
	t0 := time.Now()
	vmath.Log1p(n, ref, ref)
	vmath.Add(n, ref, tmp, ref)
	vmath.Div(n, ref, vol, ref)
	libTime := time.Since(t0).Seconds()

	match := func(d1 []float64) string {
		for i := range d1 {
			if d1[i] != ref[i] {
				return fmt.Sprintf("MISMATCH at %d", i)
			}
		}
		return "matches library"
	}

	runPipeline := func(inj *faultinject.Injector, opts core.Options, rounds int) (float64, core.StatsSnapshot, []float64) {
		calls := faultCalls(inj)
		d1, tmp, vol := mkInputs()
		var s *core.Session
		start := time.Now()
		for r := 0; r < rounds; r++ {
			if r == 0 {
				s = core.NewSession(opts)
			}
			s.Call(calls["log1p"].fn, calls["log1p"].sa, n, d1, d1)
			s.Call(calls["add"].fn, calls["add"].sa, n, d1, tmp, d1)
			s.Call(calls["div"].fn, calls["div"].sa, n, d1, vol, d1)
			if err := s.EvaluateContext(context.Background()); err != nil {
				fmt.Printf("    evaluation error: %v\n", err)
				return 0, s.Stats(), d1
			}
		}
		return time.Since(start).Seconds(), s.Stats(), d1
	}

	type row struct {
		name    string
		seconds float64
		stats   core.StatsSnapshot
		check   string
	}
	var rows []row

	// Clean annotated run.
	sec, st, d1 := runPipeline(faultinject.New(0), core.Options{}, 1)
	clean := sec
	rows = append(rows, row{"mozart clean", sec, st, match(d1)})

	// Panic in one batch of vdLog1p; whole-call fallback re-executes the
	// stage unsplit after restoring the in-place-mutated inputs.
	inj := faultinject.New(0)
	inj.PanicOnNthCall("vdLog1p", 2)
	sec, st, d1 = runPipeline(inj, core.Options{FallbackPolicy: core.FallbackWholeCall}, 1)
	rows = append(rows, row{"panic -> whole-call fallback", sec, st, match(d1)})

	// Splitter error with quarantine: round 1 falls back and quarantines
	// vdLog1p; round 2 plans it whole without consulting the splitter.
	inj = faultinject.New(0)
	inj.ErrorOnNthSplit("vdLog1p", 1)
	sec, st, d1 = runPipeline(inj, core.Options{FallbackPolicy: core.FallbackQuarantine}, 2)
	// Round 2 recomputes over the round-1 output, so skip the value check.
	rows = append(rows, row{"split error -> quarantine (2 rounds)", sec, st, "n/a (iterated)"})

	// Transient library outage on one vdAdd batch. Without a retry policy
	// the evaluation aborts (the seed's behavior); with MaxAttempts 3 the
	// runtime replays just that batch and the run completes exactly.
	inj = faultinject.New(0)
	inj.TransientErrorOnCalls("vdAdd", 2, 2)
	sec, st, d1 = runPipeline(inj, core.Options{
		RetryPolicy: core.RetryPolicy{MaxAttempts: 3},
	}, 1)
	rows = append(rows, row{"transient call error -> batch retry", sec, st, match(d1)})

	// The same transient splitter outage, but with a breaker that cools
	// down: round 1 trips it, round 2 runs whole (open), round 3's probe
	// splits again and closes it — quarantine that heals.
	inj = faultinject.New(0)
	inj.TransientErrorOnSplits("vdLog1p", 1, 1)
	sec, st, d1 = runPipeline(inj, core.Options{
		FallbackPolicy: core.FallbackQuarantine,
		Breakers:       core.NewBreakerGroup(core.BreakerPolicy{Threshold: 1, Cooldown: time.Millisecond}),
	}, 3)
	rows = append(rows, row{"split outage -> breaker heals (3 rounds)", sec, st, "n/a (iterated)"})

	// Memory-budget admission: the governor caps the modeled working set at
	// a quarter of the arrays, so stages shrink their batches to fit.
	sec, st, d1 = runPipeline(faultinject.New(0), core.Options{
		Governor: core.NewGovernor(int64(n) * 8),
	}, 1)
	rows = append(rows, row{"admission (budget = n*8 bytes)", sec, st, match(d1)})

	w := tw()
	fmt.Fprintln(w, "variant\ttime\tvs clean\tpanics\tfallbacks\tquarantined\tretried\ttrips\tadm wait\tresult")
	fmt.Fprintf(w, "library (whole calls)\t%.3fs\t%.2fx\t-\t-\t-\t-\t-\t-\treference\n", libTime, libTime/clean)
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3fs\t%.2fx\t%d\t%d\t%d\t%d\t%d\t%v\t%s\n", r.name, r.seconds, r.seconds/clean,
			r.stats.RecoveredPanics, r.stats.FallbackStages, r.stats.QuarantinedCalls,
			r.stats.RetriedBatches, r.stats.BreakerTrips,
			time.Duration(r.stats.AdmissionWaitNS), r.check)
	}
	w.Flush()
	fmt.Println("(fallback pays for the wasted split attempt plus one unsplit re-execution;")
	fmt.Println(" quarantine amortizes that to whole-call speed on later evaluations; batch")
	fmt.Println(" retry and breaker recovery keep split-speed execution after transient faults)")
}
