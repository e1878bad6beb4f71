package mozart_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"mozart"
	"mozart/internal/annotations/vmathsa"
)

// EvaluateContext is the primary evaluation entrypoint: the caller's context
// bounds the run, and cancellation (or a deadline) stops workers at the next
// batch boundary with context.Canceled in the error chain.
func ExampleSession_EvaluateContext() {
	const n = 1 << 12
	a, out := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = float64(i) / n
	}

	s := mozart.NewSession(mozart.Options{Workers: 2})
	vmathsa.Log1p(s, n, a, out)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.EvaluateContext(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("out[0] = %.1f, stages = %d\n", out[0], s.Stats().Stages)
	// Output: out[0] = 0.0, stages = 1
}

// WithTracer attaches observability sinks to a session: here a Chrome-trace
// sink (loadable in https://ui.perfetto.dev) and a Metrics aggregator share
// the event stream through MultiTracer.
func ExampleWithTracer() {
	const n = 1 << 12
	a, tmp := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], tmp[i] = 1, 1
	}

	trace := mozart.NewChromeTrace()
	metrics := mozart.NewMetrics()
	s := mozart.NewSession(mozart.WithTracer(
		mozart.Options{Workers: 2, BatchElems: 1 << 10},
		mozart.MultiTracer(trace, metrics)))

	// Two elementwise calls over matching split types pipeline into one
	// stage; each of the 4 batches flows through both calls.
	vmathsa.Log1p(s, n, a, a)
	vmathsa.Add(s, n, a, tmp, a)
	if err := s.EvaluateContext(context.Background()); err != nil {
		log.Fatal(err)
	}

	// After the run, trace.WriteFile("trace.json") saves a Perfetto-loadable
	// timeline with one lane per worker.
	sn := metrics.Snapshot()
	fmt.Printf("stages = %d, batches = %d\n", len(sn.Stages), sn.Stages[0].Batches)

	// Output: stages = 1, batches = 4
}

// The Listing 1 pipeline from the paper, d1 = (log1p(d1) + tmp) / vol, and
// the sum of its result. The three in-place vector calls share ArraySplit
// types, so the planner pipelines them with the reduction into one stage of
// cache-sized batches; reading the Future forces the evaluation.
func Example_listing1() {
	const n = 1 << 18
	d1, tmp, vol := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range d1 {
		d1[i] = float64(i%100)/100 + 0.5
		tmp[i], vol[i] = 1, 2
	}

	s := mozart.NewSession(mozart.Options{Workers: 2})
	vmathsa.Log1p(s, n, d1, d1)
	vmathsa.Add(s, n, d1, tmp, d1)
	vmathsa.Div(s, n, d1, vol, d1)
	sum := vmathsa.Sum(s, n, d1)

	total, err := sum.Float64()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean = %.6f, stages = %d\n", total/n, s.Stats().Stages)
	// Output: mean = 0.839974, stages = 1
}
