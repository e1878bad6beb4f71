// Observability: trace, meter, and serve a pipelined evaluation.
//
// The quickstart pipeline runs again, this time with the runtime fully
// instrumented: a ChromeTrace sink records one timeline lane per worker
// (plus a runtime lane for planning, admission, and the final merge), a
// Metrics sink aggregates per-stage batch counts, bytes moved under the
// paper's §5.2 model, and cache-batch utilization, and a FlightRecorder
// keeps the last evaluations' full event streams (plus the rendered plan)
// for post-mortem dumps. Every number it prints is measured on this
// process; the memsim cache model is reached from a plan IR through
// internal/planlower, not from the runtime.
//
// Run it, then load mozart-trace.json in https://ui.perfetto.dev (or
// chrome://tracing) to see each worker pulling cache-sized batches through
// the fused three-call stage. Pass -serve :8080 to keep the process alive
// serving the debug surfaces:
//
//	curl localhost:8080/metrics              # Prometheus text exposition
//	curl localhost:8080/debug/mozart/plans   # recent EXPLAIN trees
//	curl localhost:8080/debug/mozart/trace   # Chrome trace JSON
//	curl localhost:8080/debug/mozart/flight  # flight-recorder ring
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"

	"mozart"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/obs/httpdebug"
)

func main() {
	serve := flag.String("serve", "", "address to serve /metrics and /debug/mozart/* on (e.g. :8080); empty = run once and print")
	flag.Parse()

	const n = 1 << 20
	d1 := make([]float64, n)
	tmp := make([]float64, n)
	vol := make([]float64, n)
	for i := range d1 {
		d1[i] = float64(i%100)/100 + 0.5
		tmp[i] = 1.0
		vol[i] = 2.0
	}

	trace := mozart.NewChromeTrace()
	metrics := mozart.NewMetrics()
	recorder := mozart.NewFlightRecorder(4)
	plans := httpdebug.NewPlanLog(4)
	opts := mozart.WithTracer(
		mozart.Options{Workers: 4, ProfileLabels: true},
		mozart.MultiTracer(trace, metrics))
	opts = mozart.WithFlightRecorder(opts, recorder)
	prevOnPlan := opts.OnPlan
	opts.OnPlan = func(p *mozart.Plan) {
		prevOnPlan(p)
		plans.OnPlan(p)
	}
	s := mozart.NewSession(opts)

	// d1 = (log1p(d1) + tmp) / vol, then reduce.
	vmathsa.Log1p(s, n, d1, d1)
	vmathsa.Add(s, n, d1, tmp, d1)
	vmathsa.Div(s, n, d1, vol, d1)
	mean := vmathsa.Sum(s, n, d1)

	if err := s.EvaluateContext(context.Background()); err != nil {
		log.Fatal(err)
	}
	total, err := mean.Float64()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean = %.6f\n", total/n)

	if err := trace.WriteFile("mozart-trace.json"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote mozart-trace.json (%d events) — open in https://ui.perfetto.dev\n\n",
		trace.Events())
	fmt.Print(metrics.String())

	if *serve == "" {
		fmt.Println("\n--- /metrics (Prometheus text exposition; -serve :8080 to scrape live) ---")
		fmt.Print(metrics.PrometheusText())
		return
	}
	mux := http.NewServeMux()
	httpdebug.Mount(mux, httpdebug.Options{
		Metrics: metrics, Plans: plans, Trace: trace, Recorder: recorder,
	})
	fmt.Printf("\nserving /metrics and /debug/mozart/{plans,trace,flight} on %s\n", *serve)
	log.Fatal(http.ListenAndServe(*serve, mux))
}
