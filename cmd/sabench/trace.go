package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mozart/internal/obs"
	"mozart/internal/workloads"
)

// trace runs a vector-math workload and a dataframe workload under the
// observability layer: a Chrome-trace sink (one lane per worker, loadable in
// chrome://tracing or https://ui.perfetto.dev) plus the aggregating metrics
// sink, whose per-stage table is printed after each run. The traces are
// written to a new temporary directory, whose paths are printed; the emitted
// JSON is re-read and parsed as a smoke check, and a trace that does not parse
// or has no events fails the process.
func trace(scaleDiv int) {
	fmt.Println("=== Trace: runtime observability (Chrome trace + per-stage metrics) ===")
	dir, err := os.MkdirTemp("", "sabench-trace-")
	if err != nil {
		fatalf("trace: %v", err)
	}
	for _, name := range []string{"blackscholes-mkl", "datacleaning-pandas"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			fatalf("trace: %v", err)
		}
		chrome := obs.NewChromeTrace()
		metrics := obs.NewMetrics()
		cfg := workloads.Config{
			Scale:   spec.DefaultScale / scaleDiv,
			Threads: 4,
			Tracer:  obs.Multi(chrome, metrics),
		}
		if _, err := spec.Run(workloads.Mozart, cfg); err != nil {
			fatalf("trace: %s: %v", name, err)
		}

		path := filepath.Join(dir, name+".json")
		if err := chrome.WriteFile(path); err != nil {
			fatalf("trace: %s: writing %s: %v", name, path, err)
		}
		if err := validateTraceFile(path); err != nil {
			fatalf("trace: %s: %v", name, err)
		}
		fmt.Printf("--- %s: %d trace events -> %s (open in https://ui.perfetto.dev) ---\n",
			name, chrome.Events(), path)
		fmt.Print(metrics.String())
		fmt.Println()
	}
}

// validateTraceFile re-reads an emitted trace and checks it is well-formed
// Chrome trace_event JSON with at least one event.
func validateTraceFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("%s is not valid trace JSON: %w", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("%s contains no trace events", path)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
