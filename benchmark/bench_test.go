package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
	"time"
)

// quickSuite runs every workload end to end at the quick sizes, once for
// the whole test binary.
func quickSuite(t *testing.T) (suiteResult, *spanLog) {
	t.Helper()
	spans := &spanLog{epoch: time.Now()}
	cfg := runConfig{seed: 1, cycles: 2, sizes: quickSizes, workdir: t.TempDir(), spans: spans}
	res, err := runSuite(nil, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	return res, spans
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestQuickRun(t *testing.T) {
	res, spans := quickSuite(t)
	if len(res.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads ran, want %d", len(res.Workloads), len(allWorkloads))
	}
	for _, w := range res.Workloads {
		for _, pass := range []struct {
			name string
			got  *passResult
			defs []metricDef
		}{{"end to end", w.EndToEnd, endToEnd}, {"per layer", w.PerLayer, perLayer}} {
			if pass.got == nil {
				t.Fatalf("%s: no %s pass", w.Name, pass.name)
			}
			if !pass.got.correct() || pass.got.Attempted < 1 {
				t.Errorf("%s %s: attempted %d, failed %d: %v", w.Name, pass.name, pass.got.Attempted, pass.got.Failed, pass.got.Failures)
			}
			// Every declared metric is emitted, and nothing else.
			if len(pass.got.Metrics) != len(pass.defs) {
				t.Errorf("%s %s: %d metrics emitted, %d declared", w.Name, pass.name, len(pass.got.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				v, ok := pass.got.Metrics[d.Name]
				if !ok {
					t.Errorf("%s %s: declared metric %s was not emitted", w.Name, pass.name, d.Name)
				}
				if v.Unit != d.Unit {
					t.Errorf("%s %s: %s has unit %q, declared %q", w.Name, pass.name, d.Name, v.Unit, d.Unit)
				}
			}
		}
		for name, v := range w.EndToEnd.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s is %v; every one must be above 0", w.Name, name, v.Value)
			}
		}
		// A workload reports a layer it does not run as 0.
		serving := w.Name == "serve_large" || w.Name == "serve_small"
		layer := w.PerLayer.Metrics
		if got := layer["serve.handler_s"].Value > 0; got != serving {
			t.Errorf("%s: serve.handler_s > 0 is %v", w.Name, got)
		}
		if got := layer["obs.sinks_overhead_ratio"].Value > 0; got == serving {
			t.Errorf("%s: obs.sinks_overhead_ratio > 0 is %v", w.Name, got)
		}
		streaming := w.Name == "ooc_stream"
		for _, name := range []string{"core.streamed_stages", "spill.frames", "spill.append_mbps", "core.ooc_over_inmem"} {
			if got := layer[name].Value > 0; got != streaming {
				t.Errorf("%s: %s > 0 is %v", w.Name, name, got)
			}
		}
		// The spans account for the whole traced evaluation: what no span
		// claims is reported, not dropped.
		if !serving {
			sum := layer["mozart.capture_s"].Value + layer["plan.plan_s"].Value + layer["core.stage_wall_s"].Value
			if sum <= 0 || layer["core.unaccounted_s"].N == 0 {
				t.Errorf("%s: empty breakdown", w.Name)
			}
		}
	}

	checkSpans(t, spans.spans)
}

// checkSpans holds the span file to its contract: spans of one evaluation
// share an id, every parent exists in the same trace, and a child lies
// inside its parent.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	byID := map[int64]span{}
	traced := map[string]bool{}
	for _, s := range spans {
		byID[s.ID] = s
		traced[s.Workload] = true
	}
	for _, w := range allWorkloads {
		if !traced[w.name] {
			t.Errorf("no spans for %s", w.name)
		}
	}
	bad := 0
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %d (%s): parent %d does not exist", s.ID, s.Name, s.Parent)
		case p.Trace != s.Trace || p.Workload != s.Workload:
			t.Errorf("span %d (%s) and its parent %s are in different traces", s.ID, s.Name, p.Name)
		case s.StartNS < p.StartNS || s.EndNS > p.EndNS:
			if bad++; bad <= 5 {
				t.Errorf("%s: span %s [%d,%d] lies outside its parent %s [%d,%d]",
					s.Workload, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
			}
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the tables in this package; regenerate it with `go run . -describe > ../BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is malformed or used twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range allWorkloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name, or a why of %d characters", w.name, len(w.why))
		}
	}
}

func TestCompareFlagsOnlyWorsening(t *testing.T) {
	mk := func(evalS, speedup float64) suiteResult {
		return suiteResult{Workloads: []workloadResult{{Name: "w", EndToEnd: &passResult{Metrics: map[string]value{
			"eval_s": {Value: evalS}, "speedup_vs_base": {Value: speedup}, "setup_s": {Value: evalS},
		}}}}}
	}
	flaggedNames := func(fs []finding) []string {
		var out []string
		for _, f := range fs {
			out = append(out, f.metric)
		}
		return out
	}
	var sink bytes.Buffer
	// eval_s 20% slower and speedup 20% lower: both beyond their 15% bounds;
	// setup_s 20% slower is within its 25%.
	if got := flaggedNames(printFindings(&sink, compare(mk(1, 1), mk(1.2, 0.8)), false)); len(got) != 2 {
		t.Errorf("worsening: flagged %v, want eval_s and speedup_vs_base", got)
	}
	// Set-up 50% slower is a regression between commits, and is not gated
	// between two runs in one process.
	if got := flaggedNames(printFindings(&sink, compare(mk(1, 1), mk(1.5, 1)), false)); len(got) != 2 {
		t.Errorf("slow set-up: flagged %v, want setup_s and eval_s", got)
	}
	if got := flaggedNames(printFindings(&sink, compare(mk(1, 1), mk(1.5, 1)), true)); len(got) != 1 {
		t.Errorf("slow set-up in a repeat: flagged %v, want eval_s alone", got)
	}
	// 20% faster is not a regression, but two runs of the same code that
	// differ by 20% do not repeat.
	if got := flaggedNames(printFindings(&sink, compare(mk(1, 1), mk(0.8, 1.2)), false)); len(got) != 0 {
		t.Errorf("improvement: flagged %v, want nothing", got)
	}
	if got := flaggedNames(printFindings(&sink, compare(mk(1, 1), mk(0.8, 1.2)), true)); len(got) != 2 {
		t.Errorf("repeat check: flagged %v, want both", got)
	}
	// Within the bound either way.
	if got := flaggedNames(printFindings(&sink, compare(mk(1, 1), mk(1.1, 0.9)), true)); len(got) != 0 {
		t.Errorf("within bound: flagged %v, want nothing", got)
	}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 50}, // two workers' batches
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 70}, // overlap: the union is [10,70]
		{ID: 4, Parent: 1, StartNS: 80, EndNS: 90},
	}
	selfTimes(spans)
	if got := spans[0].SelfNS; got != 30 {
		t.Errorf("parent self time %d, want 100 - (60 + 10) = 30", got)
	}
	if got := spans[1].SelfNS; got != 40 {
		t.Errorf("leaf self time %d, want its duration 40", got)
	}
}
