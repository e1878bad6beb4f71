package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// synthReport builds a minimal valid snapshot with the given per-point
// modeled runtime.
func synthReport(sha string, seconds func(name string, threads int) float64) benchReport {
	r := benchReport{Schema: benchSchema, GitSHA: sha, Machine: "test", Threads: []int{1, 4}}
	for _, name := range []string{"blackscholes-mkl", "datacleaning-pandas"} {
		bw := benchWorkload{Name: name, Library: "x", Scale: 1, Evaluations: 1, DistinctPlans: 1}
		for _, t := range r.Threads {
			bw.Points = append(bw.Points, benchPoint{Threads: t, Seconds: seconds(name, t)})
		}
		r.Workloads = append(r.Workloads, bw)
	}
	return r
}

// TestCompareBenchFlagsSlowdown is the comparator contract: a synthetic >5%
// modeled slowdown is flagged (so the bench run exits non-zero), a slowdown
// inside the tolerance is not, and points only one snapshot has are ignored.
func TestCompareBenchFlagsSlowdown(t *testing.T) {
	prev := synthReport("aaa", func(string, int) float64 { return 0.100 })

	// 6% slower on one point only.
	cur := synthReport("bbb", func(name string, threads int) float64 {
		if name == "blackscholes-mkl" && threads == 4 {
			return 0.106
		}
		return 0.100
	})
	regs := compareBench(prev, cur, benchTolerance)
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want exactly 1", regs)
	}
	if !strings.Contains(regs[0], "blackscholes-mkl 4 threads") {
		t.Errorf("regression line %q does not name the point", regs[0])
	}

	// 4% slower everywhere: inside tolerance.
	cur = synthReport("ccc", func(string, int) float64 { return 0.104 })
	if regs := compareBench(prev, cur, benchTolerance); len(regs) != 0 {
		t.Errorf("4%% slowdown flagged: %v", regs)
	}

	// A workload new in cur has no baseline and is not a regression.
	cur = synthReport("ddd", func(string, int) float64 { return 0.100 })
	cur.Workloads = append(cur.Workloads, benchWorkload{
		Name: "brand-new", Points: []benchPoint{{Threads: 1, Seconds: 99}, {Threads: 4, Seconds: 99}},
	})
	if regs := compareBench(prev, cur, benchTolerance); len(regs) != 0 {
		t.Errorf("new workload flagged: %v", regs)
	}

	// Speedups are never regressions.
	cur = synthReport("eee", func(string, int) float64 { return 0.050 })
	if regs := compareBench(prev, cur, benchTolerance); len(regs) != 0 {
		t.Errorf("speedup flagged: %v", regs)
	}
}

func TestValidateBench(t *testing.T) {
	good := synthReport("aaa", func(string, int) float64 { return 0.1 })
	if err := validateBench(good); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := good
	bad.Schema = "mozart-bench/v0"
	if err := validateBench(bad); err == nil {
		t.Error("wrong schema accepted")
	}
	bad = synthReport("aaa", func(string, int) float64 { return 0 })
	if err := validateBench(bad); err == nil {
		t.Error("zero runtime accepted")
	}
	bad = good
	bad.Workloads[0].Points = bad.Workloads[0].Points[:1]
	if err := validateBench(bad); err == nil {
		t.Error("missing thread point accepted")
	}
}

// TestNewestBench: the comparator loads the most recent snapshot by mtime,
// skips the current sha's own file, and fails loudly on a corrupt baseline.
func TestNewestBench(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r benchReport, mod time.Time) {
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Now()
	write("BENCH_old.json", synthReport("old", func(string, int) float64 { return 1 }), now.Add(-2*time.Hour))
	write("BENCH_new.json", synthReport("new", func(string, int) float64 { return 2 }), now.Add(-time.Hour))
	write("BENCH_cur.json", synthReport("cur", func(string, int) float64 { return 3 }), now)

	got, path, err := newestBench(dir, "cur")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.GitSHA != "new" {
		t.Fatalf("loaded %+v from %s, want sha new (current sha skipped)", got, path)
	}

	if _, _, err := newestBench(t.TempDir(), "cur"); err != nil {
		t.Fatalf("empty dir should be a clean no-baseline, got %v", err)
	}

	if err := os.WriteFile(filepath.Join(dir, "BENCH_zzz.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := newestBench(dir, "cur"); err == nil {
		t.Error("corrupt newest baseline did not error")
	}
}

// A misspelled -experiment must fail loudly and name the valid values;
// every listed name, and "all", must resolve.
func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		name string
		want int // experiments selected; 0 = error
	}{
		{"all", len(experiments)},
		{"fig1", 1}, {"explain", 1}, {"autotune", 1},
		{"explian", 0}, {"", 0}, {"ALL", 0}, {"fig1,fig4", 0},
	} {
		got, err := selectExperiments(tc.name)
		if len(got) != tc.want || (err == nil) != (tc.want > 0) {
			t.Errorf("selectExperiments(%q) = %d experiments, err %v; want %d", tc.name, len(got), err, tc.want)
		}
		if err != nil && !strings.Contains(err.Error(), "fig1|fig4") {
			t.Errorf("selectExperiments(%q) error does not list the valid names: %v", tc.name, err)
		}
	}
	for _, e := range experiments {
		if got, err := selectExperiments(e.name); err != nil || len(got) != 1 || got[0].name != e.name {
			t.Errorf("listed experiment %q does not resolve: %v", e.name, err)
		}
	}
}
