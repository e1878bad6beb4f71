package main

// bench: the BENCH trajectory emitter. Every commit can leave behind one
// machine-readable performance snapshot — all 15 workloads run through the
// real planner, their plan IR lowered into the memsim machine model, and the
// modeled runtime plus simulated hardware counters recorded at 1/4/8/16
// threads. Snapshots are written as BENCH_<git-sha>.json; before writing,
// the newest existing snapshot in -benchdir is loaded and compared, and any
// per-workload modeled slowdown beyond 5% fails the run. The result is a
// regression trip-wire and a performance trajectory across the repo's
// history, driven by actual planner output rather than hand models.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mozart/internal/memsim"
	"mozart/internal/plan"
	"mozart/internal/planlower"
	"mozart/internal/workloads"
)

var benchDir = flag.String("benchdir", ".", "directory for BENCH_<sha>.json snapshots (-experiment bench)")

// benchThreads is the snapshot's thread sweep (a subset of threadSweep: the
// paper's single-core, mid, and 16-core points).
var benchThreads = []int{1, 4, 8, 16}

// benchTolerance is the relative modeled-runtime slowdown vs. the previous
// snapshot that fails the run.
const benchTolerance = 0.05

const benchSchema = "mozart-bench/v1"

// benchPoint is one (workload, thread count) measurement: modeled runtime
// and the simulated hardware counters summed over every evaluation's stages.
type benchPoint struct {
	Threads     int     `json:"threads"`
	Seconds     float64 `json:"seconds"`
	L1Hits      int64   `json:"l1_hits"`
	L1Misses    int64   `json:"l1_misses"`
	L2Hits      int64   `json:"l2_hits"`
	L2Misses    int64   `json:"l2_misses"`
	LLCHits     int64   `json:"llc_hits"`
	LLCMisses   int64   `json:"llc_misses"`
	DRAMBytes   int64   `json:"dram_bytes"`
	LLCMissRate float64 `json:"llc_miss_rate"`
}

type benchWorkload struct {
	Name          string `json:"name"`
	Library       string `json:"library"`
	Scale         int    `json:"scale"`
	Evaluations   int    `json:"evaluations"`
	DistinctPlans int    `json:"distinct_plans"`
	// BatchSource records where the captured plans' batch policy came from
	// (plan.BatchProvenance): "static" for the 5.2 heuristic, "sweeping" or
	// "calibrated" when a tuner was attached. Bench runs untuned sessions,
	// so current snapshots say "static"; readers tolerate it missing in
	// snapshots written before the field existed.
	BatchSource string       `json:"batch_source,omitempty"`
	Points      []benchPoint `json:"points"`
}

type benchReport struct {
	Schema      string          `json:"schema"`
	GitSHA      string          `json:"git_sha"`
	CreatedUnix int64           `json:"created_unix"`
	Machine     string          `json:"machine"`
	Threads     []int           `json:"threads"`
	Workloads   []benchWorkload `json:"workloads"`
}

// bench runs the experiment: capture, simulate, compare, emit.
func bench(int) {
	fmt.Println("=== Bench: modeled performance snapshot from real planner output ===")
	machine := memsim.DefaultMachine()
	report := benchReport{
		Schema:      benchSchema,
		GitSHA:      gitSHA(),
		CreatedUnix: time.Now().Unix(),
		Machine:     fmt.Sprintf("memsim default (L2 %dKB, LLC %dMB)", machine.L2.SizeBytes>>10, machine.LLC.SizeBytes>>20),
		Threads:     append([]int(nil), benchThreads...),
	}

	w := tw()
	fmt.Fprintln(w, "workload\tevals\tplans\t1t\t4t\t8t\t16t\tLLC miss @16t")
	for _, spec := range workloads.All() {
		bw, err := benchWorkloadRun(spec, machine)
		if err != nil {
			fatalf("bench: %s: %v", spec.Name, err)
		}
		report.Workloads = append(report.Workloads, bw)
		fmt.Fprintf(w, "%s\t%d\t%d", bw.Name, bw.Evaluations, bw.DistinctPlans)
		for _, p := range bw.Points {
			fmt.Fprintf(w, "\t%.2fms", p.Seconds*1e3)
		}
		fmt.Fprintf(w, "\t%.1f%%\n", 100*bw.Points[len(bw.Points)-1].LLCMissRate)
	}
	w.Flush()

	if err := validateBench(report); err != nil {
		fatalf("bench: produced an invalid snapshot: %v", err)
	}

	// Load the previous snapshot BEFORE writing the new one, so a re-run
	// with the same sha never compares a file against itself.
	prev, prevPath, err := newestBench(*benchDir, report.GitSHA)
	if err != nil {
		fatalf("bench: loading previous snapshot: %v", err)
	}

	out := filepath.Join(*benchDir, "BENCH_"+report.GitSHA+".json")
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("bench: encoding snapshot: %v", err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		fatalf("bench: writing snapshot: %v", err)
	}
	fmt.Printf("bench: wrote %s (%d workloads x %d thread counts)\n",
		out, len(report.Workloads), len(report.Threads))

	if prev == nil {
		fmt.Println("bench: no previous snapshot to compare against")
		return
	}
	regressions := compareBench(*prev, report, benchTolerance)
	if len(regressions) > 0 {
		fmt.Printf("bench: %d modeled regression(s) vs %s:\n", len(regressions), prevPath)
		for _, r := range regressions {
			fmt.Println("  " + r)
		}
		fatalf("bench: modeled runtime regressed more than %.0f%%", 100*benchTolerance)
	}
	fmt.Printf("bench: no modeled regressions beyond %.0f%% vs %s\n", 100*benchTolerance, prevPath)
}

// benchWorkloadRun captures the workload's real plans once (plan shape does
// not depend on the worker count) and simulates each distinct plan at every
// thread count, weighting by how many evaluations produced it. The scale is
// DefaultScale/16, matching -experiment explain, so the plans here are the
// same ones the explain golden pins.
func benchWorkloadRun(spec workloads.Spec, machine memsim.Machine) (benchWorkload, error) {
	var plans []*plan.Plan
	cfg := workloads.Config{
		Scale:   spec.DefaultScale / 16,
		Threads: 4,
		OnPlan:  func(p *plan.Plan) { plans = append(plans, p) },
	}
	if _, err := spec.Run(workloads.Mozart, cfg); err != nil {
		return benchWorkload{}, err
	}
	if len(plans) == 0 {
		return benchWorkload{}, fmt.Errorf("no plan captured")
	}
	type weighted struct {
		p     *plan.Plan
		count int64
	}
	byRender := map[string]int{}
	var distinct []weighted
	for _, p := range plans {
		r := plan.Render(p)
		if i, ok := byRender[r]; ok {
			distinct[i].count++
			continue
		}
		byRender[r] = len(distinct)
		distinct = append(distinct, weighted{p: p, count: 1})
	}

	bw := benchWorkload{
		Name:          spec.Name,
		Library:       spec.Library,
		Scale:         cfg.Scale,
		Evaluations:   len(plans),
		DistinctPlans: len(distinct),
		BatchSource:   plans[0].Provenance.String(),
	}
	lower := workloads.Lowering(spec)
	for _, threads := range benchThreads {
		pt := benchPoint{Threads: threads}
		for _, d := range distinct {
			per := planlower.SimulateCounters(d.p, lower, machine, threads)
			for _, c := range per {
				pt.Seconds += float64(d.count) * c.Seconds
				pt.L1Hits += d.count * c.L1Hits
				pt.L1Misses += d.count * c.L1Misses
				pt.L2Hits += d.count * c.L2Hits
				pt.L2Misses += d.count * c.L2Misses
				pt.LLCHits += d.count * c.LLCHits
				pt.LLCMisses += d.count * c.LLCMisses
				pt.DRAMBytes += d.count * c.DRAMBytes
			}
		}
		if acc := pt.LLCHits + pt.LLCMisses; acc > 0 {
			pt.LLCMissRate = float64(pt.LLCMisses) / float64(acc)
		}
		bw.Points = append(bw.Points, pt)
	}
	return bw, nil
}

// validateBench is the schema self-check applied to every snapshot this
// binary writes or reads: right schema tag, all workloads present with the
// full thread sweep, and positive modeled runtimes.
func validateBench(r benchReport) error {
	if r.Schema != benchSchema {
		return fmt.Errorf("schema %q, want %q", r.Schema, benchSchema)
	}
	if r.GitSHA == "" {
		return fmt.Errorf("empty git_sha")
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("no workloads")
	}
	for _, bw := range r.Workloads {
		if len(bw.Points) != len(r.Threads) {
			return fmt.Errorf("%s: %d points, want %d", bw.Name, len(bw.Points), len(r.Threads))
		}
		for i, p := range bw.Points {
			if p.Threads != r.Threads[i] {
				return fmt.Errorf("%s: point %d has threads=%d, want %d", bw.Name, i, p.Threads, r.Threads[i])
			}
			if p.Seconds <= 0 {
				return fmt.Errorf("%s @%d threads: non-positive modeled runtime %g", bw.Name, p.Threads, p.Seconds)
			}
		}
		// batch_source, when present, must be a known provenance; absent is
		// fine (snapshots predating the field).
		switch bw.BatchSource {
		case "", "static", "sweeping", "calibrated":
		default:
			return fmt.Errorf("%s: unknown batch_source %q", bw.Name, bw.BatchSource)
		}
	}
	return nil
}

// compareBench diffs two snapshots and returns one line per modeled
// regression: a (workload, threads) point whose runtime grew by more than
// tol relative to prev. Workloads or thread counts present in only one
// snapshot are ignored — adding a workload is not a regression.
func compareBench(prev, cur benchReport, tol float64) []string {
	prevPts := map[string]float64{}
	for _, bw := range prev.Workloads {
		for _, p := range bw.Points {
			prevPts[fmt.Sprintf("%s@%d", bw.Name, p.Threads)] = p.Seconds
		}
	}
	var out []string
	for _, bw := range cur.Workloads {
		for _, p := range bw.Points {
			key := fmt.Sprintf("%s@%d", bw.Name, p.Threads)
			was, ok := prevPts[key]
			if !ok || was <= 0 {
				continue
			}
			if p.Seconds > was*(1+tol) {
				out = append(out, fmt.Sprintf("%s %d threads: %.3fms -> %.3fms (+%.1f%%)",
					bw.Name, p.Threads, was*1e3, p.Seconds*1e3, 100*(p.Seconds/was-1)))
			}
		}
	}
	sort.Strings(out)
	return out
}

// newestBench finds the most recent BENCH_*.json in dir (by modification
// time, name as tie-break), skipping the current sha's own file, and decodes
// it. Returns (nil, "", nil) when there is nothing to compare against; a
// snapshot that exists but fails to decode or validate is an error — a
// corrupt baseline should fail loudly, not silently disable the trip-wire.
func newestBench(dir, curSHA string) (*benchReport, string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, "", err
	}
	type cand struct {
		path string
		mod  time.Time
	}
	var cands []cand
	for _, p := range paths {
		if filepath.Base(p) == "BENCH_"+curSHA+".json" {
			continue
		}
		fi, err := os.Stat(p)
		if err != nil {
			return nil, "", err
		}
		cands = append(cands, cand{p, fi.ModTime()})
	}
	if len(cands) == 0 {
		return nil, "", nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].mod.Equal(cands[j].mod) {
			return cands[i].mod.After(cands[j].mod)
		}
		return cands[i].path > cands[j].path
	})
	best := cands[0]
	buf, err := os.ReadFile(best.path)
	if err != nil {
		return nil, "", err
	}
	var r benchReport
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, "", fmt.Errorf("%s: %v", best.path, err)
	}
	if err := validateBench(r); err != nil {
		return nil, "", fmt.Errorf("%s: %v", best.path, err)
	}
	return &r, best.path, nil
}

// gitSHA names the snapshot: SABENCH_GIT_SHA if set (CI), the repo HEAD if
// git is available, "dev" otherwise.
func gitSHA() string {
	if sha := os.Getenv("SABENCH_GIT_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	if sha := strings.TrimSpace(string(out)); sha != "" {
		return sha
	}
	return "dev"
}
