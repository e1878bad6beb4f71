// Command sabench regenerates the tables and figures of the split
// annotations paper (SOSP 2019) over this repository's implementation.
//
// Usage:
//
//	sabench -experiment all|fig1|fig4|fig5|fig6|fig7|table2|table3|table4|wall|faults|trace|explain|bench|serveload|spill|autotune
//
// Multicore figures (1-16 threads) are produced on the memsim machine
// model, which executes the workloads' actual execution plans (per-call
// full scans for base libraries, cache-sized pipelined batches for Mozart,
// fused passes for the compiler comparator) through a cache simulator and
// a roofline cost model; see DESIGN.md for the substitution rationale.
// Wall-clock experiments (fig5, fig7a, `wall`) run the real libraries and
// the real Mozart runtime on the host.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"mozart/internal/memsim"
	"mozart/internal/vmath"
	"mozart/internal/workloads"
)

var threadSweep = []int{1, 2, 4, 8, 16}

// experiment is one named figure, table or smoke run.
type experiment struct {
	name string
	run  func(scaleDiv int)
}

// experiments lists every experiment in the order `-experiment all` runs them.
var experiments = []experiment{
	{"fig1", fig1}, {"fig4", fig4}, {"fig5", fig5}, {"fig6", fig6}, {"fig7", fig7},
	{"table2", table2}, {"table3", table3}, {"table4", table4},
	{"wall", wall}, {"faults", faults}, {"trace", trace}, {"explain", explain},
	{"bench", bench}, {"serveload", serveload}, {"spill", spillSmoke}, {"autotune", autotune},
}

// experimentNames renders the valid -experiment values, "all" last.
func experimentNames() string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), "|")
}

// selectExperiments resolves an -experiment value. An unknown name is an
// error, so a misspelled CI smoke fails instead of printing nothing.
func selectExperiments(name string) ([]experiment, error) {
	if name == "all" {
		return experiments, nil
	}
	for _, e := range experiments {
		if e.name == name {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q; valid: %s", name, experimentNames())
}

func main() {
	exp := flag.String("experiment", "all", experimentNames())
	scaleDiv := flag.Int("scalediv", 1, "divide default workload scales by this factor (wall-clock experiments)")
	flag.Parse()

	selected, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sabench:", err)
		os.Exit(2)
	}
	for _, e := range selected {
		e.run(*scaleDiv)
		fmt.Println()
	}
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// simTime runs a workload variant's plan on the machine model.
func simTime(spec workloads.Spec, v workloads.Variant, threads int) (float64, memsim.Result, bool) {
	if spec.Model == nil {
		return 0, memsim.Result{}, false
	}
	// Single-threaded base libraries ignore the thread count (Fig. 4).
	if v == workloads.Base && !spec.BaseParallel {
		threads = 1
	}
	m := spec.Model(v, workloads.Config{Scale: spec.DefaultScale, Threads: threads})
	if m == nil {
		return 0, memsim.Result{}, false
	}
	r := memsim.Run(memsim.DefaultMachine(), *m, threads)
	return r.Seconds, r, true
}

// fig1 is the motivating Black Scholes figure: MKL vs Weld vs Mozart.
func fig1(int) {
	fmt.Println("=== Figure 1: Black Scholes (MKL), modeled runtime, 1-16 threads ===")
	spec, _ := workloads.ByName("blackscholes-mkl")
	w := tw()
	fmt.Fprintln(w, "threads\tMKL\tWeld\tMozart\tMozart speedup over MKL")
	for _, t := range threadSweep {
		base, _, _ := simTime(spec, workloads.Base, t)
		weld, _, _ := simTime(spec, workloads.Weld, t)
		moz, _, _ := simTime(spec, workloads.Mozart, t)
		fmt.Fprintf(w, "%d\t%.2fms\t%.2fms\t%.2fms\t%.2fx\n", t, base*1e3, weld*1e3, moz*1e3, base/moz)
	}
	w.Flush()
}

// fig4 reproduces the 15-workload grid: modeled runtime per variant and
// thread count, plus the headline 16-thread speedup.
func fig4(int) {
	fmt.Println("=== Figure 4: end-to-end performance on 15 workloads (modeled) ===")
	for _, spec := range workloads.All() {
		fmt.Printf("--- %s (%s; base %s) ---\n", spec.Name, spec.Description, baseKind(spec))
		w := tw()
		fmt.Fprint(w, "threads")
		variants := modeledVariants(spec)
		for _, v := range variants {
			fmt.Fprintf(w, "\t%s", v)
		}
		fmt.Fprintln(w)
		for _, t := range threadSweep {
			fmt.Fprintf(w, "%d", t)
			for _, v := range variants {
				sec, _, ok := simTime(spec, v, t)
				if !ok {
					fmt.Fprint(w, "\t-")
					continue
				}
				fmt.Fprintf(w, "\t%.2fms", sec*1e3)
			}
			fmt.Fprintln(w)
		}
		w.Flush()
		b, _, _ := simTime(spec, workloads.Base, 16)
		m, _, _ := simTime(spec, workloads.Mozart, 16)
		if m > 0 {
			fmt.Printf("    speedup @16 threads: %.1fx\n", b/m)
		}
	}
}

func baseKind(spec workloads.Spec) string {
	if spec.BaseParallel {
		return "internally parallel"
	}
	return "single-threaded"
}

func modeledVariants(spec workloads.Spec) []workloads.Variant {
	var out []workloads.Variant
	for _, v := range spec.Variants {
		if v == workloads.MozartNoPipe {
			continue
		}
		out = append(out, v)
	}
	return out
}

// fig5 measures the real runtime breakdown of the Mozart runtime.
func fig5(scaleDiv int) {
	fmt.Println("=== Figure 5: runtime breakdown (measured on this host) ===")
	w := tw()
	fmt.Fprintln(w, "workload\tclient\tunprotect\tplanner\tsplit\ttask\tmerge")
	for _, name := range []string{"blackscholes-mkl", "nashville-imagemagick"} {
		spec, _ := workloads.ByName(name)
		cfg := workloads.Config{
			Scale:   spec.DefaultScale / scaleDiv,
			Threads: 1,
			// ~3.5ms/GB, the paper's measured mprotect cost.
			UnprotectNSPerByte: 0.0035,
		}
		bd, err := runWithBreakdown(spec, cfg)
		if err != nil {
			fmt.Fprintf(w, "%s\terror: %v\n", name, err)
			continue
		}
		tot := bd.ClientNS + bd.UnprotectNS + bd.PlannerNS + bd.SplitNS + bd.TaskNS + bd.MergeNS
		pct := func(x int64) string { return fmt.Sprintf("%.2f%%", 100*float64(x)/float64(tot)) }
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", name,
			pct(bd.ClientNS), pct(bd.UnprotectNS), pct(bd.PlannerNS),
			pct(bd.SplitNS), pct(bd.TaskNS), pct(bd.MergeNS))
	}
	w.Flush()
	fmt.Println("(task dominates; client+planner are <0.5% as in the paper)")
}

// fig6 sweeps the batch size and marks Mozart's heuristic pick.
func fig6(int) {
	fmt.Println("=== Figure 6: effect of batch size (modeled, 16 threads) ===")
	for _, name := range []string{"blackscholes-mkl", "nbody-mkl"} {
		spec, _ := workloads.ByName(name)
		fmt.Printf("--- %s ---\n", name)
		heuristic, _, _ := simTime(spec, workloads.Mozart, 16)
		w := tw()
		fmt.Fprintln(w, "batch elems\tmodeled time\tvs heuristic")
		best := heuristic
		for b := int64(512); b <= 2<<20; b *= 4 {
			m := spec.Model(workloads.Mozart, workloads.Config{Scale: spec.DefaultScale, Batch: b})
			r := memsim.Run(memsim.DefaultMachine(), *m, 16)
			if r.Seconds < best {
				best = r.Seconds
			}
			fmt.Fprintf(w, "%d\t%.2fms\t%.2fx\n", b, r.Seconds*1e3, r.Seconds/heuristic)
		}
		w.Flush()
		fmt.Printf("    heuristic batch: %.2fms (within %.0f%% of best %.2fms)\n",
			heuristic*1e3, 100*(heuristic-best)/best, best*1e3)
	}
}

// fig7 measures per-op intensity on the host (7a) and models per-op Mozart
// speedups over the un-annotated library (7b).
func fig7(int) {
	fmt.Println("=== Figure 7a: relative intensity of vector ops (measured) ===")
	type opCase struct {
		name string
		run  func(n int, a, b, out []float64)
	}
	ops := []opCase{
		{"add", func(n int, a, b, out []float64) { vmath.Add(n, a, b, out) }},
		{"mul", func(n int, a, b, out []float64) { vmath.Mul(n, a, b, out) }},
		{"div", func(n int, a, b, out []float64) { vmath.Div(n, a, b, out) }},
		{"sqrt", func(n int, a, b, out []float64) { vmath.Sqrt(n, a, out) }},
		{"erf", func(n int, a, b, out []float64) { vmath.Erf(n, a, out) }},
		{"exp", func(n int, a, b, out []float64) { vmath.Exp(n, a, out) }},
	}
	n := 1 << 14 // L2 resident
	a := make([]float64, n)
	b := make([]float64, n)
	out := make([]float64, n)
	for i := range a {
		a[i] = float64(i%100)/100 + 0.1
		b[i] = float64(i%37)/37 + 0.1
	}
	times := make([]float64, len(ops))
	for i, op := range ops {
		op.run(n, a, b, out) // warm
		start := time.Now()
		const reps = 200
		for r := 0; r < reps; r++ {
			op.run(n, a, b, out)
		}
		times[i] = time.Since(start).Seconds() / reps
	}
	w := tw()
	fmt.Fprintln(w, "op\tns/elem\trelative intensity (vs exp)")
	for i, op := range ops {
		fmt.Fprintf(w, "%s\t%.2f\t%.3f\n", op.name, times[i]*1e9/float64(n), times[i]/times[len(ops)-1])
	}
	w.Flush()

	fmt.Println("\n=== Figure 7b: modeled Mozart speedup per op, 10 calls over a large array ===")
	cycles := map[string]float64{"add": 0.7, "mul": 0.8, "div": 2.5, "sqrt": 3.5, "erf": 6.0, "exp": 8.0}
	w = tw()
	fmt.Fprintln(w, "op\t1\t2\t4\t8\t16 threads")
	names := []string{"add", "mul", "div", "sqrt", "erf", "exp"}
	for _, name := range names {
		fmt.Fprintf(w, "%s", name)
		for _, t := range threadSweep {
			base := opRepeatModel(cycles[name], 0)
			moz := opRepeatModel(cycles[name], 64<<10) // the C*L2 heuristic for 2 arrays
			rb := memsim.Run(memsim.DefaultMachine(), base, t)
			rm := memsim.Run(memsim.DefaultMachine(), moz, t)
			fmt.Fprintf(w, "\t%.2fx", rb.Seconds/rm.Seconds)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Println("(low-intensity ops gain the most, and gains grow with threads)")
}

// opRepeatModel is Figure 7b's workload: one vector op called 10 times over
// an array much larger than the LLC.
func opRepeatModel(cyc float64, batch int64) memsim.Workload {
	ops := make([]memsim.Op, 10)
	for i := range ops {
		ops[i] = memsim.Op{Name: "op", CyclesPerElem: cyc, Reads: []int{0}, Writes: []int{1}}
	}
	return memsim.Workload{Name: "op-repeat", Elems: 32 << 20,
		Stages: []memsim.Stage{{Ops: ops, BatchElems: batch, ElemBytes: 8}}}
}

// table2 prints the workload inventory.
func table2(int) {
	fmt.Println("=== Table 2: workloads ===")
	w := tw()
	fmt.Fprintln(w, "workload\tlibrary\tops (ours)\tops (paper)\tdescription")
	paper := map[string]int{
		"blackscholes-numpy": 32, "blackscholes-mkl": 32,
		"haversine-numpy": 18, "haversine-mkl": 18,
		"nbody-numpy": 38, "nbody-mkl": 38,
		"shallowwater-numpy": 32, "shallowwater-mkl": 32,
		"datacleaning-pandas": 8, "crimeindex-pandas": 16,
		"birthanalysis-pandas": 12, "movielens-pandas": 18,
		"speechtag-spacy": 8, "nashville-imagemagick": 31, "gotham-imagemagick": 15,
	}
	for _, spec := range workloads.All() {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%s\n", spec.Name, spec.Library, spec.Operators, paper[spec.Name], spec.Description)
	}
	w.Flush()
}

// table4 is the pipelining ablation with modeled hardware counters.
func table4(int) {
	fmt.Println("=== Table 4: importance of pipelining (modeled, 16 threads) ===")
	w := tw()
	fmt.Fprintln(w, "workload\tvariant\tnorm. runtime\tLLC miss\tIPC")
	for _, name := range []string{"blackscholes-mkl", "haversine-mkl"} {
		spec, _ := workloads.ByName(name)
		base, rb, _ := simTime(spec, workloads.Base, 16)
		for _, v := range []workloads.Variant{workloads.Base, workloads.MozartNoPipe, workloads.Mozart} {
			sec, r, ok := simTime(spec, v, 16)
			if !ok {
				continue
			}
			label := map[workloads.Variant]string{
				workloads.Base: "MKL", workloads.MozartNoPipe: "Mozart(-pipe)", workloads.Mozart: "Mozart",
			}[v]
			_ = rb
			fmt.Fprintf(w, "%s\t%s\t%.2f\t%.2f%%\t%.3f\n", name, label, sec/base, 100*r.LLCMissRate, r.IPC)
		}
	}
	w.Flush()
	fmt.Println("(pipelining halves the LLC miss rate and lifts IPC; -pipe matches MKL)")
}

// wall runs real end-to-end measurements on this host.
func wall(scaleDiv int) {
	fmt.Printf("=== Wall clock on this host (GOMAXPROCS-bound; single-core container => 1-thread comparison) ===\n")
	w := tw()
	fmt.Fprintln(w, "workload\tbase\tmozart\tweld\tmozart vs base")
	for _, spec := range workloads.All() {
		cfg := workloads.Config{Scale: spec.DefaultScale / scaleDiv, Threads: 1}
		times := map[workloads.Variant]float64{}
		for _, v := range []workloads.Variant{workloads.Base, workloads.Mozart, workloads.Weld} {
			if !spec.HasVariant(v) {
				continue
			}
			start := time.Now()
			if _, err := spec.Run(v, cfg); err != nil {
				fmt.Fprintf(w, "%s\terror: %v\n", spec.Name, err)
				continue
			}
			times[v] = time.Since(start).Seconds()
		}
		weldStr := "-"
		if t, ok := times[workloads.Weld]; ok {
			weldStr = fmt.Sprintf("%.3fs", t)
		}
		fmt.Fprintf(w, "%s\t%.3fs\t%.3fs\t%s\t%.2fx\n", spec.Name,
			times[workloads.Base], times[workloads.Mozart], weldStr,
			times[workloads.Base]/times[workloads.Mozart])
	}
	w.Flush()
}
