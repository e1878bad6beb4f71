// Command benchmark is the repository's measured, layered wall-clock
// benchmark: seven workloads, eight end-to-end metrics measured with tracing
// off, and a traced pass that attributes time to the repo's modules. See
// README.md in this directory and BENCHMARK.json at the root.
//
//	bash benchmark/run.sh                                  every workload, both passes
//	bash benchmark/run.sh -workload W -seed 2 -seconds 10 -trace 0   one pass of one workload
//	bash benchmark/run.sh -verify-repeat                   the suite twice; must agree within bounds
//	bash benchmark/run.sh -compare a.json b.json           two result files
//	bash benchmark/run.sh -selftest-sensitivity            an injected slowdown must be seen
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all seven)")
	flag.Int64Var(&o.seed, "seed", 1, "every input is generated from this seed; 2 is the held-out seed")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured part of each pass")
	flag.IntVar(&o.cycles, "cycles", 0, "run exactly this many cycles per pass instead of -seconds")
	flag.IntVar(&o.trace, "trace", -1, "with -workload: 0 runs the end-to-end pass, 1 the traced pass, and the last line printed is the result as JSON")
	flag.BoolVar(&o.quick, "quick", false, "tiny inputs and 2 cycles: checks the harness, measures nothing")
	flag.StringVar(&o.out, "out", "", "write the result file here")
	flag.StringVar(&o.spans, "spans", "", "write the traced pass's spans here")
	flag.BoolVar(&o.verifyRepeat, "verify-repeat", false, "run everything twice and fail if any end-to-end metric differs by more than its bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments; fail if the second is worse beyond a bound")
	flag.BoolVar(&o.selftest, "selftest-sensitivity", false, "add 20% to chain_membound by fault injection and require that it is flagged there and nowhere else")
	flag.StringVar(&o.workdir, "workdir", "", "directory for spill files (default: a new temporary directory)")
	describe := flag.Bool("describe", false, "print BENCHMARK.json as this program defines it, and exit")
	flag.Parse()
	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type options struct {
	workload                        string
	seed                            int64
	seconds                         float64
	cycles, trace                   int
	quick                           bool
	out, spans                      string
	verifyRepeat, compare, selftest bool
	workdir                         string
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		a, err := readResult(args[0])
		if err != nil {
			return err
		}
		b, err := readResult(args[1])
		if err != nil {
			return err
		}
		if flagged := printFindings(os.Stdout, compare(a, b), false); len(flagged) > 0 {
			return fmt.Errorf("%d end-to-end metrics are worse in %s beyond their bound", len(flagged), args[1])
		}
		return nil
	}

	// Two workers, two library threads, two clients: the benchmark needs two
	// processors and uses exactly two, so results from a larger machine
	// stay comparable.
	if runtime.NumCPU() < workers {
		return fmt.Errorf("needs %d processors, this machine has %d", workers, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(workers)

	cfg := runConfig{seed: o.seed, seconds: o.seconds, cycles: o.cycles, sizes: fullSizes, workdir: o.workdir}
	if o.quick {
		cfg.sizes = quickSizes
		if cfg.cycles == 0 {
			cfg.cycles = 2
		}
	}
	if cfg.workdir == "" {
		dir, err := os.MkdirTemp("", "mozart-benchmark-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.workdir = dir
	}
	if o.spans != "" {
		cfg.spans = &spanLog{epoch: time.Now()}
	}

	switch {
	case o.selftest:
		return selftestSensitivity(os.Stdout, cfg)
	case o.workload != "" && o.trace >= 0:
		return runOnePass(o.workload, cfg, o.trace == 1, o.spans)
	}

	var names []string
	if o.workload != "" {
		names = []string{o.workload}
	}
	res, err := runSuite(names, cfg, o.quick)
	if err != nil {
		return err
	}
	printSuite(res)
	if o.verifyRepeat {
		again, err := runSuite(names, cfg, o.quick)
		if err != nil {
			return err
		}
		fmt.Println("\n== two runs of the same code ==")
		flagged := printFindings(os.Stdout, compare(res, again), true)
		if again.incorrect() {
			return fmt.Errorf("incorrect outputs in the second run")
		}
		if len(flagged) > 0 {
			return fmt.Errorf("%d end-to-end metrics differ between two runs of the same code by more than their bound", len(flagged))
		}
	}
	if o.out != "" {
		if err := writeResult(o.out, res); err != nil {
			return err
		}
	}
	if cfg.spans != nil {
		if err := cfg.spans.write(o.spans); err != nil {
			return err
		}
	}
	if res.incorrect() {
		return fmt.Errorf("incorrect outputs; see the failures above")
	}
	return nil
}

// runOnePass is the form the benchmark's driver calls: one pass of one
// workload, every metric printed by name with its unit, and as the last line
// of standard output the result as one JSON object.
func runOnePass(name string, cfg runConfig, traced bool, spansPath string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	res, err := runWorkload(w, cfg, !traced, traced)
	if err != nil {
		return err
	}
	pass := res.EndToEnd
	if traced {
		pass = res.PerLayer
	}
	printPass(os.Stdout, pass)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{pass.correct(), pass.Attempted, pass.Failed, map[string]metric{}}
	for name, v := range pass.Metrics {
		line.Metrics[name] = metric{v.Value, v.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	if cfg.spans != nil {
		if err := cfg.spans.write(spansPath); err != nil {
			return err
		}
	}
	fmt.Println(string(buf))
	if !pass.correct() {
		return fmt.Errorf("%s: incorrect outputs", name)
	}
	return nil
}

func (r *passResult) correct() bool { return r.Failed == 0 && len(r.Failures) == 0 }

func (s suiteResult) incorrect() bool {
	for _, w := range s.Workloads {
		for _, p := range []*passResult{w.EndToEnd, w.PerLayer} {
			if p != nil && !p.correct() {
				return true
			}
		}
	}
	return false
}

func printPass(w *os.File, p *passResult) {
	names := make([]string, 0, len(p.Metrics))
	for name := range p.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range names {
		v := p.Metrics[name]
		spread := ""
		if v.N > 0 {
			spread = fmt.Sprintf("q1 %.6g  q3 %.6g  n %d", v.Q1, v.Q3, v.N)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", name, v.Value, v.Unit, spread)
	}
	tw.Flush()
	fmt.Fprintf(w, "  attempted %d, failed %d\n", p.Attempted, p.Failed)
	for _, f := range p.Failures {
		fmt.Fprintf(w, "  FAILURE: %s\n", f)
	}
}

func printSuite(s suiteResult) {
	fmt.Println(s.Env)
	fmt.Printf("seed %d, %.3gs per pass", s.Seed, s.Seconds)
	if s.Cycles > 0 {
		fmt.Printf(" (fixed at %d cycles)", s.Cycles)
	}
	fmt.Printf(", total wall time %.1fs\n", s.WallS)
	for _, w := range s.Workloads {
		fmt.Printf("\n== %s, end to end (tracing off) ==\n", w.Name)
		printPass(os.Stdout, w.EndToEnd)
		fmt.Printf("-- %s, per layer (traced pass) --\n", w.Name)
		printPass(os.Stdout, w.PerLayer)
	}
	fmt.Println("\n== what each per-layer metric should move ==")
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, d := range perLayer {
		fmt.Fprintf(tw, "  %s\t%s\n", d.Name, d.Moves)
	}
	tw.Flush()
}
