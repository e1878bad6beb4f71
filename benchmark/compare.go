package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
	"time"

	"mozart"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/faultinject"
	"mozart/internal/vmath"
)

// suiteResult is the result file: every workload's two passes and the
// record of where and how they were measured.
type suiteResult struct {
	Schema    string           `json:"schema"`
	Env       environment      `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds_per_pass"`
	Cycles    int              `json:"cycles_per_pass,omitempty"`
	Quick     bool             `json:"quick,omitempty"`
	Workloads []workloadResult `json:"workloads"`
	WallS     float64          `json:"total_wall_s"`
}

const resultSchema = "mozart-benchmark/v1"

// runSuite runs the named workloads (all of them when none is named), the
// end-to-end pass first and then the traced pass.
func runSuite(names []string, cfg runConfig, quick bool) (suiteResult, error) {
	start := time.Now()
	res := suiteResult{Schema: resultSchema, Env: readEnvironment(cfg.sizes), Seed: cfg.seed,
		Seconds: cfg.seconds, Cycles: cfg.cycles, Quick: quick}
	defs := allWorkloads
	if len(names) > 0 {
		defs = nil
		for _, n := range names {
			w, err := workloadByName(n)
			if err != nil {
				return res, err
			}
			defs = append(defs, w)
		}
	}
	for _, w := range defs {
		wr, err := runWorkload(w, cfg, true, true)
		if err != nil {
			return res, err
		}
		res.Workloads = append(res.Workloads, wr)
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

func readResult(path string) (suiteResult, error) {
	var s suiteResult
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != resultSchema {
		return s, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, resultSchema)
	}
	return s, nil
}

func writeResult(path string, s suiteResult) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// finding is one (workload, end-to-end metric) pair of a comparison.
type finding struct {
	workload, metric string
	a, b             float64
	worse            float64 // how much b is worse than a, as a share of a; negative is better
	bound            float64
}

// compare pairs up the end-to-end metrics of two results. Workloads present
// in only one of them are skipped.
func compare(a, b suiteResult) []finding {
	var out []finding
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name || wa.EndToEnd == nil || wb.EndToEnd == nil {
				continue
			}
			for _, d := range endToEnd {
				va, vb := wa.EndToEnd.Metrics[d.Name].Value, wb.EndToEnd.Metrics[d.Name].Value
				worse := ratio(vb-va, va)
				if d.Better == "higher" {
					worse = -worse
				}
				out = append(out, finding{wa.Name, d.Name, va, vb, worse, d.Bound})
			}
		}
	}
	return out
}

// printFindings prints every pair and returns those beyond their bound: the
// ones that got worse, or with repeat, which is the test two runs of the same
// code in one process must pass, the ones that moved either way. A repeat
// does not gate setup_s: the second run sets up in a process that has already
// grown a heap and returned it, which a new process has not, and on
// chain_membound that alone moves set-up by a fifth.
func printFindings(w io.Writer, fs []finding, repeat bool) []finding {
	var flagged []finding
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tworse by\tbound\t")
	for _, f := range fs {
		mark := ""
		switch {
		case repeat && f.metric == "setup_s":
			mark = "not gated"
		case f.worse > f.bound || (repeat && math.Abs(f.worse) > f.bound):
			mark = "BEYOND BOUND"
			flagged = append(flagged, f)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n", f.workload, f.metric, f.a, f.b, 100*f.worse, 100*f.bound, mark)
	}
	tw.Flush()
	return flagged
}

// selftestSensitivity proves the harness sees a regression without patching
// any source. It measures chain_membound twice with one extra annotated call,
// vdMulC by 1 over the chain's first output, which leaves every bit as it
// was, wrapped by faultinject: the first time the injector has nothing armed,
// the second time a hook on every invocation spins, sized so that the
// invocations of one evaluation add a fifth to it. (A sleep cannot be sized
// that finely: below a millisecond it rounds up to one.) The comparison must
// flag eval_s on chain_membound, must flag nothing on blackscholes_compute,
// which runs unchanged both times, and the modeled runtime of the plan must
// not move, because the plan is the same.
func selftestSensitivity(w io.Writer, cfg runConfig) error {
	names := []string{"chain_membound", "blackscholes_compute"}
	inj := faultinject.New(cfg.seed)
	fn := inj.WrapFunc("extra", func(args []any) (any, error) {
		vmath.MulC(args[0].(int), args[1].([]float64), args[2].(float64), args[3].([]float64))
		return nil, nil
	})
	sa := &mozart.Annotation{FuncName: "vdMulC", Params: []mozart.Param{
		{Name: "size", Type: vmathsa.SizeSplit(0)},
		{Name: "a", Type: vmathsa.ArraySplit(0)},
		{Name: "c", Type: mozart.Missing()},
		{Name: "out", Mut: true, Type: vmathsa.ArraySplit(0)},
	}}
	cfg.extra = func(s *mozart.Session, n int, out []float64) { s.Call(fn, sa, n, out, 1.0, out) }

	fmt.Fprintln(w, "self-test: measuring with the extra call, no fault armed")
	before, err := runSuite(names, cfg, false)
	if err != nil {
		return err
	}
	chain := before.Workloads[0]
	evalS := chain.EndToEnd.Metrics["eval_s"].Value
	callsPerWorker := chain.PerLayer.Metrics["core.batches"].Value / workers
	delay := time.Duration(0.2 * evalS / callsPerWorker * float64(time.Second))
	inj.Add("extra", faultinject.Fault{Aspect: faultinject.AspectCall, Kind: faultinject.KindHook, Hook: func() {
		for start := time.Now(); time.Since(start) < delay; {
		}
	}})
	fmt.Fprintf(w, "self-test: measuring with %v of injected work on each of %.0f calls per worker (eval_s was %.4gs)\n",
		delay, callsPerWorker, evalS)
	after, err := runSuite(names, cfg, false)
	if err != nil {
		return err
	}
	if before.incorrect() || after.incorrect() {
		return fmt.Errorf("self-test: incorrect outputs")
	}
	flagged := printFindings(w, compare(before, after), false)
	sawEval := false
	for _, f := range flagged {
		if f.workload != "chain_membound" {
			return fmt.Errorf("self-test: %s flagged on %s, which ran unchanged", f.metric, f.workload)
		}
		if f.metric == "eval_s" {
			sawEval = true
		}
	}
	if !sawEval {
		return fmt.Errorf("self-test: the injected slowdown was not flagged on chain_membound eval_s")
	}
	m0 := before.Workloads[0].PerLayer.Metrics["memsim.model_s"].Value
	m1 := after.Workloads[0].PerLayer.Metrics["memsim.model_s"].Value
	if m0 != m1 || m0 == 0 {
		return fmt.Errorf("self-test: memsim.model_s moved from %g to %g", m0, m1)
	}
	fmt.Fprintf(w, "self-test passed: eval_s flagged on chain_membound, nothing on blackscholes_compute, memsim.model_s %g both times\n", m0)
	return nil
}
