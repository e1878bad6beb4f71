package mozart_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mozart"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/tune"
)

// buildChain registers the canonical three-call chain on a session and
// returns the lazy total (sum(a) when b is all twos).
func buildChain(s *mozart.Session, n int) *mozart.Future {
	a := make([]float64, n)
	b := make([]float64, n)
	out := make([]float64, n)
	for i := range a {
		a[i] = float64(i + 1)
		b[i] = 2
	}
	vmathsa.Div(s, n, a, b, out)
	vmathsa.Add(s, n, out, out, out)
	return vmathsa.Sum(s, n, out)
}

// TestZeroValueTunerPlansIdentical pins the tentpole's compatibility
// contract: a session carrying a zero-value (inert) Tuner must plan byte
// for byte like a session with no BatchSource at all — same Explain tree,
// same provenance, same signature.
func TestZeroValueTunerPlansIdentical(t *testing.T) {
	const n = 1 << 12
	base := mozart.NewSession(mozart.Options{Workers: 2})
	buildChain(base, n)
	want, err := mozart.Explain(base)
	if err != nil {
		t.Fatal(err)
	}

	var inert tune.Tuner // zero value: never enabled
	tuned := mozart.NewSession(mozart.WithTuner(mozart.Options{Workers: 2}, &inert))
	buildChain(tuned, n)
	got, err := mozart.Explain(tuned)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("zero-value Tuner changed the plan:\n--- no tuner ---\n%s--- zero tuner ---\n%s", want, got)
	}
	if !strings.Contains(want, "[static]") {
		t.Errorf("untuned plan header missing [static] provenance:\n%s", want)
	}
}

// TestTunerProvenanceLoop drives one session through the full state
// machine and watches it in Explain: the first plan is [static], the plans
// after the baseline measurement are [sweeping], and once the sweep is over
// the header reads [calibrated] with the tuner's batch override — or, when
// the warm baseline beat every probe and the tuner reverted, [static] again
// (a reverted signature plans the static heuristic, tune.PlanBatch).
func TestTunerProvenanceLoop(t *testing.T) {
	clock := time.Unix(0, 0)
	tu := tune.New(tune.Config{
		Clock: func() time.Time { clock = clock.Add(time.Second); return clock },
		Seed:  1,
		// A small budget keeps the loop short; the grid for 2^15 elements
		// spans 512..32768.
		Budget: 8,
		// The in-process timings below are noisy; accept any sweep winner.
		Hysteresis: 1e-9,
	})
	const n = 1 << 15

	// header plans and evaluates the chain once and returns Explain's first
	// line, which ends in the batch rule and its [provenance].
	header := func() string {
		s := mozart.NewSession(mozart.WithTuner(mozart.Options{Workers: 2}, tu))
		total := buildChain(s, n)
		text, err := mozart.Explain(s)
		if err != nil {
			t.Fatal(err)
		}
		v, err := total.Float64()
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(n) * float64(n+1) / 2; v != want {
			t.Fatalf("sum = %v, want %v (tuned plan must stay correct)", v, want)
		}
		return strings.SplitN(text, "\n", 2)[0]
	}
	// state is the tuner's own view of the chain's one signature.
	state := func() tune.SignatureState {
		sts := tu.States()
		if len(sts) != 1 {
			t.Fatalf("tuner tracks %d signatures, want 1 (same chain every round)", len(sts))
		}
		return sts[0]
	}
	terminal := func() bool {
		p := state().Phase
		return p == tune.PhaseCalibrated || p == tune.PhaseReverted
	}

	if got := header(); !strings.HasSuffix(got, "[static]") {
		t.Fatalf("first evaluation: header %q, want [static]", got)
	}
	if got := header(); !strings.HasSuffix(got, "[sweeping]") {
		t.Fatalf("post-baseline: header %q, want [sweeping]", got)
	}
	// The sweep ends on the tuner's state, not on a rendering: a revert
	// renders as [static], which the loop has already seen.
	for i := 0; i < 20 && !terminal(); i++ {
		if got := header(); !strings.HasSuffix(got, "[sweeping]") {
			t.Fatalf("mid-sweep: header %q, want [sweeping]", got)
		}
	}
	if !terminal() {
		t.Fatalf("sweep never converged: phase %v after %d probes", state().Phase, state().SweepEvals)
	}
	st, got := state(), header()
	want := "[static]"
	if st.Phase == tune.PhaseCalibrated {
		want = fmt.Sprintf("batch=fixed %d elems [calibrated]", st.BestBatch)
	}
	if !strings.HasSuffix(got, want) {
		t.Errorf("after the sweep (phase %v): header %q, want it to end in %q", st.Phase, got, want)
	}
}

// TestPlanSignatureStable: the exported structural signature must be
// identical across sessions running the same chain, and must not depend on
// the worker count — that is what lets one Tuner serve many sessions.
func TestPlanSignatureStable(t *testing.T) {
	sig := func(workers int) string {
		s := mozart.NewSession(mozart.Options{Workers: workers})
		buildChain(s, 1<<12)
		p, err := s.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return mozart.PlanSignature(p)
	}
	s2, s8 := sig(2), sig(8)
	if s2 == "" {
		t.Fatal("empty signature")
	}
	if s2 != s8 {
		t.Errorf("signature depends on workers:\n2: %s\n8: %s", s2, s8)
	}
}
