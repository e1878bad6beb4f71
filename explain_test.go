package mozart_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mozart"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/obs"
	"mozart/internal/plan"
	"mozart/internal/workloads"
)

// Golden-file tests for the EXPLAIN rendering: the planner's real plan for
// two representative workloads (a vector-math chain and a dataframe
// pipeline), and for two chains over different element counts, is pinned
// byte for byte. Regenerate with
//
//	UPDATE_GOLDEN=1 go test -run TestExplainGolden .

func TestExplainGoldenWorkloads(t *testing.T) {
	for _, name := range []string{"blackscholes-mkl", "datacleaning-pandas"} {
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var plans []*plan.Plan
			cfg := workloads.Config{
				Scale:   1 << 15,
				Threads: 4,
				OnPlan:  func(p *plan.Plan) { plans = append(plans, p) },
			}
			if _, err := spec.Run(workloads.Mozart, cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(plans) == 0 {
				t.Fatalf("%s: no plan captured", name)
			}
			checkExplainGolden(t, "explain-"+name+".golden", mozart.RenderPlan(plans[0]))
		})
	}
}

// TestExplainGoldenElementSpaces pins the plan of two independent in-place
// chains over 1000 and 500 elements: two stages, one per element space.
func TestExplainGoldenElementSpaces(t *testing.T) {
	s := mozart.NewSession(mozart.Options{Workers: 2})
	a, b := make([]float64, 1000), make([]float64, 500)
	vmathsa.Log1p(s, len(a), a, a)
	vmathsa.Sqrt(s, len(a), a, a)
	vmathsa.Log1p(s, len(b), b, b)
	vmathsa.Sqrt(s, len(b), b, b)
	got, err := mozart.Explain(s)
	if err != nil {
		t.Fatal(err)
	}
	checkExplainGolden(t, "explain-element-spaces.golden", got)
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// checkExplainGolden compares got with testdata/name, or rewrites the file
// under UPDATE_GOLDEN.
func checkExplainGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test -run TestExplainGolden .)", err)
	}
	if got != string(want) {
		t.Errorf("rendered plan differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// planEventTracer records the Detail of every EvPlan event.
type planEventTracer struct {
	mu      sync.Mutex
	details []string
}

func (p *planEventTracer) Emit(e obs.Event) {
	if e.Kind != obs.EvPlan {
		return
	}
	p.mu.Lock()
	p.details = append(p.details, e.Detail)
	p.mu.Unlock()
}

// TestExplainMatchesPlanEvent pins the identity between the two public
// renderings of the plan IR: every stage clause the obs plan event carries
// must appear verbatim as a stage header line in the Explain tree, because
// both come from the same Plan. It also checks Explain is read-only: the
// evaluation after Explain still computes the right answer.
func TestExplainMatchesPlanEvent(t *testing.T) {
	tr := &planEventTracer{}
	s := mozart.NewSession(mozart.Options{Workers: 2, Tracer: tr})

	const n = 1 << 12
	a := make([]float64, n)
	b := make([]float64, n)
	out := make([]float64, n)
	for i := range a {
		a[i] = float64(i + 1)
		b[i] = 2
	}
	vmathsa.Div(s, n, a, b, out) // out = a / 2
	vmathsa.Add(s, n, out, out, out)
	total := vmathsa.Sum(s, n, out) // sum(a) back again

	explained, err := mozart.Explain(s)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.HasPrefix(explained, "plan: ") {
		t.Fatalf("Explain output missing plan header:\n%s", explained)
	}

	v, err := total.Float64()
	if err != nil {
		t.Fatalf("evaluation after Explain: %v", err)
	}
	want := float64(n) * float64(n+1) / 2
	if v != want {
		t.Errorf("sum = %v, want %v (Explain must not perturb evaluation)", v, want)
	}

	tr.mu.Lock()
	details := append([]string(nil), tr.details...)
	tr.mu.Unlock()
	if len(details) != 1 {
		t.Fatalf("expected 1 plan event, got %d", len(details))
	}
	lines := map[string]bool{}
	for _, l := range strings.Split(explained, "\n") {
		lines[strings.TrimSpace(l)] = true
	}
	for _, clause := range strings.Split(details[0], "; ") {
		if !lines[clause] {
			t.Errorf("plan event clause %q is not a line of the Explain tree:\n%s", clause, explained)
		}
	}
}
