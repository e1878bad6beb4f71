package plan

import (
	"strings"
	"testing"
)

func TestBatchPolicyElems(t *testing.T) {
	def := BatchPolicy{}
	if got, want := def.Elems(24, 1<<30), DefaultL2CacheBytes*4/24; got != want {
		t.Errorf("default heuristic: got %d, want %d", got, want)
	}
	if got := def.Elems(96, 100); got != 100 {
		t.Errorf("clamp to total: got %d, want 100", got)
	}
	if got := def.Elems(1<<40, 1<<30); got != 1 {
		t.Errorf("lower clamp: got %d, want 1", got)
	}
	if got := def.Elems(96, 0); got != DefaultL2CacheBytes*4/96 {
		t.Errorf("total<=0 must not clamp: got %d", got)
	}
	fixed := BatchPolicy{FixedElems: 512}
	if got := fixed.Elems(96, 1<<20); got != 512 {
		t.Errorf("fixed: got %d, want 512", got)
	}
	if got := fixed.Elems(96, 100); got != 100 {
		t.Errorf("fixed clamps to total: got %d, want 100", got)
	}
	custom := BatchPolicy{Constant: 2, L2CacheBytes: 1 << 10}
	if got := custom.CacheTargetBytes(); got != 2<<10 {
		t.Errorf("cache target: got %d, want %d", got, 2<<10)
	}
}

func TestStageBytes(t *testing.T) {
	// Known widths sum; produced values estimated at the mean known width.
	if got := StageBytes([]int64{8, 8, 0}, 0, 0); got != 16 {
		t.Errorf("inputs only: got %d, want 16", got)
	}
	if got := StageBytes([]int64{24}, 7, 0); got != 24*8 {
		t.Errorf("produced at mean width: got %d, want %d", got, 24*8)
	}
	if got := StageBytes([]int64{-1, 0}, 3, 16); got != 48 {
		t.Errorf("fallback width: got %d, want 48", got)
	}
	if got := StageBytes(nil, 2, 0); got != 0 {
		t.Errorf("no widths, no fallback: got %d, want 0", got)
	}
}

func testPlan() *Plan {
	ret := &Arg{Binding: 9, Name: "ret", Split: "AddReduce"}
	return &Plan{
		Pipelining: true,
		Stages: []Stage{
			{
				Kind: StageSplit,
				Calls: []Call{
					{Name: "vdMulC", Args: []Arg{
						{Binding: 0, Name: "n", Split: "SizeSplit<64>"},
						{Binding: 1, Name: "a", Split: "ArraySplit<64>"},
						{Binding: 2, Name: "c", Broadcast: true, Split: "_"},
						{Binding: 3, Name: "out", Mut: true, Split: "ArraySplit<64>"},
					}},
					{Name: "vdSum", Args: []Arg{
						{Binding: 4, Name: "n", Split: "SizeSplit<64>"},
						{Binding: 3, Name: "a", Split: "ArraySplit<64>"},
					}, Ret: ret, RetReduced: true},
				},
				Inputs: []Value{
					{Binding: 0, Split: "SizeSplit<64>", Elems: 64, ElemBytes: 0},
					{Binding: 1, Split: "ArraySplit<64>", Elems: 64, ElemBytes: 8},
					{Binding: 3, Split: "ArraySplit<64>", Elems: 64, ElemBytes: 8},
					{Binding: 4, Split: "SizeSplit<64>", Elems: 64, ElemBytes: 0},
				},
				Outputs:   []Value{{Binding: 9, Split: "AddReduce", Elems: -1, ElemBytes: -1}},
				Broadcast: []int{2},
			},
			{
				Kind:  StageWhole,
				Calls: []Call{{Name: "df.join", Args: []Arg{{Binding: 5, Name: "a", Broadcast: true, Split: "_"}}}},
			},
		},
	}
}

func TestDescribeAndSummary(t *testing.T) {
	p := testPlan()
	want := "stage 0 [vdMulC -> vdSum] split[ArraySplit<64>]; stage 1 [df.join] split[whole]"
	if got := p.Describe(); got != want {
		t.Errorf("Describe:\n got %q\nwant %q", got, want)
	}
	if got := p.Stages[0].SplitLabel(); got != "ArraySplit<64>" {
		t.Errorf("SplitLabel must skip zero-width SizeSplit, got %q", got)
	}
}

// Pipeline is what every stage event carries: one allocation, however many
// calls the stage pipelines.
func TestPipelineOneAllocation(t *testing.T) {
	st := &Stage{}
	for _, n := range []string{"vdLog1p", "vdAdd", "vdMul", "vdDiv", "vdExp", "vdSqrt"} {
		st.Calls = append(st.Calls, Call{Name: n})
	}
	if got, want := st.Pipeline(), "vdLog1p -> vdAdd -> vdMul -> vdDiv -> vdExp -> vdSqrt"; got != want {
		t.Errorf("Pipeline = %q, want %q", got, want)
	}
	if got := (&Stage{}).Pipeline(); got != "" {
		t.Errorf("empty stage Pipeline = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = st.Pipeline() }); n > 1 {
		t.Errorf("Pipeline: %v allocations, want <= 1", n)
	}
}

func TestRenderContainsSummariesAndDetail(t *testing.T) {
	p := testPlan()
	out := Render(p)
	for _, clause := range strings.Split(p.Describe(), "; ") {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if line == clause {
				found = true
			}
		}
		if !found {
			t.Errorf("Render is missing the Describe clause %q verbatim:\n%s", clause, out)
		}
	}
	for _, want := range []string{
		"plan: 2 stages, pipelining=on, batch=C*L2/s (C=4, L2=262144B)",
		"working set: 16B/elem (4 inputs + 0 produced) -> batch 64 of 64 elems",
		"vdMulC(n:%0:SizeSplit<64>, a:%1:ArraySplit<64>, c:_, mut out:%3:ArraySplit<64>)",
		"-> %9:AddReduce (reduce)",
		"inputs: 2x SizeSplit<64>, 2x ArraySplit<64> x8B",
		"broadcast: %2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
}
