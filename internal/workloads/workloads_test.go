package workloads

import (
	"errors"
	"math"
	"testing"
)

// testScale returns a small but non-trivial scale per workload for tests.
func testScale(name string) int {
	switch name {
	case "nbody-numpy", "nbody-mkl":
		return 96
	case "shallowwater-numpy", "shallowwater-mkl":
		return 64
	case "nashville-imagemagick", "gotham-imagemagick":
		return 48
	case "speechtag-spacy":
		return 120
	default:
		return 5000
	}
}

// TestVariantsAgree is the end-to-end correctness gate: for every workload,
// every variant computes the same result as the unmodified library.
func TestVariantsAgree(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			cfg := Config{Scale: testScale(spec.Name), Threads: 3, Batch: 257}
			base, err := spec.Run(Base, cfg)
			if err != nil {
				t.Fatalf("base: %v", err)
			}
			if math.IsNaN(base) || base == 0 {
				t.Fatalf("suspicious base checksum %v", base)
			}
			for _, v := range spec.Variants {
				if v == Base {
					continue
				}
				got, err := spec.Run(v, cfg)
				if err != nil {
					t.Fatalf("%s: %v", v, err)
				}
				if rel := math.Abs(got-base) / (1 + math.Abs(base)); rel > 1e-6 {
					t.Errorf("%s checksum %v != base %v (rel %g)", v, got, base, rel)
				}
			}
		})
	}
}

// TestVariantsAgreeAcrossThreads: thread count must not change results.
func TestVariantsAgreeAcrossThreads(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			cfg1 := Config{Scale: testScale(spec.Name) / 2, Threads: 1}
			cfg8 := cfg1
			cfg8.Threads = 8
			a, err := spec.Run(Mozart, cfg1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := spec.Run(Mozart, cfg8)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(a-b) / (1 + math.Abs(a)); rel > 1e-9 {
				t.Errorf("threads=1 vs 8: %v vs %v", a, b)
			}
		})
	}
}

// TestRegistryShape: the paper's 15 workloads covering five libraries, plus
// the out-of-core streaming workload (counted under MKL with the vmath
// family it extends).
func TestRegistryShape(t *testing.T) {
	specs := All()
	if len(specs) != 16 {
		t.Fatalf("want 16 workloads (Table 2 + out-of-core), got %d", len(specs))
	}
	libs := map[string]int{}
	for _, s := range specs {
		libs[s.Library]++
		if s.Name == "" || s.Description == "" || s.Operators <= 0 || s.Prepare == nil {
			t.Errorf("%s: incomplete spec", s.Name)
		}
		if !s.HasVariant(Base) || !s.HasVariant(Mozart) {
			t.Errorf("%s: missing base/mozart variants", s.Name)
		}
		if s.DefaultScale <= 0 {
			t.Errorf("%s: missing default scale", s.Name)
		}
	}
	want := map[string]int{"NumPy": 4, "MKL": 5, "Pandas": 4, "spaCy": 1, "ImageMagick": 2}
	for lib, n := range want {
		if libs[lib] != n {
			t.Errorf("library %s: %d workloads, want %d", lib, libs[lib], n)
		}
	}
	if _, err := ByName("blackscholes-mkl"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName should fail for unknown workloads")
	}
}

// TestImageStepCounts: the filter pipelines have the paper's call counts.
func TestImageStepCounts(t *testing.T) {
	if n := len(nashvilleSteps()); n != 31 {
		t.Errorf("nashville has %d calls, want 31", n)
	}
	if n := len(gothamSteps()); n != 15 {
		t.Errorf("gotham has %d calls, want 15", n)
	}
}

// TestModelsProduceSaneShapes: every modeled workload shows the headline
// relationships in simulation: Mozart(16) beats Base(16), and disabling
// pipelining erases the win on pipelined chains.
func TestModelsProduceSaneShapes(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		if spec.Model == nil {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			cfg := Config{Scale: spec.DefaultScale, Threads: 16}
			mBase := spec.Model(Base, cfg)
			mMoz := spec.Model(Mozart, cfg)
			if mBase == nil || mMoz == nil {
				t.Skip("variant not modeled")
			}
			rb := runModel(mBase, 16)
			rm := runModel(mMoz, 16)
			if rm.Seconds > rb.Seconds*1.05 {
				t.Errorf("modeled Mozart (%.3fs) should not lose to base (%.3fs)", rm.Seconds, rb.Seconds)
			}
		})
	}
}

// TestUnsupportedVariant errors cleanly.
func TestUnsupportedVariant(t *testing.T) {
	spec, _ := ByName("speechtag-spacy")
	if _, err := spec.Run(Weld, Config{Scale: 10, Threads: 1}); err == nil {
		t.Fatal("weld variant should be unsupported for spaCy")
	}
	if !spec.HasVariant(Mozart) || spec.HasVariant(Weld) {
		t.Fatal("HasVariant")
	}
}

// TestProgramRunsOnce: a prepared program is single-use, since several
// workloads update their inputs in place; a second Run is an error.
func TestProgramRunsOnce(t *testing.T) {
	spec, _ := ByName("nbody-mkl")
	p, err := spec.Prepare(Config{Scale: 16, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(Base); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(Mozart); !errors.Is(err, errRan) {
		t.Fatalf("second Run: %v, want %v", err, errRan)
	}
}
