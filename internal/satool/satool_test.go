package satool

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleSA = `
# Split annotations for the vmath vector-math header.
package wrappers
import vm "mozart/internal/vmath"

splittype ArraySplit(int);
splittype SizeSplit(int);
splittype AddReduce();

@splittable(size: SizeSplit(size), a: ArraySplit(size), mut out: ArraySplit(size))
func Log1p(size int, a []float64, out []float64);

@splittable(size: SizeSplit(size), a: ArraySplit(size), b: ArraySplit(size), mut out: ArraySplit(size))
func Add(size int, a []float64, b []float64, out []float64);

@splittable(size: SizeSplit(size), x: ArraySplit(size), y: ArraySplit(size)) -> AddReduce()
func Dot(size int, x []float64, y []float64) float64;

@splittable(a: S, v: _) -> S
func Scale2(a []float64, v float64) []float64;

@splittable(m: _) -> unknown
func Reverse(m []float64) []float64;
`

func TestParseSample(t *testing.T) {
	f, err := Parse(sampleSA)
	if err != nil {
		t.Fatal(err)
	}
	if f.Package != "wrappers" || f.ImportName != "vm" || f.ImportPath != "mozart/internal/vmath" {
		t.Fatalf("header: %+v", f)
	}
	if len(f.SplitTypes) != 3 {
		t.Fatalf("split types: %d", len(f.SplitTypes))
	}
	if f.SplitTypes[0].Name != "ArraySplit" || f.SplitTypes[0].Params != 1 {
		t.Fatalf("ArraySplit decl: %+v", f.SplitTypes[0])
	}
	if f.SplitTypes[2].Params != 0 {
		t.Fatalf("AddReduce arity: %+v", f.SplitTypes[2])
	}
	if len(f.Funcs) != 5 {
		t.Fatalf("funcs: %d", len(f.Funcs))
	}

	log1p := f.Funcs[0]
	if log1p.Name != "Log1p" || len(log1p.Params) != 3 {
		t.Fatalf("Log1p: %+v", log1p)
	}
	if !log1p.Params[2].Mut || log1p.Params[0].Mut {
		t.Fatal("mut flags")
	}
	if log1p.Params[1].Type.Kind != KindConcrete || log1p.Params[1].Type.Name != "ArraySplit" ||
		len(log1p.Params[1].Type.CtorArgs) != 1 || log1p.Params[1].Type.CtorArgs[0] != "size" {
		t.Fatalf("ArraySplit(size) expr: %+v", log1p.Params[1].Type)
	}
	if log1p.Params[1].GoType != "[]float64" || log1p.Params[0].GoType != "int" {
		t.Fatal("Go types")
	}
	if log1p.Ret != nil || log1p.RetGo != "" {
		t.Fatal("Log1p should be void")
	}

	dot := f.Funcs[2]
	if dot.Ret == nil || dot.Ret.Kind != KindConcrete || dot.Ret.Name != "AddReduce" || dot.RetGo != "float64" {
		t.Fatalf("Dot return: %+v %q", dot.Ret, dot.RetGo)
	}

	scale := f.Funcs[3]
	if scale.Params[0].Type.Kind != KindGeneric || scale.Params[0].Type.Name != "S" {
		t.Fatalf("generic: %+v", scale.Params[0].Type)
	}
	if scale.Params[1].Type.Kind != KindMissing {
		t.Fatal("missing type")
	}
	if scale.Ret.Kind != KindGeneric {
		t.Fatal("generic return")
	}

	rev := f.Funcs[4]
	if rev.Ret.Kind != KindUnknown {
		t.Fatal("unknown return")
	}
}

// parseErrorCases are the sources TestParseErrors rejects and FuzzParse
// seeds its corpus with.
var parseErrorCases = []struct {
	name, src, want string
}{
	{"no package", `splittype X(int);`, "missing package"},
	{"bad token", "package p\nwhatever", "unexpected input"},
	{"unknown split type", "package p\n@splittable(a: Foo(a))\nfunc F(a int);", "unknown split type"},
	{"ctor arg not param", "package p\nsplittype X(int);\n@splittable(a: X(b))\nfunc F(a int);", "not a parameter"},
	{"param name mismatch", "package p\n@splittable(a: _)\nfunc F(b int);", "in the annotation"},
	{"param count mismatch", "package p\n@splittable(a: _)\nfunc F(a int, b int);", "more parameters"},
	{"missing colon", "package p\n@splittable(a _)\nfunc F(a int);", `expected ":"`},
	{"void with ret SA", "package p\n@splittable(a: _) -> unknown\nfunc F(a int);", "void Go signature"},
	{"ret without SA", "package p\n@splittable(a: _)\nfunc F(a int) int;", "no return split type"},
	{"dup splittype", "package p\nsplittype X(int);\nsplittype X(int);", "duplicate splittype"},
	{"unterminated import", "package p\nimport lib \"x", "unterminated"},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestGenerate(t *testing.T) {
	f, err := Parse(sampleSA)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package wrappers",
		`vm "mozart/internal/vmath"`,
		"func Log1p(s *core.Session, size any, a any, out any)",
		"func Dot(s *core.Session, size any, x any, y any) *core.Future",
		"func Scale2(s *core.Session, a any, v float64) *core.Future",
		`typeExpr("ArraySplit", []int{0})`,
		"Mut: true",
		`core.Generic("S")`,
		"core.Unknown()",
		"args[0].(int)",
		"vm.Add(args[0].(int), args[1].([]float64), args[2].([]float64), args[3].([]float64))",
		"requiredSplitTypes = []string{\"AddReduce\", \"ArraySplit\", \"SizeSplit\"}",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

// FuzzParse: Parse never panics on any input, and Generate never panics on
// a File that Parse accepted (it may still reject it with an error). The
// corpus is seeded with the vmath header the gensa package is generated
// from, the sample above and every source TestParseErrors rejects.
func FuzzParse(f *testing.F) {
	vmathSA, err := os.ReadFile(filepath.Join("..", "annotations", "gensa", "vmath.sa"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(vmathSA))
	f.Add(sampleSA)
	for _, c := range parseErrorCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		Generate(file)
	})
}
