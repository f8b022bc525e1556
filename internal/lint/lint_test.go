package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// -update regenerates the expect.txt golden files from current analyzer
// output (review the diff before committing, exactly like the figure
// goldens in internal/core).
var update = flag.Bool("update", false, "rewrite testdata expect.txt files")

// sharedLoader amortizes stdlib type-checking (the source importer
// compiles net/http and friends once) across all fixture tests.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader("../..")
})

// runFixture loads testdata/<name> under asPath, runs exactly one
// analyzer, and compares the rendered diagnostics against
// testdata/<name>/expect.txt.
func runFixture(t *testing.T, a *Analyzer, name, asPath string) {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir := filepath.Join("testdata", name)
	pkgs, err := loader.LoadDirAs(dir, asPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s does not type-check: %v", dir, terr)
		}
	}
	var got []string
	for _, d := range Run(pkgs, []*Analyzer{a}) {
		got = append(got, fmt.Sprintf("%s:%d:%d: [%s] %s",
			filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule, d.Message))
	}

	goldenPath := filepath.Join(dir, "expect.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatalf("updating %s: %v", goldenPath, err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s (run with -update to generate): %v", goldenPath, err)
	}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			want = append(want, line)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: got %d diagnostics, want %d\n--- got ---\n%s\n--- want ---\n%s",
			name, len(got), len(want), strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: diagnostic %d\n  got:  %s\n  want: %s", name, i, got[i], want[i])
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	// Loaded as internal/dataset so the real compute-package matcher,
	// not a test shim, decides applicability.
	runFixture(t, DeterminismAnalyzer(), "determinism", "csmaterials/internal/dataset")
}

func TestFloatCompareFixture(t *testing.T) {
	runFixture(t, FloatCompareAnalyzer(), "floatcompare", "fixture/floatcompare")
}

func TestErrDropFixture(t *testing.T) {
	runFixture(t, ErrDropAnalyzer(), "errdrop", "fixture/errdrop")
}

func TestHTTPWriteFixture(t *testing.T) {
	runFixture(t, HTTPWriteAnalyzer(), "httpwrite", "csmaterials/internal/server")
}

func TestLockDisciplineFixture(t *testing.T) {
	runFixture(t, LockDisciplineAnalyzer(), "lockdiscipline", "fixture/lockdiscipline")
}

// TestHTTPWriteWideFixture pins the widened scope: a package far from
// internal/server is still checked once it defines handler code.
func TestHTTPWriteWideFixture(t *testing.T) {
	runFixture(t, HTTPWriteAnalyzer(), "httpwritewide", "fixture/anywhere")
}

func TestCtxFlowFixture(t *testing.T) {
	// Loaded as internal/engine so the Executor roots and the detach
	// layer's lint:detach blessing are both exercised.
	runFixture(t, CtxFlowAnalyzer(), "ctxflow", "csmaterials/internal/engine")
}

// TestCtxFlowScopeFixture pins the layer gate: lint:detach outside the
// engine/serving layer does not suppress, it gets its own message.
func TestCtxFlowScopeFixture(t *testing.T) {
	runFixture(t, CtxFlowAnalyzer(), "ctxflowscope", "csmaterials/internal/server")
}

func TestGoroutineLifeFixture(t *testing.T) {
	runFixture(t, GoroutineLifeAnalyzer(), "goroutinelife", "csmaterials/internal/serving")
}

func TestMetricLabelFixture(t *testing.T) {
	runFixture(t, MetricLabelAnalyzer(), "metriclabel", "fixture/metriclabel")
}

// TestDeterminismSkipsServingStack pins the compute-package boundary: the
// serving stack legitimately reads real time and may iterate maps.
func TestDeterminismSkipsServingStack(t *testing.T) {
	for path, want := range map[string]bool{
		"csmaterials/internal/nnmf":            true,
		"csmaterials/internal/dataset":         true,
		"csmaterials/internal/matrix":          true,
		"csmaterials/internal/factorize":       true,
		"csmaterials/internal/viz":             true,
		"csmaterials/internal/engine/analyses": true,
		"csmaterials/internal/engine":          false,
		"csmaterials/internal/server":          false,
		"csmaterials/internal/serving":         false,
		"csmaterials/internal/resilience":      false,
		"csmaterials/internal/lint":            false,
		"csmaterials/cmd/serve":                false,
		"csmaterials":                          false,
	} {
		if got := IsComputePackage(path); got != want {
			t.Errorf("IsComputePackage(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d analyzers, err %v; want all %d", len(all), err, len(All()))
	}
	two, err := Select("determinism, errdrop")
	if err != nil || len(two) != 2 || two[0].Name != "determinism" || two[1].Name != "errdrop" {
		t.Fatalf("Select picked %v, err %v", two, err)
	}
	if _, err := Select("nosuchrule"); err == nil {
		t.Fatal("Select accepted an unknown rule")
	}
}

// TestLoaderResolvesModuleImports exercises the custom importer on a real
// package whose imports span the module (materials, ontology, stats) and
// the standard library.
func TestLoaderResolvesModuleImports(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir := filepath.Join(loader.Root, "internal", "agreement")
	pkgs, err := loader.LoadDirAs(dir, "csmaterials/internal/agreement")
	if err != nil {
		t.Fatalf("loading internal/agreement: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("type error: %v", terr)
		}
		if pkg.Types == nil || pkg.Info == nil {
			t.Fatalf("package %s missing type information", pkg.Path)
		}
	}
}

// TestLoaderHonoursBuildConstraints loads a package as the go tool
// builds it: of a per-arch pair declaring one function (an _amd64.go
// file and a //go:build !amd64 twin) only this GOARCH's file, and no
// //go:build ignore file, so the package type-checks.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.LoadDirAs(filepath.Join("testdata", "buildtags"), "csmaterials/internal/lint/testdata/buildtags")
	if err != nil {
		t.Fatalf("loading the fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	for _, terr := range pkgs[0].TypeErrors {
		t.Errorf("type error: %v", terr)
	}
	var got []string
	for _, f := range pkgs[0].Files {
		got = append(got, filepath.Base(pkgs[0].Fset.Position(f.Pos()).Filename))
	}
	want := "arch_other.go buildtags.go"
	if runtime.GOARCH == "amd64" {
		want = "arch_amd64.go buildtags.go"
	}
	if strings.Join(got, " ") != want {
		t.Fatalf("loaded files %v, want %s", got, want)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "determinism", Message: "m"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line, d.Pos.Column = 3, 7
	if got, want := d.String(), "a/b.go:3:7: [determinism] m"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
