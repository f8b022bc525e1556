package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestSpanTaxonomyMatchesDesign holds DESIGN §10's span table to the
// code both ways: every span name the module's non-test code passes to
// StartSpan, AddSpan or EndAs is a string literal the table lists, and
// every name the table lists is recorded somewhere.
func TestSpanTaxonomyMatchesDesign(t *testing.T) {
	root := filepath.Join("..", "..")
	recorded := recordedSpanNames(t, root)
	documented := documentedSpanNames(t, filepath.Join(root, "DESIGN.md"))
	if len(recorded) == 0 || len(documented) == 0 {
		t.Fatalf("found %d recorded and %d documented span names; the scan is broken", len(recorded), len(documented))
	}
	for _, name := range sortedNames(recorded) {
		if !documented[name] {
			t.Errorf("span %q is recorded at %s but missing from DESIGN §10's span table", name, recorded[name])
		}
	}
	for _, name := range sortedNames(documented) {
		if recorded[name] == "" {
			t.Errorf("DESIGN §10's span table lists %q, which no non-test code records", name)
		}
	}
}

// recordedSpanNames maps each span name the module's non-test Go code
// passes to StartSpan, AddSpan or EndAs to one place it does so. It
// skips hidden directories, testdata and nested modules.
func recordedSpanNames(t *testing.T, root string) map[string]string {
	t.Helper()
	names := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var fn string
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				fn = fun.Sel.Name
			case *ast.Ident:
				fn = fun.Name
			}
			arg := -1
			switch {
			case (fn == "StartSpan" || fn == "AddSpan") && len(call.Args) >= 2:
				arg = 1
			case fn == "EndAs" && len(call.Args) == 1:
				arg = 0
			}
			if arg < 0 {
				return true
			}
			pos := fset.Position(call.Pos()).String()
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: %s takes a span name that is not a string literal", pos, fn)
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatalf("%s: %v", pos, err)
			}
			if names[name] == "" {
				names[name] = pos
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// documentedSpanNames returns the backquoted names in the first column
// of the table under DESIGN.md's "### Span taxonomy" heading.
func documentedSpanNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "### Span taxonomy\n")
	if !ok {
		t.Fatal("DESIGN.md has no span taxonomy section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	code := regexp.MustCompile("`([^`]+)`")
	names := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range code.FindAllStringSubmatch(cells[1], -1) {
			names[m[1]] = true
		}
	}
	return names
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
