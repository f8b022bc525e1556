package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked unit of analysis: a module package together
// with its in-package _test.go files, or a synthetic external-test
// (package foo_test) unit.
type Package struct {
	// Path is the import path ("csmaterials/internal/nnmf"); external
	// test packages get the real build-system spelling with a "_test"
	// suffix ("csmaterials_test").
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft go/types errors; analysis still runs on
	// the partial package, but cmd/lint reports them and exits non-zero.
	TypeErrors []error
}

// Loader parses and type-checks module packages using only the standard
// library: go/parser for syntax, go/types for checking, and the source
// importer for GOROOT packages. Module-internal imports are resolved by
// mapping the import path onto a directory under the module root, exactly
// as the go tool would, and are type-checked without their test files so
// the import graph matches the real build graph (no artificial cycles
// through _test.go files).
type Loader struct {
	Root    string // module root (directory containing go.mod)
	ModPath string // module path from go.mod

	fset     *token.FileSet
	std      types.Importer            // source importer for GOROOT packages
	imported map[string]*types.Package // no-test packages, by import path
	loading  map[string]bool           // cycle detection for imports
}

// NewLoader builds a Loader rooted at the directory containing go.mod.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:     abs,
		ModPath:  modPath,
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		imported: make(map[string]*types.Package),
		loading:  make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer. Module-internal paths load from disk
// (without test files); everything else delegates to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		return l.importModulePkg(path)
	}
	return l.std.Import(path)
}

// importModulePkg type-checks (and caches) a module package without its
// test files, for use as an import.
func (l *Loader) importModulePkg(path string) (*types.Package, error) {
	if pkg, ok := l.imported[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")))
	files, _, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files for import %q in %s", path, dir)
	}
	pkg, _, errs := l.check(path, files)
	if pkg == nil {
		return nil, fmt.Errorf("lint: type-checking import %q failed: %v", path, errs[0])
	}
	l.imported[path] = pkg
	return pkg, nil
}

// parseDir parses the .go files in dir that the go tool would build
// for this GOOS and GOARCH, split into package files, in-package test
// files, and external (package foo_test) test files. A file whose
// _GOOS/_GOARCH suffix or //go:build line excludes it is skipped, so
// per-platform twins of one declaration never meet.
func (l *Loader) parseDir(dir string) (pkgFiles, testFiles, xtestFiles []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, nil, nil, fmt.Errorf("lint: %w", err)
		}
		if match {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("lint: %w", err)
		}
		switch {
		case strings.HasSuffix(file.Name.Name, "_test"):
			xtestFiles = append(xtestFiles, file)
		case strings.HasSuffix(name, "_test.go"):
			testFiles = append(testFiles, file)
		default:
			pkgFiles = append(pkgFiles, file)
		}
	}
	return pkgFiles, testFiles, xtestFiles, nil
}

// check runs go/types over files, collecting soft errors so analysis can
// proceed on partially broken packages.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, []error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil && len(errs) == 0 {
		errs = append(errs, err)
	}
	return pkg, info, errs
}

// LoadDirAs type-checks the package in dir (non-test plus in-package test
// files, with any external-test files as a second package) under the given
// import path and returns the analysis packages. Fixture tests use the
// asPath override to exercise path-sensitive analyzers such as determinism.
func (l *Loader) LoadDirAs(dir, asPath string) ([]*Package, error) {
	pkgFiles, testFiles, xtestFiles, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	if len(pkgFiles)+len(testFiles) > 0 {
		files := append(append([]*ast.File(nil), pkgFiles...), testFiles...)
		tpkg, info, errs := l.check(asPath, files)
		if tpkg == nil {
			return nil, fmt.Errorf("lint: type-checking %s failed: %v", dir, errs[0])
		}
		pkgs = append(pkgs, &Package{
			Path: asPath, Dir: dir, Fset: l.fset,
			Files: files, Types: tpkg, Info: info, TypeErrors: errs,
		})
	}
	if len(xtestFiles) > 0 {
		tpkg, info, errs := l.check(asPath+"_test", xtestFiles)
		if tpkg == nil {
			return nil, fmt.Errorf("lint: type-checking %s external tests failed: %v", dir, errs[0])
		}
		pkgs = append(pkgs, &Package{
			Path: asPath + "_test", Dir: dir, Fset: l.fset,
			Files: xtestFiles, Types: tpkg, Info: info, TypeErrors: errs,
		})
	}
	return pkgs, nil
}

// LoadAll walks the module tree and loads every package for analysis,
// in deterministic directory order. Hidden directories, testdata, and
// vendor trees are skipped.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.Root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModPath
		if rel != "." {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		loaded, err := l.LoadDirAs(dir, path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
		pkgs = append(pkgs, loaded...)
	}
	return pkgs, nil
}
