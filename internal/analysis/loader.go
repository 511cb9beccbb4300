package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path ("hbspk/internal/pvm"); external
	// test packages carry a "_test" suffix.
	Path string
	// Dir is the package's directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Lazily-built per-package summaries, shared across the analyzers of
	// one RunAnalyzers invocation so the interprocedural layer (call
	// graph, alignment summaries) is computed once per package rather
	// than once per analyzer — the cache that keeps the whole-repo run
	// inside the CI wall-time budget.
	cg        *callGraph
	alignSums map[*types.Func]string
}

// Loader loads packages of one module from source, resolving in-module
// imports against the module directory and everything else through the
// standard library's source importer — no compiled export data and no
// network are required. It implements types.Importer for dependencies.
type Loader struct {
	// ModuleDir is the directory holding go.mod; ModulePath the module
	// path declared there.
	ModuleDir  string
	ModulePath string
	// IncludeTests merges in-package _test.go files into requested
	// packages and additionally loads external test packages.
	IncludeTests bool

	fset     *token.FileSet
	std      types.Importer
	deps     map[string]*types.Package
	building map[string]bool
}

// NewLoader returns a loader for the module rooted at dir. When the
// directory has no go.mod, modulePath may be "" and only stdlib imports
// resolve (the testdata harness runs in this mode with self-contained
// packages).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		ModuleDir: abs,
		fset:      token.NewFileSet(),
		deps:      make(map[string]*types.Package),
		building:  make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if data, err := os.ReadFile(filepath.Join(abs, "go.mod")); err == nil {
		l.ModulePath = modulePathOf(string(data))
	}
	return l, nil
}

// modulePathOf extracts the module path from go.mod contents.
func modulePathOf(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import resolves a dependency import: in-module paths load from source
// under ModuleDir (without test files), everything else delegates to the
// stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.localDir(path); ok {
		if pkg, ok := l.deps[path]; ok {
			return pkg, nil
		}
		if l.building[path] {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		l.building[path] = true
		defer delete(l.building, path)
		loaded, err := l.load(dir, path, false)
		if err != nil {
			return nil, err
		}
		if len(loaded) == 0 {
			return nil, fmt.Errorf("analysis: no Go files in %q", path)
		}
		l.deps[path] = loaded[0].Types
		return loaded[0].Types, nil
	}
	return l.std.Import(path)
}

// localDir maps an import path to a directory inside the module, if it
// belongs to it.
func (l *Loader) localDir(path string) (string, bool) {
	if l.ModulePath == "" {
		// Rootless mode (testdata): import paths are directories relative
		// to ModuleDir.
		dir := filepath.Join(l.ModuleDir, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
		return "", false
	}
	if path == l.ModulePath {
		return l.ModuleDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Load loads the packages named by patterns: either directory paths
// ("./internal/pvm", possibly with a trailing "/...") or the bare "./..."
// walking the whole module. Each pattern must resolve to at least one
// package.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		expanded, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		path := l.importPathOf(dir)
		loaded, err := l.load(dir, path, l.IncludeTests)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded...)
	}
	return pkgs, nil
}

func (l *Loader) expand(pattern string) ([]string, error) {
	recursive := false
	if pattern == "all" {
		pattern, recursive = ".", true
	}
	if rest, ok := strings.CutSuffix(pattern, "/..."); ok {
		pattern, recursive = rest, true
		if pattern == "" {
			pattern = "."
		}
	}
	root := pattern
	if !filepath.IsAbs(root) {
		root = filepath.Join(l.ModuleDir, root)
	}
	st, err := os.Stat(root)
	if err != nil || !st.IsDir() {
		return nil, fmt.Errorf("analysis: pattern %q: not a directory under %s", pattern, l.ModuleDir)
	}
	if !recursive {
		return []string{root}, nil
	}
	var dirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") && !strings.HasPrefix(e.Name(), "_") {
			return true
		}
	}
	return false
}

func (l *Loader) importPathOf(dir string) string {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || rel == "." {
		if l.ModulePath != "" {
			return l.ModulePath
		}
		return "."
	}
	rel = filepath.ToSlash(rel)
	if l.ModulePath != "" {
		return l.ModulePath + "/" + rel
	}
	return rel
}

// load parses and type-checks the package in dir. With tests set, the
// in-package _test.go files are merged and an external _test package, if
// present, is returned as a second Package.
func (l *Loader) load(dir, path string, tests bool) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var base, inTest, extTest []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !tests {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		switch {
		case !isTest:
			base = append(base, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		default:
			inTest = append(inTest, f)
		}
	}
	var pkgs []*Package
	if len(base)+len(inTest) > 0 {
		pkg, err := l.check(path, dir, append(base, inTest...))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		// The external test package imports the base package; make the
		// just-checked unit available to it (without test files would be
		// more faithful, but the merged unit is a superset and cheaper).
		if len(extTest) > 0 {
			if _, ok := l.deps[path]; !ok {
				l.deps[path] = pkg.Types
			}
		}
	}
	if len(extTest) > 0 {
		pkg, err := l.check(path+"_test", dir, extTest)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// check type-checks one compilation unit. Type errors are fatal: the
// analyzers require fully typed trees.
func (l *Loader) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if typeErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, typeErr)
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}
