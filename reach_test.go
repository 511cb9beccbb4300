package hbspk

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Reasons a function may stay unreached.
const (
	forApps   = "kept until the §6 applications are priced and planned, or deleted (ROADMAP)"
	forPaper  = "kept until the paper's own §4 equations are checked against runs (ROADMAP)"
	forHelper = "test helper shared across packages"
)

// unreached names each function that no command, example or benchmark
// reaches and that stays anyway, with the reason it stays. Keys are
// linker symbols: pkg.F, pkg.T.M or pkg.(*T).M.
var unreached = map[string]string{
	"hbspk/internal/apps.MatVec":                    forApps,
	"hbspk/internal/apps.MatMul":                    forApps,
	"hbspk/internal/apps.Histogram":                 forApps,
	"hbspk/internal/apps.Jacobi":                    forApps,
	"hbspk/internal/apps.SpMV":                      forApps,
	"hbspk/internal/apps.(*CSR).NNZ":                forApps,
	"hbspk/internal/apps.(*CSR).Validate":           forApps,
	"hbspk/internal/apps.nnzPartition":              forApps,
	"hbspk/internal/cost.Gather1Paper":              forPaper,
	"hbspk/internal/cost.Gather2Paper":              forPaper,
	"hbspk/internal/cost.Bcast1OnePhasePaper":       forPaper,
	"hbspk/internal/cost.Bcast1TwoPhasePaper":       forPaper,
	"hbspk/internal/cost.slowestClusterR":           forPaper,
	"hbspk/internal/cost.Bcast2OnePhaseSuper2Paper": forPaper,
	"hbspk/internal/cost.Bcast2TwoPhaseSuper2Paper": forPaper,
	"hbspk/internal/cost.TwoPhaseWins":              forPaper,
	"hbspk/internal/cost.HierarchyPenalty":          forPaper,
	"hbspk/internal/cost.BestGatherRoot":            forPaper,
	"hbspk/internal/testutil.CheckGoroutines":       forHelper,
	"hbspk/internal/testutil.condenseStacks":        forHelper,
	"hbspk/internal/testutil.RaceEnabled":           forHelper,
	"hbspk/internal/testutil.Syscalls":              forHelper,
	"hbspk/internal/model.RandomTree":               forHelper + ": random valid trees for property tests",
	"hbspk/internal/pvm.(*Task).RecvTimeout":        forHelper + ": a receive that cannot hang a pvm or wiretrans test",
	"hbspk/internal/pvm.TransportFactories":         "the collective and wiretrans conformance tests iterate the transport registry through it; hbspk-sim's transport choice will read it (ROADMAP)",
	"hbspk/internal/stats.LinearFit":                "kept for the measured fit of g and L against probe supersteps (ROADMAP)",
}

// TestEveryFunctionIsReached holds every function declared outside
// tests, benchmark/ and testdata/ to a use: some main package of the
// module (the commands, the examples and ./benchmark) must reach it, a
// root-package function may instead be called by a runnable Example in
// example_test.go, and anything else must be named in unreached with
// its reason. The mains are built once with -ldflags=-dumpdep, which
// prints every reachable symbol edge; -gcflags=all=-l keeps inlined
// callees in that graph. A method kept alive only through an interface
// counts as reached, so the check errs towards keeping code.
func TestEveryFunctionIsReached(t *testing.T) {
	const module = "hbspk"
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := listPackages(t)

	var mains []string
	for _, p := range pkgs {
		if p.Name == "main" {
			mains = append(mains, p.ImportPath)
		}
	}
	reached := reachedSymbols(t, module, mains)
	for _, name := range exampleCalls(t, "example_test.go") {
		reached[module+"."+name] = true
	}

	type decl struct {
		sym, pos string
		lines    int
	}
	var decls []decl
	declared := map[string]bool{}
	for _, p := range pkgs {
		if p.Name == "main" || strings.HasPrefix(p.ImportPath+"/", module+"/benchmark/") {
			continue
		}
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				sym := p.ImportPath + "." + recvPrefix(fn) + fn.Name.Name
				line := fset.Position(fn.Pos()).Line
				first := line
				if fn.Doc != nil {
					first = fset.Position(fn.Doc.Pos()).Line
				}
				declared[sym] = true
				decls = append(decls, decl{sym, fmt.Sprintf("%s:%d", rel, line), fset.Position(fn.End()).Line - first + 1})
			}
		}
	}
	if len(decls) == 0 || len(reached) == 0 {
		t.Fatalf("listed %d functions and %d reached symbols", len(decls), len(reached))
	}

	missing, lines := 0, 0
	for _, d := range decls {
		if reached[d.sym] {
			continue
		}
		if _, ok := unreached[d.sym]; ok {
			continue
		}
		missing++
		lines += d.lines
		t.Errorf("%s: %s (%d lines) is reached by no command, example or benchmark", d.pos, d.sym, d.lines)
	}
	if missing > 0 {
		t.Errorf("%d unreached functions, %d lines: delete each, move it into a _test.go file of its package, or name it in unreached with its reason", missing, lines)
	}
	allowed := make([]string, 0, len(unreached))
	for sym := range unreached {
		allowed = append(allowed, sym)
	}
	sort.Strings(allowed)
	for _, sym := range allowed {
		switch {
		case !declared[sym]:
			t.Errorf("unreached names %s, which no non-test file declares", sym)
		case reached[sym]:
			t.Errorf("unreached names %s, which is now reached", sym)
		}
	}
	t.Logf("%d functions, %d reached symbols from %d mains, %d allowed unreached", len(decls), len(reached), len(mains), len(unreached))
}

type listedPackage struct {
	ImportPath, Name, Dir string
	GoFiles               []string
}

// listPackages returns the module's packages as go list reports them.
func listPackages(t *testing.T) []listedPackage {
	t.Helper()
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// reachedSymbols builds the mains into a temporary directory with the
// linker's dependency dump and returns every module symbol the dump
// names, generic brackets stripped, together with each of its
// enclosing functions: a closure F.func1 or a wrapper F.gowrap1 reaches
// F.
func reachedSymbols(t *testing.T, module string, mains []string) map[string]bool {
	t.Helper()
	args := append([]string{"build", "-o", t.TempDir(), "-gcflags=all=-l", "-ldflags=-dumpdep"}, mains...)
	cmd := exec.Command("go", args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{}
	var other []string
	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		from, to, ok := strings.Cut(line, " -> ")
		if !ok {
			if !strings.HasPrefix(line, "# ") {
				other = append(other, line)
			}
			continue
		}
		for _, sym := range [2]string{from, to} {
			if (strings.HasPrefix(sym, module+".") || strings.HasPrefix(sym, module+"/")) && !auxSymbol.MatchString(sym) {
				addEnclosing(reached, strings.TrimSuffix(stripBrackets(sym), "-fm"))
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("go build: %v\n%s", err, strings.Join(other, "\n"))
	}
	return reached
}

// auxSymbol matches a function's stack and argument maps. The linker
// merges equal ones across functions, so one may name a function that
// nothing calls.
var auxSymbol = regexp.MustCompile(`\.(stkobj|arginfo\d+|argliveinfo|opendefer|wrapinfo)$`)

// stripBrackets removes every generic instantiation list from a symbol.
func stripBrackets(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// addEnclosing marks sym and every dotted prefix of it past the package
// path.
func addEnclosing(reached map[string]bool, sym string) {
	pkgEnd := strings.LastIndexByte(sym, '/') + 1
	pkgEnd += strings.IndexByte(sym[pkgEnd:], '.')
	for i := pkgEnd + 1; i < len(sym); i++ {
		if sym[i] == '.' {
			reached[sym[:i]] = true
		}
	}
	reached[sym] = true
}

// recvPrefix is the receiver part of a method's linker symbol: "T." or
// "(*T).", with type parameters dropped; "" for a function.
func recvPrefix(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ, star := fn.Recv.List[0].Type, false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

// exampleCalls returns the root-package names that the runnable
// examples of file (those with an output comment) refer to.
func exampleCalls(t *testing.T, file string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Example") || !hasOutput(f, fn) {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "hbspk" {
					names = append(names, sel.Sel.Name)
				}
			}
			return true
		})
	}
	return names
}

// hasOutput reports whether fn's body holds an output comment, which
// makes go test run the example.
func hasOutput(f *ast.File, fn *ast.FuncDecl) bool {
	for _, cg := range f.Comments {
		if cg.Pos() < fn.Body.Lbrace || cg.End() > fn.Body.Rbrace {
			continue
		}
		text := strings.TrimSpace(cg.Text())
		if strings.HasPrefix(text, "Output:") || strings.HasPrefix(text, "Unordered output:") {
			return true
		}
	}
	return false
}
