package analysis

import (
	"go/types"
	"sort"
	"strings"
	"testing"
)

func TestCallGraphGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, CommGraph, "callgraph")
}

func TestStaleIgnoreGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, CommGraph, "staleignore")
}

// TestCallGraphFixpoint asserts the synchronizes set directly: mutual
// recursion converges with both parties marked, method and function
// values mark their creators — including function and method values
// passed as call arguments, the collective-combiner seam pidtaint and
// commgraph depend on, and a package-level table of calls its readers —
// and a barrier-free helper stays unmarked (the over-approximation is
// not an any-call approximation).
func TestCallGraphFixpoint(t *testing.T) {
	t.Parallel()
	loader, err := NewLoader("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("callgraph")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	pass := &Pass{
		Analyzer:  CommGraph,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(Diagnostic) {},
	}
	g := buildCallGraph(pass)
	syncsByName := map[string]bool{}
	for fn := range g.decls {
		syncsByName[fn.Name()] = g.syncs[fn]
	}
	wantSync := []string{"pingSync", "pongSync", "viaMethodValue", "viaFuncValue", "syncHelper",
		"afterMutualRecursion", "afterMethodValue", "afterFuncValue",
		"passesFuncValueArg", "passesMethodValueArg", "viaPackageVar", "afterPackageVar"}
	for _, name := range wantSync {
		if !syncsByName[name] {
			t.Errorf("fixpoint misses %s: must be marked synchronizing", name)
		}
	}
	wantClean := []string{"pureHelper", "afterPureHelper", "pureStep", "passesPureFuncValueArg", "apply",
		"viaPurePackageVar"}
	for _, name := range wantClean {
		if syncsByName[name] {
			t.Errorf("fixpoint over-marks %s: it contains no barrier on any path", name)
		}
	}
}

// TestSyncVocabularyComplete keeps the one cross-package fact the
// analyzers have — which exported calls synchronize — true of the
// packages programs import: every exported function of the collective,
// application and facade packages, and every method of collective.FT,
// that the call graph proves synchronizing must be in the vocabulary
// isSyncCall reads. A new collective that is not makes pidtaint,
// commgraph and uncheckedrun blind to it in every other package.
func TestSyncVocabularyComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("loads three packages of the module from source")
	}
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./internal/collective", "./internal/apps", ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, missing := range missingSyncVocabulary(pkgs, collectiveNames, ftMethodNames) {
		t.Errorf("%s synchronizes but is not in the vocabulary (helpers.go)", missing)
	}
	// The check must be able to fail: a name withdrawn is a name reported.
	got := strings.Join(missingSyncVocabulary(pkgs,
		map[string]bool{"AllReduce": true}, map[string]bool{"Gather": true}), " ")
	for _, want := range []string{"collective.PlannedBcast", "apps.Jacobi", "hbspk.Gather", "collective.FT.AllReduce"} {
		if !strings.Contains(got, want) {
			t.Errorf("a vocabulary without %s passes the sweep: it reports only %q", want, got)
		}
	}
}

// missingSyncVocabulary lists the exported synchronizing functions and
// FT methods of pkgs that are in neither name set.
func missingSyncVocabulary(pkgs []*Package, funcs, ftMethods map[string]bool) []string {
	var missing []string
	for _, pkg := range pkgs {
		g := buildCallGraph(&Pass{Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info})
		for fn := range g.decls {
			if !g.syncs[fn] || !fn.Exported() {
				continue
			}
			sig := fn.Type().(*types.Signature)
			name := pkg.Types.Name() + "." + fn.Name()
			known := sig.Params().Len() > 0 && isCtxType(sig.Params().At(0).Type()) &&
				(funcs[fn.Name()] || fn.Name() == "SyncAll")
			if recv := sig.Recv(); recv != nil {
				if !namedOf(recv.Type()).Obj().Exported() {
					continue
				}
				name = pkg.Types.Name() + "." + typeNameOf(recv.Type()) + "." + fn.Name()
				known = typeNameOf(recv.Type()) == "FT" && ftMethods[fn.Name()]
			}
			if !known {
				missing = append(missing, name)
			}
		}
	}
	sort.Strings(missing)
	return missing
}
