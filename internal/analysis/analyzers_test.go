package analysis

import (
	"go/token"
	"os"
	"strings"
	"testing"
)

// runGolden applies one analyzer to its fixture package and fails on
// any mismatch with the `// want` expectations.
func runGolden(t *testing.T, a *Analyzer, pattern string) {
	t.Helper()
	res, err := Golden(a, "testdata", pattern)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	for _, p := range res.Problems {
		t.Errorf("%s", p)
	}
	if len(res.Diagnostics) == 0 {
		t.Errorf("analyzer %s reported nothing on its fixture", a.Name)
	}
}

// TestSyncDisciplineGolden: the plain rule — no Sync under a pid-divergent
// if, else, case, loop bound or range — is pidtaint's, reported at the
// controlling statement.
func TestSyncDisciplineGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, PidTaint, "syncdiscipline")
}

func TestPidTaintGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, PidTaint, "pidtaint")
}

func TestUncheckedRunGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, UncheckedRun, "uncheckedrun")
}

func TestLockOrderGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, LockOrder, "lockorder")
}

// TestSuiteOnRepo runs the full suite over the repository itself: the
// tree must stay clean, so hbspk-vet can gate CI. This doubles as an
// integration test of the module-aware loader.
func TestSuiteOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	loader.IncludeTests = true
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from the module", len(pkgs))
	}
	diags, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		pos := loader.Fset().Position(d.Pos)
		t.Errorf("%s: %s (%s)", pos, d.Message, d.Analyzer)
	}
}

// TestOneAnalyzerPerDefect is the property RunAnalyzers relies on now
// that it dedupes nothing: over every golden fixture, seeded with each
// analyzer's defects, no two analyzers of the suite report at one
// position.
func TestOneAnalyzerPerDefect(t *testing.T) {
	t.Parallel()
	dirs, err := os.ReadDir("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	var fixtures []string
	for _, dir := range dirs {
		fixtures = append(fixtures, dir.Name())
	}
	loader, err := NewLoader("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	loader.IncludeTests = true
	pkgs, err := loader.Load(fixtures...)
	if err != nil {
		t.Fatal(err)
	}
	if len(All()) != 4 || len(pkgs) < len(fixtures) {
		t.Errorf("%d analyzers over %d packages, want 4 over at least %d", len(All()), len(pkgs), len(fixtures))
	}
	diags, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	by := make(map[token.Pos]Diagnostic)
	for _, d := range diags {
		if first, ok := by[d.Pos]; ok && first.Analyzer != d.Analyzer {
			t.Errorf("%s: %s and %s both report here:\n\t%s\n\t%s",
				loader.Fset().Position(d.Pos), first.Analyzer, d.Analyzer, first.Message, d.Message)
		}
		by[d.Pos] = d
	}
}

// TestIgnoreDirectiveParsing pins the suppression comment grammar: one
// directive, one name. A comma-separated list is a single name that no
// analyzer has (TestStaleIgnoreGolden pins that staleignore says so and
// the finding under it stays live).
func TestIgnoreDirectiveParsing(t *testing.T) {
	t.Parallel()
	cases := []struct {
		text string
		name string
		ok   bool
	}{
		{"//hbspk:ignore", "", true},
		{"//hbspk:ignore   ", "", true},
		{"//hbspk:ignore pidtaint", "pidtaint", true},
		{"//hbspk:ignore commgraph trailing words", "commgraph", true},
		{"//hbspk:ignore\tcommgraph\t(tabs)", "commgraph", true},
		{"//hbspk:ignore commgraph,pidtaint deliberate double read", "commgraph,pidtaint", true},
		{"// regular comment", "", false},
		{"//hbspk:ignored", "", false}, // a longer word is not the directive
	}
	for _, c := range cases {
		name, ok := parseIgnore(c.text)
		if ok != c.ok || name != c.name {
			t.Errorf("parseIgnore(%q) = %q, %v; want %q, %v", c.text, name, ok, c.name, c.ok)
		}
	}
	known := knownAnalyzerNames()
	if known["commgraph,pidtaint"] || !known["commgraph"] || !known["pidtaint"] {
		t.Errorf("knownAnalyzerNames: a comma list must not be a name, its parts must be")
	}
	if known["syncflow"] || known["variantcheck"] {
		t.Errorf("knownAnalyzerNames: a deleted analyzer's directive must name no analyzer")
	}
}

// TestWantPatternSplitting pins the golden-comment grammar.
func TestWantPatternSplitting(t *testing.T) {
	t.Parallel()
	got := splitWantPatterns("\"first\" `second` \"with \\\" quote\"")
	want := []string{"first", "second", `with " quote`}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("splitWantPatterns = %q, want %q", got, want)
	}
}
