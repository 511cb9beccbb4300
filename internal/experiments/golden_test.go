package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// The golden files pin the exact figure outputs of the deterministic
// Quick() configuration: any change to the machine presets, the fabric
// defaults, or the cost accounting that would silently move the
// reproduced figures fails here first. Regenerate intentionally with:
//
//	go test ./internal/experiments -run TestGoldenFigures -update
var update = false

func init() {
	for _, a := range os.Args {
		if a == "-update" || a == "--update" {
			update = true
		}
	}
}

func TestGoldenFigures(t *testing.T) {
	for _, id := range []string{"fig3a", "fig3b", "fig4a", "fig4b"} {
		r, ok := Lookup(id)
		if !ok {
			t.Fatalf("runner %q missing", id)
		}
		res, err := r.Run(Quick())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := res.Table.CSV()
		path := filepath.Join("testdata", id+"_quick.csv")
		if update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", id, err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from golden output.\n--- got ---\n%s--- want ---\n%s", id, got, want)
		}
	}
}

// TestCommittedFiguresCurrent regenerates every experiment at the
// default configuration, as hbspk-bench -out does, and compares each
// byte for byte with the CSV committed under results/: a change to the
// shares draw, the presets, the problem sizes or the cost accounting
// that moves a published number fails here, not only in a reader's diff.
// A CSV under results/ that no experiment writes fails too, so a deleted
// experiment cannot leave its numbers behind.
func TestCommittedFiguresCurrent(t *testing.T) {
	dir := filepath.Join("..", "..", "results")
	written := map[string]bool{}
	for _, r := range All() {
		res, err := r.Run(Default())
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		written[res.ID+".csv"] = true
		want, err := os.ReadFile(filepath.Join(dir, res.ID+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Table.CSV(); got != string(want) {
			t.Errorf("%s differs from results/%s.csv (regenerate with hbspk-bench -out results).\n--- got ---\n%s--- want ---\n%s",
				r.ID, res.ID, got, want)
		}
	}
	committed, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range committed {
		if name := filepath.Base(path); !written[name] {
			t.Errorf("results/%s is written by no experiment in All(); delete it", name)
		}
	}
}
