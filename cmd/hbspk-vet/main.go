// Command hbspk-vet is the HBSP^k multichecker: it applies the
// internal/analysis suite — pidtaint, commgraph, syncflow, uncheckedrun,
// costparams, lockorder — to the packages named on the command line and
// exits non-zero if any invariant of the programming model is violated.
// The pvm buffer rules (send a buffer once, pack it only before, release
// a message once) are run-time checks, not part of the suite.
//
// Usage:
//
//	hbspk-vet [flags] [packages]
//
// Packages are directory patterns relative to the module root
// ("./...", "./internal/pvm", "./examples/..."); the default is "./...".
// Run it from anywhere inside the module:
//
//	go run ./cmd/hbspk-vet ./...
//
// Variant advice and the communication graph (DESIGN.md §5.6):
//
//	hbspk-vet -tree ucf ./...             also advise collective-variant
//	                                      switches the tree makes cheaper
//	                                      (non-test files only)
//	hbspk-vet -commgraph-out g.json ./... export the static communication
//	                                      graph (hbspk-commgraph/1 JSON)
//
// Static↔runtime conformance gate: verify that every message delivery
// observed in a run's JSONL events (hbspk-sim -events-out) is explained
// by a static edge of an exported commgraph:
//
//	hbspk-vet -conform-graph g.json -conform-events run.jsonl
//
// SPMD alignment only (the pidtaint analyzer, DESIGN.md §5.8):
//
//	hbspk-vet -run pidtaint ./...
//
// Diagnostics print as file:line:col: message (analyzer), or as a JSON
// array of {file, line, col, endLine, endCol, analyzer, message}
// objects under -json — the machine-readable form CI and editor
// integrations consume. -sarif <path> additionally writes the findings
// as a SARIF 2.1.0 log ("-" for stdout), the interchange form
// code-scanning UIs ingest.
// Individual findings can be suppressed with a trailing
// `//hbspk:ignore <analyzer>` comment after a human audit; a directive
// that no longer suppresses anything — or that names an analyzer that
// no longer exists — is itself reported (staleignore).
//
// Exit codes:
//
//	0  the analyzed packages are clean
//	1  at least one finding was reported (correctness suite, or a
//	   conformance violation in gate mode)
//	2  the run itself failed (bad flags, unloadable packages,
//	   analyzer error)
//	3  only advisory findings were reported (variantcheck advice —
//	   a cheaper collective variant is statically knowable)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hbspk/internal/analysis"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
)

// jsonDiagnostic is the -json wire form of one finding. End positions
// are present when the analyzer reported a range rather than a point.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	EndLine  int    `json:"endLine,omitempty"`
	EndCol   int    `json:"endCol,omitempty"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Advice   bool   `json:"advice,omitempty"`
}

func main() {
	var (
		listOnly  = flag.Bool("list", false, "list the analyzers and exit")
		only      = flag.String("run", "", "comma-separated analyzer names to run (default all)")
		asJSON    = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		sarifOut  = flag.String("sarif", "", "write findings as a SARIF 2.1.0 log to this path (- for stdout)")
		treeName  = flag.String("tree", "", "machine tree (preset ucf, figure1, grid, chain, or JSON spec path): enables variantcheck advice")
		graphOut  = flag.String("commgraph-out", "", "write the static communication graph as hbspk-commgraph/1 JSON to this path (- for stdout)")
		confGraph = flag.String("conform-graph", "", "conformance gate: static commgraph JSON (from -commgraph-out)")
		confEv    = flag.String("conform-events", "", "conformance gate: run events JSONL (from hbspk-sim -events-out)")
	)
	flag.Parse()

	if *listOnly {
		for _, a := range analysis.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-16s %s\n", analysis.StaleIgnoreName,
			"report //hbspk:ignore directives that suppress nothing (always on)")
		fmt.Printf("%-16s %s\n", analysis.VariantCheckName,
			"advise statically-profitable collective-variant switches (requires -tree; advisory)")
		return
	}

	// Conformance gate mode: no packages are loaded, the two artifacts
	// are checked against each other.
	if *confGraph != "" || *confEv != "" {
		if *confGraph == "" || *confEv == "" {
			fatal(fmt.Errorf("hbspk-vet: the conformance gate needs both -conform-graph and -conform-events"))
		}
		os.Exit(runConformance(*confGraph, *confEv))
	}

	var tree *model.Tree
	if *treeName != "" {
		var err error
		tree, err = model.LoadMachine(*treeName)
		if err != nil {
			fatal(err)
		}
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fatal(err)
	}
	if tree != nil {
		analyzers = append(analyzers, analysis.VariantCheck(tree))
	}

	moduleDir, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(moduleDir)
	if err != nil {
		fatal(err)
	}
	loader.IncludeTests = true

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}

	if *graphOut != "" {
		doc := analysis.CommGraphDocOf(pkgs, loader.ModulePath)
		if err := writeGraph(doc, *graphOut); err != nil {
			fatal(err)
		}
	}

	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fatal(err)
	}
	errors, advice := 0, 0
	for _, d := range diags {
		if d.Analyzer == analysis.VariantCheckName {
			advice++
		} else {
			errors++
		}
	}
	if *sarifOut != "" {
		advisory := map[string]string{}
		if tree != nil {
			advisory[analysis.VariantCheckName] = "advise statically-profitable collective-variant switches"
		}
		doc := analysis.SARIFDoc(loader.Fset(), diags, analyzers, moduleDir, advisory)
		if err := writeSARIF(doc, *sarifOut); err != nil {
			fatal(err)
		}
	}
	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			pos := loader.Fset().Position(d.Pos)
			rel, relErr := filepath.Rel(moduleDir, pos.Filename)
			if relErr != nil {
				rel = pos.Filename
			}
			jd := jsonDiagnostic{
				File: rel, Line: pos.Line, Col: pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
				Advice: d.Analyzer == analysis.VariantCheckName,
			}
			if d.End.IsValid() {
				end := loader.Fset().Position(d.End)
				jd.EndLine, jd.EndCol = end.Line, end.Column
			}
			out = append(out, jd)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			pos := loader.Fset().Position(d.Pos)
			rel, relErr := filepath.Rel(moduleDir, pos.Filename)
			if relErr != nil {
				rel = pos.Filename
			}
			fmt.Printf("%s:%d:%d: %s (%s)\n", rel, pos.Line, pos.Column, d.Message, d.Analyzer)
		}
	}
	switch {
	case errors > 0:
		fmt.Fprintf(os.Stderr, "hbspk-vet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	case advice > 0:
		fmt.Fprintf(os.Stderr, "hbspk-vet: %d advisory finding(s) in %d package(s)\n", advice, len(pkgs))
		os.Exit(3)
	}
}

// runConformance executes the static↔runtime gate and returns the exit
// code: 0 on conformance, 1 on unexplained deliveries, 2 on bad input.
func runConformance(graphPath, eventsPath string) int {
	gf, err := os.Open(graphPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer gf.Close()
	doc, err := obsv.ParseCommGraph(gf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	ef, err := os.Open(eventsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer ef.Close()
	deliveries, err := obsv.ReadDeliveries(ef)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rep := obsv.CheckConformance(doc, deliveries)
	fmt.Print(rep.String())
	if !rep.OK() {
		fmt.Fprintf(os.Stderr, "hbspk-vet: conformance gate FAILED: %d unexplained delivery class(es)\n", len(rep.Unexplained))
		return 1
	}
	return 0
}

// writeSARIF encodes the SARIF log to path ("-" for stdout).
func writeSARIF(doc *analysis.SARIFLog, path string) error {
	if path == "-" {
		return doc.WriteSARIF(os.Stdout)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return doc.WriteSARIF(f)
}

// writeGraph encodes the commgraph document to path ("-" for stdout).
func writeGraph(doc *obsv.CommGraphDoc, path string) error {
	if path == "-" {
		return doc.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return doc.WriteJSON(f)
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("hbspk-vet: unknown analyzer %q (try -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("hbspk-vet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
