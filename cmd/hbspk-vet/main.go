// Command hbspk-vet is the HBSP^k multichecker: it applies the
// internal/analysis suite — pidtaint, commgraph, uncheckedrun,
// lockorder — to the packages named on the command line and exits
// non-zero if any invariant of the programming model is violated. The
// pvm buffer rules (send a buffer once, pack it only before, release a
// message once), the delivered-payload lifetime (two Syncs) and the
// model parameters (the engines call Tree.Validate when a run starts)
// are run-time checks, not part of the suite.
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
// SPMD alignment only (the pidtaint analyzer, DESIGN.md §5.8):
//
//	hbspk-vet -run pidtaint ./...
//
// Each finding prints as one go-vet-style line, file:line:col: message
// (analyzer), and the exit status below is the gate. Individual findings
// can be suppressed with a trailing `//hbspk:ignore <analyzer>` comment
// after a human audit; a directive that no longer suppresses anything —
// or that names an analyzer that no longer exists — is itself reported
// (staleignore).
//
// Exit codes:
//
//	0  the analyzed packages are clean
//	1  at least one finding was reported
//	2  the run itself failed (bad flags, unloadable packages,
//	   analyzer error)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hbspk/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes findings to stdout
// and failures to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbspk-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listOnly = fs.Bool("list", false, "list the analyzers and exit")
		only     = fs.String("run", "", "comma-separated analyzer names to run (default all)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *listOnly {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-16s %s\n", analysis.StaleIgnoreName,
			"report //hbspk:ignore directives that suppress nothing (always on)")
		return 0
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		return fail(err)
	}

	moduleDir, err := findModuleRoot()
	if err != nil {
		return fail(err)
	}
	loader, err := analysis.NewLoader(moduleDir)
	if err != nil {
		return fail(err)
	}
	loader.IncludeTests = true

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return fail(err)
	}

	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		return fail(err)
	}
	for _, d := range diags {
		pos := loader.Fset().Position(d.Pos)
		rel, relErr := filepath.Rel(moduleDir, pos.Filename)
		if relErr != nil {
			rel = pos.Filename
		}
		fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", rel, pos.Line, pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "hbspk-vet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
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
