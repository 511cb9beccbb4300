package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// vet runs the command in process and returns its exit code, stdout and
// stderr. Package patterns resolve against the module root, found by
// walking up from this directory.
func vet(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

const (
	uncheckedFixture = "./internal/analysis/testdata/src/uncheckedrun"
	variantFixture   = "./internal/analysis/testdata/src/variantcheck"
	conformance      = "testdata/conformance/"
)

// finding is the one output form: file:line:col: message (analyzer).
var finding = regexp.MustCompile(`^[^:]+\.go:\d+:\d+: .+ \(\w+\)$`)

func TestExitCleanPackage(t *testing.T) {
	code, stdout, stderr := vet(t, "./internal/stats")
	if code != 0 || stdout != "" || stderr != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 0 and no output", code, stdout, stderr)
	}
}

func TestExitOneOnAFinding(t *testing.T) {
	code, stdout, stderr := vet(t, uncheckedFixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr %q", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	for _, line := range lines {
		if !finding.MatchString(line) || !strings.HasSuffix(line, "(uncheckedrun)") {
			t.Errorf("finding line %q is not file:line:col: message (uncheckedrun)", line)
		}
	}
	if !strings.HasPrefix(lines[0], "internal/analysis/testdata/src/uncheckedrun/") {
		t.Errorf("finding %q is not relative to the module root", lines[0])
	}
	if want := fmt.Sprintf("hbspk-vet: %d finding(s) in 1 package(s)\n", len(lines)); stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
}

func TestExitTwoWhenTheRunFails(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-run", "nope", "./internal/stats"},
		{"-tree", "nope", "./internal/stats"},
		{"./does/not/exist"},
		{"-conform-graph", conformance + "graph.json"},
		{"-conform-graph", conformance + "missing.json", "-conform-events", conformance + "events-declared.jsonl"},
		{"-conform-graph", conformance + "events-declared.jsonl", "-conform-events", conformance + "events-declared.jsonl"},
		{"-conform-graph", conformance + "graph.json", "-conform-events", conformance + "missing.jsonl"},
	} {
		code, stdout, stderr := vet(t, args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 2, no findings and a reason", args, code, stdout, stderr)
		}
	}
}

// TestExitThreeOnAdviceOnly: -tree adds variantcheck, whose advice alone
// exits 3; a correctness finding beside it still exits 1.
func TestExitThreeOnAdviceOnly(t *testing.T) {
	code, stdout, stderr := vet(t, "-tree", "grid", "-run", "uncheckedrun", variantFixture)
	if code != 3 {
		t.Fatalf("exit %d, want 3; stderr %q", code, stderr)
	}
	for _, line := range strings.Split(strings.TrimSuffix(stdout, "\n"), "\n") {
		if !finding.MatchString(line) || !strings.HasSuffix(line, "(variantcheck)") {
			t.Errorf("advice line %q is not file:line:col: message (variantcheck)", line)
		}
	}
	if !strings.Contains(stderr, "advisory finding(s)") {
		t.Errorf("stderr %q does not count the advice", stderr)
	}
	if code, _, _ := vet(t, "-tree", "grid", variantFixture, uncheckedFixture); code != 1 {
		t.Errorf("advice beside a finding: exit %d, want 1", code)
	}
}

func TestConformanceGate(t *testing.T) {
	code, stdout, stderr := vet(t, "-conform-graph", conformance+"graph.json",
		"-conform-events", conformance+"events-declared.jsonl")
	if code != 0 || !strings.Contains(stdout, "every observed delivery is explained") || stderr != "" {
		t.Errorf("declared deliveries: exit %d, stdout %q, stderr %q; want 0", code, stdout, stderr)
	}
	code, _, stderr = vet(t, "-conform-graph", conformance+"graph.json",
		"-conform-events", conformance+"events-undeclared.jsonl")
	if code != 1 || !strings.Contains(stderr, "conformance gate FAILED") {
		t.Errorf("an undeclared send: exit %d, stderr %q; want 1 and FAILED", code, stderr)
	}
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	code, stdout, _ := vet(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(stdout, "\n"), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "pidtaint commgraph syncflow uncheckedrun lockorder staleignore variantcheck"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list names %q, want %q", got, want)
	}
}

// TestCommGraphOutWritesTheGraph: -commgraph-out writes the same
// hbspk-commgraph/1 document to a file and to stdout ("-"), whatever
// analyzers -run selects.
func TestCommGraphOutWritesTheGraph(t *testing.T) {
	const fixture = "./internal/analysis/testdata/src/commgraph"
	path := filepath.Join(t.TempDir(), "graph.json")
	if code, _, stderr := vet(t, "-run", "lockorder", "-commgraph-out", path, fixture); code != 0 {
		t.Fatalf("exit %d, want 0; stderr %q", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"schema": "hbspk-commgraph/1"`)) ||
		!bytes.Contains(data, []byte(`"path": "hbspk/internal/analysis/testdata/src/commgraph"`)) {
		t.Fatalf("graph lacks its schema or package:\n%.400s", data)
	}
	code, stdout, _ := vet(t, "-run", "lockorder", "-commgraph-out", "-", fixture)
	if code != 0 || stdout != string(data) {
		t.Errorf("-commgraph-out -: exit %d, stdout differs from the file (%d vs %d bytes)", code, len(stdout), len(data))
	}
}
