package main

import (
	"bytes"
	"fmt"
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

const uncheckedFixture = "./internal/analysis/testdata/src/uncheckedrun"

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
		{"-tree", "grid", "./internal/stats"},
		{"./does/not/exist"},
	} {
		code, stdout, stderr := vet(t, args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 2, no findings and a reason", args, code, stdout, stderr)
		}
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
	want := "pidtaint commgraph uncheckedrun lockorder staleignore"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list names %q, want %q", got, want)
	}
}
