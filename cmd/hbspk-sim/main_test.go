package main

import (
	"reflect"
	"strings"
	"testing"

	"hbspk/internal/fabric"
)

// Each fault-spec form parses in full: a good entry gives its fates, and
// an entry with input the format does not read — a retired form or
// trailing garbage — is an error that names it.
func TestFaultSpecsParseWholeEntries(t *testing.T) {
	good := []struct {
		name  string
		parse func() (any, error)
		want  any
	}{
		{"leave", func() (any, error) { return parseChurns("leave:4@5,leave:2@3", 1, 8) },
			[]fabric.Churn{{Pid: 4, LeaveAt: 5}, {Pid: 2, LeaveAt: 3}}},
		{"seeded", func() (any, error) { return parseChurns("seeded:2:4", 3, 8) },
			fabric.SeededChurn(3, 8, 2, 4)},
		{"crash", func() (any, error) { return parseCrashes("2@1,5@3") },
			[]fabric.Crash{{Pid: 2, AtStep: 1}, {Pid: 5, AtStep: 3}}},
		{"straggler", func() (any, error) { return parseStragglers("1@0-30x5") },
			[]fabric.Straggler{{Pid: 1, FromStep: 0, ToStep: 30, Factor: 5}}},
	}
	for _, tc := range good {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.parse()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}

	bad := []struct {
		name, entry string
		parse       func(string) error
	}{
		{"join", "join:6@2", churns},
		{"seeded-with-joins", "seeded:2:2:4", churns},
		{"leave-trailing", "leave:4@5x", churns},
		{"seeded-trailing", "seeded:2:4x", churns},
		{"crash-trailing", "2@1x", func(s string) error { _, err := parseCrashes(s); return err }},
		{"straggler-trailing", "1@0-30x5y", func(s string) error { _, err := parseStragglers(s); return err }},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.parse(tc.entry)
			if err == nil || !strings.Contains(err.Error(), tc.entry) {
				t.Fatalf("%q: err = %v, want an error naming the entry", tc.entry, err)
			}
		})
	}
}

func churns(s string) error {
	_, err := parseChurns(s, 1, 8)
	return err
}
