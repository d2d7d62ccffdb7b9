package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenRuns are the command lines TestGoldenAllAlgorithms pins, all on
// one seeded 4-regular graph: every -algo with -analyze, -spans 2 and
// -timeline; every -repair target under the crash+corrupt plan in
// testdata/plan.json; and the two refusals (an unknown -algo, -repair
// of an algorithm that solves no list instance).
func goldenRuns() [][]string {
	base := []string{"-graph", "regular", "-n", "24", "-deg", "4", "-seed", "1"}
	var runs [][]string
	add := func(args ...string) {
		runs = append(runs, append(append([]string(nil), base...), args...))
	}
	for _, a := range []string{"linial", "defective", "twosweep", "fast", "csr", "degplus1", "nbhood", "edgecolor", "luby", "greedy"} {
		add("-algo", a, "-analyze", "-spans", "2", "-timeline")
	}
	add("-algo", "linial", "-trace", "2")
	for _, a := range []string{"twosweep", "fast", "csr", "degplus1", "nbhood", "luby", "edgecolor"} {
		add("-algo", a, "-faults", "testdata/plan.json", "-repair", "-spans", "2", "-timeline")
	}
	add("-algo", "nosuch")
	return runs
}

// TestGoldenAllAlgorithms pins colorsim's report for every algorithm,
// plain and under -repair: the plain path bills Two-Sweep's and csr's
// own runs without the Linial bootstrap, -repair bills both. Each run
// is headed by its command line; a run that fails ends with the error
// line main prints.
func TestGoldenAllAlgorithms(t *testing.T) {
	var b strings.Builder
	for _, args := range goldenRuns() {
		fmt.Fprintf(&b, "$ colorsim %s\n", strings.Join(args, " "))
		if err := run(args, &b); err != nil {
			fmt.Fprintf(&b, "colorsim: %v\n", err)
		}
	}
	path := filepath.Join("testdata", "all_algorithms.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got := []byte(b.String()); !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (re-run with -update if intended)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
