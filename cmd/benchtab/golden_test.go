package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenCases runs benchtab on the deterministic E1 experiment (quick
// sweep, fixed seed; no wall-clock columns) in both output formats.
// The golden files pin the exact table rendering — column alignment,
// separators, claim lines — so formatting regressions show up as
// diffs, not as silently reflowed EXPERIMENTS.md tables.
var goldenCases = []struct {
	name   string
	args   []string
	golden string
}{
	{"text", []string{"-run", "E1", "-quick", "-seed", "1"}, "e1_quick.golden"},
	{"markdown", []string{"-run", "E1", "-quick", "-seed", "1", "-markdown"}, "e1_quick_md.golden"},
	// The same golden under explicit worker budgets: the scheduler's
	// determinism contract says the bytes cannot depend on -parallel.
	{"text-parallel-1", []string{"-run", "E1", "-quick", "-seed", "1", "-parallel", "1"}, "e1_quick.golden"},
	{"text-parallel-4", []string{"-run", "E1", "-quick", "-seed", "1", "-parallel", "4"}, "e1_quick.golden"},
}

func TestGoldenE1(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 0 {
				t.Fatalf("run(%v) = %d, stderr: %s", tc.args, code, errb.String())
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s (re-run with -update if intended)\ngot:\n%s\nwant:\n%s",
					path, out.String(), want)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "E99"}, &out, &errb); code != 1 {
		t.Fatalf("run -run E99 = %d, want 1 (stderr: %s)", code, errb.String())
	}
}

// failingWriter rejects every write, like a full disk.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestRunTableWriteError pins that a table run whose output cannot be
// written exits 1 and reports the write error instead of claiming
// success.
func TestRunTableWriteError(t *testing.T) {
	var errb bytes.Buffer
	if code := run([]string{"-run", "E1", "-quick"}, failingWriter{}, &errb); code != 1 {
		t.Fatalf("run into a failing writer = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "no space left on device") {
		t.Errorf("stderr does not report the write error: %q", errb.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errb); code != 2 {
		t.Fatalf("run -nope = %d, want 2", code)
	}
}
