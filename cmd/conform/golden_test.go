package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestGoldenSeed1Verbose pins the full light matrix at seed 1 with
// every guarantee check and its headroom: the byte-identity contract
// an algorithm refactor must keep. Fault injection stays on, so error
// texts under injected faults are pinned too.
func TestGoldenSeed1Verbose(t *testing.T) {
	checkGolden(t, []string{"-seed", "1", "-v"}, "seed1_v.golden")
}

// TestGoldenSeed1HeavyVerbose pins the heavy-tier matrix at seed 1 the
// same way (about a second), so the heavy workloads' colors and checks
// need no comparison by hand against the parent.
func TestGoldenSeed1HeavyVerbose(t *testing.T) {
	checkGolden(t, []string{"-seed", "1", "-heavy", "-v"}, "seed1_heavy_v.golden")
}

// checkGolden runs conform with args and compares its output with
// testdata/golden, rewriting the file instead under -update.
func checkGolden(t *testing.T, args []string, golden string) {
	t.Helper()
	var b strings.Builder
	if code := run(args, &b); code != 0 {
		t.Fatalf("run(%v) = %d, output:\n%s", args, code, b.String())
	}
	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
