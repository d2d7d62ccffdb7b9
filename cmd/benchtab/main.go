// Command benchtab regenerates the experiment tables recorded in
// EXPERIMENTS.md: one table per theorem-validation experiment (E1–E16;
// see DESIGN.md's experiment index).
//
// Examples:
//
//	benchtab                 # run everything
//	benchtab -run E4         # one experiment
//	benchtab -quick          # smaller sweeps
//	benchtab -markdown       # markdown output (for EXPERIMENTS.md)
//	benchtab -sim            # web-scale simulator JSON (BENCH_sim.json)
//	benchtab -harness        # sweep-scheduler and durability JSON (BENCH_harness.json)
//	benchtab -parallel 1     # force the sequential scheduler (same bytes)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"listcolor/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runID        = fs.String("run", "", "run a single experiment by ID (e.g. E4); empty = all")
		quick        = fs.Bool("quick", false, "smaller parameter sweeps")
		seed         = fs.Int64("seed", 1, "workload seed")
		markdown     = fs.Bool("markdown", false, "emit GitHub-flavored markdown tables")
		outPath      = fs.String("o", "", "write output to a file instead of stdout (left untouched if the run fails)")
		simBench     = fs.Bool("sim", false, "measure web-scale simulator runs and emit BENCH_sim.json content")
		harnessBench = fs.Bool("harness", false, "measure sweep-scheduler throughput and durability and emit BENCH_harness.json content")
		parallel     = fs.Int("parallel", 0, "sweep worker budget (0 = GOMAXPROCS, 1 = sequential); tables are bit-identical for every value")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Every mode renders into memory first, so a failed run never
	// truncates an existing -o file.
	var (
		out []byte
		err error
	)
	switch {
	case *simBench:
		out, err = simBenchJSON(*quick)
	case *harnessBench:
		out, err = harnessBenchJSON(*quick, *seed)
	default:
		out, err = renderTables(*runID, bench.Options{Seed: *seed, Quick: *quick, Parallel: *parallel}, *markdown)
	}
	if err == nil {
		if *outPath != "" {
			err = os.WriteFile(*outPath, out, 0o644)
		} else {
			_, err = stdout.Write(out)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchtab:", err)
		return 1
	}
	return 0
}

// renderTables runs one experiment (runID) or the whole registry and
// renders the tables as text or markdown.
func renderTables(runID string, opt bench.Options, markdown bool) ([]byte, error) {
	var tables []bench.Table
	if runID != "" {
		tb, err := bench.Run(runID, opt)
		if err != nil {
			return nil, err
		}
		tables = []bench.Table{tb}
	} else {
		tables = bench.All(opt)
	}
	var b strings.Builder
	for i, tb := range tables {
		if i > 0 {
			b.WriteString("\n")
		}
		if markdown {
			b.WriteString(tb.Markdown())
		} else {
			b.WriteString(tb.Format())
		}
	}
	return []byte(b.String()), nil
}

// simBenchJSON measures the web-scale simulator runs
// (bench.RunSimScale) and renders the BENCH_sim.json document.
func simBenchJSON(quick bool) ([]byte, error) {
	scale, err := bench.RunSimScale(quick)
	if err != nil {
		return nil, err
	}
	return indentJSON(bench.SimBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Note: "Chatter protocol (broadcast 16-bit payload per round) on streamed CSR instances at 10^6-10^7 nodes " +
			"(docs/MEMORY.md), under the lockstep reference and the sharded workers driver. " +
			"Sharded speedups are bounded by the host's cores (num_cpu, gomaxprocs). " +
			"Refresh with `make bench-sim`.",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scale:      scale,
	})
}

// harnessBenchJSON measures the sweep scheduler (bench.RunHarnessBench)
// and the durable write path (bench.RunDurabilityBench) and renders the
// BENCH_harness.json document.
func harnessBenchJSON(quick bool, seed int64) ([]byte, error) {
	cur, err := bench.RunHarnessBench(quick, seed)
	if err != nil {
		return nil, err
	}
	durab, err := bench.RunDurabilityBench(quick)
	if err != nil {
		return nil, err
	}
	return indentJSON(bench.HarnessBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Note: "Sweep-scheduler throughput: one full bench.All per worker budget (best of 3); the workers=1 row is " +
			"the sequential anchor every speedup is relative to, and speedups are bounded by the host's cores. " +
			"tables_identical_to_sequential verifies the determinism contract on every run. " +
			"durability = the crash-safety layer priced per WAL sync mode (off / batch / always): the same " +
			"churn script through the durable write path, then a simulated kill (no final checkpoint, no " +
			"flush) and a timed recovery; recovery_ms_per_100k_ops is the replay-cost unit a recovery budget " +
			"is set against, and recovered_identical verifies the recovered colors equal a fresh " +
			"reference replay of the recovered prefix. " +
			"Refresh with `make bench-harness`.",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Current:    cur,
		Durability: durab,
	})
}

// indentJSON renders a report the way the committed BENCH_*.json files
// are laid out: two-space indent, trailing newline.
func indentJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
