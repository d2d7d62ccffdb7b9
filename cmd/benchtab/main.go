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
//	benchtab -sim            # engine round-throughput JSON (BENCH_sim.json)
//	benchtab -local          # local selection kernel JSON (BENCH_local.json)
//	benchtab -harness        # sweep-scheduler throughput JSON (BENCH_harness.json)
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

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runID        = fs.String("run", "", "run a single experiment by ID (e.g. E4); empty = all")
		quick        = fs.Bool("quick", false, "smaller parameter sweeps")
		seed         = fs.Int64("seed", 1, "workload seed")
		markdown     = fs.Bool("markdown", false, "emit GitHub-flavored markdown tables")
		outPath      = fs.String("o", "", "write output to a file instead of stdout")
		simBench     = fs.Bool("sim", false, "measure simulator round throughput and emit BENCH_sim.json content")
		localBench   = fs.Bool("local", false, "measure local selection kernel and emit BENCH_local.json content")
		harnessBench = fs.Bool("harness", false, "measure sweep-scheduler throughput and emit BENCH_harness.json content")
		parallel     = fs.Int("parallel", 0, "sweep worker budget (0 = GOMAXPROCS, 1 = sequential); tables are bit-identical for every value")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, "benchtab:", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "benchtab:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
		out = f
	}

	if *simBench {
		if err := runSimBench(out, *quick); err != nil {
			fmt.Fprintln(stderr, "benchtab:", err)
			return 1
		}
		return 0
	}

	if *localBench {
		if err := runLocalBench(out, *quick); err != nil {
			fmt.Fprintln(stderr, "benchtab:", err)
			return 1
		}
		return 0
	}

	if *harnessBench {
		if err := runHarnessBench(out, *quick, *seed); err != nil {
			fmt.Fprintln(stderr, "benchtab:", err)
			return 1
		}
		return 0
	}

	opt := bench.Options{Seed: *seed, Quick: *quick, Parallel: *parallel}
	var tables []bench.Table
	if *runID != "" {
		tb, err := bench.Run(*runID, opt)
		if err != nil {
			fmt.Fprintln(stderr, "benchtab:", err)
			return 1
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
		if *markdown {
			b.WriteString(tb.Markdown())
		} else {
			b.WriteString(tb.Format())
		}
	}
	if _, err := io.WriteString(out, b.String()); err != nil {
		fmt.Fprintln(stderr, "benchtab:", err)
		return 1
	}
	return 0
}

// runSimBench measures engine round throughput (bench.RunSimBench) and
// writes the BENCH_sim.json document: current numbers next to the
// recorded pre-arena baseline, so the speedup is visible in one file.
func runSimBench(out io.Writer, quick bool) error {
	cur, err := bench.RunSimBench(quick)
	if err != nil {
		return err
	}
	scale, err := bench.RunSimScale(quick)
	if err != nil {
		return err
	}
	rep := bench.SimBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Note: "Engine round-throughput on the chatter protocol (broadcast 16-bit payload per round). " +
			"baseline = pre-arena router (per-round inbox allocation + per-inbox sort), recorded once; " +
			"current = this build; scale = streamed CSR instances at 10^6-10^7 nodes (docs/MEMORY.md). " +
			"Refresh with `make bench-sim`.",
		Baseline: bench.SimBenchBaseline(),
		Current:  cur,
		Scale:    scale,
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// runHarnessBench measures the sweep scheduler (bench.RunHarnessBench)
// and writes the BENCH_harness.json document: the full registry timed
// sequentially and under increasing worker budgets, with cache reuse
// counters and the byte-identity verdict for every parallel run, next
// to the recorded sequential baseline.
func runHarnessBench(out io.Writer, quick bool, seed int64) error {
	cur, err := bench.RunHarnessBench(quick, seed)
	if err != nil {
		return err
	}
	svc, err := bench.RunServiceBench(quick)
	if err != nil {
		return err
	}
	durab, err := bench.RunDurabilityBench(quick)
	if err != nil {
		return err
	}
	rep := bench.HarnessBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Note: "Sweep-scheduler throughput: one full bench.All per worker budget (best of 3). " +
			"baseline = sequential harness (workers=1), recorded once on the reference container; " +
			"current = this build. tables_identical_to_sequential verifies the determinism contract on every run. " +
			"Speedups are bounded by the host's core count — on a single-CPU container parallel wall time " +
			"matches sequential, and only the byte-identity and cache columns carry information. " +
			"service = incremental coloring service under churn: updates/sec through the single-writer " +
			"apply loop (repair included), recolor locality per batch, and read latency through " +
			"net/http/httptest while a writer keeps applying batches. " +
			"durability = the crash-safety layer priced per WAL sync mode (off / batch / always): the same " +
			"churn script through the durable write path, then a simulated kill (no final checkpoint, no " +
			"flush) and a timed recovery; recovery_ms_per_100k_ops is the replay-cost unit the checkpoint " +
			"cadence is tuned against, and recovered_identical verifies the recovered colors equal a fresh " +
			"reference replay of the recovered prefix. " +
			"Refresh with `make bench-harness` (or `make bench-service`, same file).",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Baseline:   bench.HarnessBenchBaseline(),
		Current:    cur,
		Service:    svc,
		Durability: durab,
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// runLocalBench measures the node-local selection kernel
// (bench.RunLocalBench) and writes the BENCH_local.json document:
// current numbers for both the palette kernel and the retained
// map-based reference, next to the recorded pre-kernel baseline.
func runLocalBench(out io.Writer, quick bool) error {
	cur, err := bench.RunLocalBench(quick)
	if err != nil {
		return err
	}
	rep := bench.LocalBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Note: "Phase-I selection local computation (one top-p selection per op; Λ = Δ list over a 2Δ color space). " +
			"baseline = pre-kernel map-based selection (per-call index slice + map k lookups), recorded once; " +
			"current = this build, both implementations. Refresh with `make bench-local`.",
		Baseline: bench.LocalBenchBaseline(),
		Current:  cur,
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
