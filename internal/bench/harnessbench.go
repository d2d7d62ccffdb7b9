package bench

// harnessbench.go measures the sweep scheduler itself: the same full
// experiment registry is run sequentially (Parallel=1, the legacy
// harness behavior) and under increasing worker budgets, recording
// wall time, the workload cache's reuse counters, and — because the
// determinism contract makes it checkable — whether every parallel
// table came back byte-identical to the sequential run.
// cmd/benchtab -harness renders the result as BENCH_harness.json, the
// harness-throughput perf record the Makefile's bench-harness target
// refreshes.

import (
	"time"

	"listcolor/internal/workload"
)

// HarnessBenchEntry is one scheduler measurement: the full registry
// run once under the given worker budget.
type HarnessBenchEntry struct {
	// Mode is "sequential" (workers=1, legacy behavior) or "parallel".
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	Quick   bool   `json:"quick"`
	Seed    int64  `json:"seed"`
	// WallMs is the best-of-reps wall time of one full bench.All.
	WallMs float64 `json:"wall_ms"`
	// SpeedupVsSequential divides the sequential entry's wall time by
	// this entry's (1.0 for the sequential entry itself).
	SpeedupVsSequential float64 `json:"speedup_vs_sequential"`
	// Cache is the workload cache's counters after the run: hits > 0
	// proves cross-cell graph reuse, derived hits cover orientations,
	// bootstraps and shared instances.
	Cache workload.Counters `json:"cache"`
	// TablesIdentical reports whether every table of this run was
	// byte-identical (Format output) to the sequential run's — the
	// determinism contract, verified on every measurement.
	TablesIdentical bool `json:"tables_identical_to_sequential"`
}

// HarnessBenchReport is the BENCH_harness.json document: this
// machine's measurements of the sweep scheduler and of the durable
// write path.
type HarnessBenchReport struct {
	GeneratedAt string `json:"generated_at"`
	Note        string `json:"note"`
	// GOMAXPROCS and NumCPU qualify the speedups: on a single-core
	// host every parallel speedup is bounded by 1 regardless of the
	// scheduler.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// Current holds one scheduler entry per worker budget, the
	// sequential anchor first.
	Current []HarnessBenchEntry `json:"current"`
	// Durability holds the crash-safety measurements
	// (durabilitybench.go): churn throughput with the WAL in the write
	// path under each sync mode, and the timed kill-and-recover replay
	// cost per 10^5 ops.
	Durability []DurabilityBenchEntry `json:"durability"`
}

// HarnessWorkerBudgets returns the worker budgets a harness-bench run
// measures: sequential first (the anchor every speedup is relative
// to), then the parallel budgets.
func HarnessWorkerBudgets(quick bool) []int {
	if quick {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 8}
}

// formatAll renders every table of a run, concatenated the way
// cmd/benchtab prints them — the byte string the determinism check
// compares.
func formatAll(tables []Table) string {
	var s string
	for i, tb := range tables {
		if i > 0 {
			s += "\n"
		}
		s += tb.Format()
	}
	return s
}

// RunHarnessBench measures bench.All under every worker budget of
// HarnessWorkerBudgets. Each budget gets a fresh workload cache (so
// the counters describe one run, not the accumulation) and the
// best-of-reps wall time; every parallel run's tables are verified
// byte-identical to the sequential run's.
func RunHarnessBench(quick bool, seed int64) ([]HarnessBenchEntry, error) {
	const reps = 3
	budgets := HarnessWorkerBudgets(quick)
	var out []HarnessBenchEntry
	var seqWall float64
	var seqTables string
	for _, workers := range budgets {
		var best time.Duration
		var cache *workload.Cache
		var rendered string
		for r := 0; r < reps; r++ {
			c := workload.NewCache()
			opt := Options{Seed: seed, Quick: quick, Parallel: workers, Cache: c}
			t0 := time.Now()
			tables := All(opt)
			dt := time.Since(t0)
			if r == 0 || dt < best {
				best = dt
			}
			cache = c
			rendered = formatAll(tables)
		}
		e := HarnessBenchEntry{
			Mode:    "parallel",
			Workers: workers,
			Quick:   quick,
			Seed:    seed,
			WallMs:  float64(best.Nanoseconds()) / 1e6,
			Cache:   cache.Counters(),
		}
		if workers == 1 {
			e.Mode = "sequential"
			seqWall = e.WallMs
			seqTables = rendered
		}
		e.SpeedupVsSequential = seqWall / e.WallMs
		e.TablesIdentical = rendered == seqTables
		out = append(out, e)
	}
	return out, nil
}
