package bench

// simscale.go measures the web-scale simulation path: streamed
// CSR-native builds at 10⁶–10⁷ nodes driven through the chatter
// protocol, reporting build time, round throughput, per-round
// allocation, and process peak RSS. cmd/benchtab -sim renders the
// result as the "scale" section of BENCH_sim.json; the memory budget
// these rows are checked against is derived in docs/MEMORY.md.

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// SimScaleWorkload is one scale-benchmark instance: a streamed CSR
// build plus the round count and shard count its measured run uses.
type SimScaleWorkload struct {
	Name   string
	Rounds int
	Shards int
	Build  func() *graph.CSR
}

// SimScaleWorkloads returns the scale instances. Full mode is the
// BENCH_sim.json tier: a 10⁶-node ring, a 10⁶-node G(n,p) at average
// degree 8, and a 10⁷-node ring. Quick shrinks n to smoke-test the
// same code path in CI.
func SimScaleWorkloads(quick bool) []SimScaleWorkload {
	if quick {
		return []SimScaleWorkload{
			{Name: "ring20k", Rounds: 32, Shards: 4, Build: func() *graph.CSR { return graph.StreamedRing(20_000) }},
			{Name: "gnp20k", Rounds: 32, Shards: 4, Build: func() *graph.CSR {
				return graph.StreamedGNP(20_000, 8.0/20_000, 1)
			}},
		}
	}
	return []SimScaleWorkload{
		{Name: "ring1e6", Rounds: 8, Shards: 8, Build: func() *graph.CSR { return graph.StreamedRing(1_000_000) }},
		{Name: "gnp1e6", Rounds: 8, Shards: 8, Build: func() *graph.CSR {
			return graph.StreamedGNP(1_000_000, 8.0/1_000_000, 1)
		}},
		{Name: "ring1e7", Rounds: 4, Shards: 8, Build: func() *graph.CSR { return graph.StreamedRing(10_000_000) }},
	}
}

// SimScaleEntry is one (workload, driver) scale measurement.
type SimScaleEntry struct {
	Workload       string  `json:"workload"`
	Driver         string  `json:"driver"`
	Shards         int     `json:"shards"`
	Nodes          int     `json:"nodes"`
	Edges          int64   `json:"edges"`
	Rounds         int     `json:"rounds"`
	BuildSec       float64 `json:"build_sec"`
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	NsPerRound     float64 `json:"ns_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
	// HeapLiveBytes is HeapAlloc sampled at the instant the run
	// returns, while the topology, nodes, contexts, and inbox arena are
	// all still reachable — the figure docs/MEMORY.md budgets as
	// bytes/node + bytes/edge.
	HeapLiveBytes uint64  `json:"heap_live_bytes"`
	BytesPerNode  float64 `json:"bytes_per_node"`
	// PeakRSSBytes is the process high-water RSS (VmHWM) at the end of
	// the measurement. It is monotone across the benchmark run, so each
	// row reports the peak up to and including its own workload.
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`
}

// PeakRSSBytes returns the process peak resident set size from
// /proc/self/status (VmHWM), falling back to runtime MemStats.Sys —
// the OS-reserved virtual footprint — where procfs is unavailable.
func PeakRSSBytes() uint64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Sys
}

// MeasureScaleThroughput streams the workload's CSR build, runs the
// chatter protocol on it once under the given driver, and reports
// build time, round throughput, allocation, and memory. Unlike the
// small-graph harness there is no warmup run — a 10⁷-node run is too
// expensive to execute twice, and the one-time setup cost is exactly
// what the build_sec and per-round split is reporting.
func MeasureScaleThroughput(w SimScaleWorkload, driver sim.Driver) (SimScaleEntry, error) {
	runtime.GC()
	b0 := time.Now()
	c := w.Build()
	buildSec := time.Since(b0).Seconds()
	nw := sim.NewCSRNetwork(c)
	nodes := ChatterNodes(c.N(), w.Rounds)
	shards := 1
	if driver == sim.Workers {
		shards = w.Shards
	}
	cfg := sim.Config{Driver: driver, Shards: shards}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := sim.Run(nw, nodes, cfg)
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return SimScaleEntry{}, fmt.Errorf("bench: scale run %s/%s: %w", w.Name, driver, err)
	}
	if res.Rounds != w.Rounds {
		return SimScaleEntry{}, fmt.Errorf("bench: scale run %s/%s: %d rounds, want %d", w.Name, driver, res.Rounds, w.Rounds)
	}
	rounds := float64(w.Rounds)
	e := SimScaleEntry{
		Workload:       w.Name,
		Driver:         driver.String(),
		Shards:         shards,
		Nodes:          c.N(),
		Edges:          c.M(),
		Rounds:         w.Rounds,
		BuildSec:       buildSec,
		RoundsPerSec:   rounds / dt.Seconds(),
		NsPerRound:     float64(dt.Nanoseconds()) / rounds,
		AllocsPerRound: float64(m1.Mallocs-m0.Mallocs) / rounds,
		HeapLiveBytes:  m1.HeapAlloc,
		BytesPerNode:   float64(m1.HeapAlloc) / float64(c.N()),
		PeakRSSBytes:   PeakRSSBytes(),
	}
	runtime.KeepAlive(nw)
	runtime.KeepAlive(nodes)
	return e, nil
}

// RunSimScale measures every scale workload under the lockstep
// reference and the sharded workers driver.
func RunSimScale(quick bool) ([]SimScaleEntry, error) {
	var out []SimScaleEntry
	for _, w := range SimScaleWorkloads(quick) {
		for _, d := range sim.AllDrivers() {
			e, err := MeasureScaleThroughput(w, d)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
	}
	return out, nil
}
