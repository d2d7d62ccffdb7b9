package bench

// simbench.go measures the simulator engine itself, independent of any
// coloring algorithm: a fixed chatter protocol (every node broadcasts a
// constant-size payload each round) is driven for a known number of
// rounds on representative topologies, and the harness reports round
// throughput and per-round allocation behavior. cmd/benchtab -sim
// renders the result as BENCH_sim.json, the perf-trajectory record the
// Makefile's bench-sim target refreshes; internal/sim's
// BenchmarkRoundThroughput benchmarks reuse the same workloads and
// protocol so `go test -bench` and the JSON agree.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// SimWorkload is one engine-benchmark topology.
type SimWorkload struct {
	Name string
	// Rounds is how many protocol rounds a measured run executes.
	Rounds int
	Build  func() *graph.Graph
}

// SimWorkloads returns the benchmark topologies: a sparse ring (router
// overhead dominates), a random G(n,p) (mixed degrees), and a complete
// graph (delivery-bound, Θ(n²) messages per round). Quick shrinks
// sizes and round counts for smoke runs.
func SimWorkloads(quick bool) []SimWorkload {
	ringN, gnpN, compN := 256, 256, 64
	rounds := 4096
	if quick {
		ringN, gnpN, compN = 64, 64, 16
		rounds = 256
	}
	return []SimWorkload{
		{Name: "ring", Rounds: rounds, Build: func() *graph.Graph { return graph.Ring(ringN) }},
		{Name: "gnp", Rounds: rounds, Build: func() *graph.Graph {
			return graph.GNP(gnpN, 0.05, rand.New(rand.NewSource(1)))
		}},
		{Name: "complete", Rounds: rounds / 4, Build: func() *graph.Graph { return graph.Complete(compN) }},
	}
}

// chatter is the engine-benchmark protocol: broadcast one fixed-size
// payload per round for a set number of rounds, reading (but not
// retaining) the inbox. The outbox slice and its payload are built once
// in Init so steady-state rounds perform no protocol-side allocation —
// any allocation the benchmark observes is the engine's.
type chatter struct {
	rounds int
	outbox []sim.Outgoing
	sink   int
}

func (c *chatter) Init(ctx *sim.Context) []sim.Outgoing {
	c.outbox = []sim.Outgoing{{To: sim.Broadcast, Payload: sim.IntPayload{Value: ctx.ID, Domain: 1 << 16}}}
	return c.outbox
}

func (c *chatter) Round(ctx *sim.Context, round int, inbox []sim.Message) ([]sim.Outgoing, bool) {
	for i := range inbox {
		c.sink += inbox[i].From
	}
	if round >= c.rounds {
		return nil, true
	}
	return c.outbox, false
}

// ChatterNodes returns n chatter nodes that terminate after the given
// round. Shared by the JSON harness and internal/sim's benchmarks.
func ChatterNodes(n, rounds int) []sim.Node {
	nodes := make([]sim.Node, n)
	for v := range nodes {
		nodes[v] = &chatter{rounds: rounds}
	}
	return nodes
}

// SimBenchEntry is one (workload, driver) measurement.
type SimBenchEntry struct {
	Workload       string  `json:"workload"`
	Driver         string  `json:"driver"`
	Nodes          int     `json:"nodes"`
	Edges          int     `json:"edges"`
	Rounds         int     `json:"rounds"`
	MsgsPerRound   int     `json:"messages_per_round"`
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	NsPerRound     float64 `json:"ns_per_round"`
	BytesPerRound  float64 `json:"bytes_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
}

// MeasureRoundThroughput runs the chatter protocol for w.Rounds rounds
// under the given driver and reports per-round time and allocation.
// One warmup run precedes the measured run; the measured figures still
// include the engine's one-time per-run setup (contexts, inbox arena),
// amortized over the round count — steady-state-allocation-free
// engines therefore report allocs/round ≪ 1, not exactly 0.
func MeasureRoundThroughput(w SimWorkload, driver sim.Driver) (SimBenchEntry, error) {
	g := w.Build()
	nw := sim.NewNetwork(g)
	run := func() (sim.Result, error) {
		return sim.Run(nw, ChatterNodes(g.N(), w.Rounds), sim.Config{Driver: driver})
	}
	if _, err := run(); err != nil { // warmup
		return SimBenchEntry{}, fmt.Errorf("bench: sim warmup %s/%s: %w", w.Name, driver, err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := run()
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return SimBenchEntry{}, fmt.Errorf("bench: sim run %s/%s: %w", w.Name, driver, err)
	}
	if res.Rounds != w.Rounds {
		return SimBenchEntry{}, fmt.Errorf("bench: sim run %s/%s: %d rounds, want %d", w.Name, driver, res.Rounds, w.Rounds)
	}
	rounds := float64(w.Rounds)
	return SimBenchEntry{
		Workload:       w.Name,
		Driver:         driver.String(),
		Nodes:          g.N(),
		Edges:          g.M(),
		Rounds:         w.Rounds,
		MsgsPerRound:   res.Messages / res.Rounds,
		RoundsPerSec:   rounds / dt.Seconds(),
		NsPerRound:     float64(dt.Nanoseconds()) / rounds,
		BytesPerRound:  float64(m1.TotalAlloc-m0.TotalAlloc) / rounds,
		AllocsPerRound: float64(m1.Mallocs-m0.Mallocs) / rounds,
	}, nil
}

// SimBenchReport is the BENCH_sim.json document: the measurements from
// this machine/build plus the recorded pre-arena baseline the repo's
// perf trajectory is anchored to.
type SimBenchReport struct {
	GeneratedAt string          `json:"generated_at"`
	Note        string          `json:"note"`
	Baseline    []SimBenchEntry `json:"baseline"`
	Current     []SimBenchEntry `json:"current"`
	// Scale holds the web-scale rows (streamed CSR builds at 10⁶–10⁷
	// nodes; see simscale.go and docs/MEMORY.md).
	Scale []SimScaleEntry `json:"scale"`
}

// RunSimBench measures every (workload, driver) pair.
func RunSimBench(quick bool) ([]SimBenchEntry, error) {
	var out []SimBenchEntry
	for _, w := range SimWorkloads(quick) {
		for _, d := range sim.AllDrivers() {
			e, err := MeasureRoundThroughput(w, d)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
	}
	return out, nil
}
