package sim_test

// Round-throughput microbenchmarks for the engine's routing hot path.
// One benchmark op is one protocol round: a single Run executes b.N
// rounds of the chatter protocol (every node broadcasts a fixed-size
// payload each round), so allocs/op is per-round allocation with the
// run's one-time setup (contexts, inbox arena) amortized away. The
// steady-state routing loop is allocation-free: the ring/lockstep
// benchmark must report 0 allocs/op.
//
// The workloads and protocol are shared with `cmd/benchtab -sim`
// (internal/bench/simbench.go), which renders the same measurement as
// BENCH_sim.json.

import (
	"testing"

	"listcolor/internal/bench"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

func benchRoundThroughput(b *testing.B, g *graph.Graph, d sim.Driver) {
	nw := sim.NewNetwork(g)
	nodes := bench.ChatterNodes(g.N(), b.N)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := sim.Run(nw, nodes, sim.Config{Driver: d})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Rounds != b.N {
		b.Fatalf("res.Rounds = %d, want b.N = %d", res.Rounds, b.N)
	}
}

func BenchmarkRoundThroughput(b *testing.B) {
	for _, w := range bench.SimWorkloads(false) {
		g := w.Build()
		for _, d := range sim.AllDrivers() {
			d := d
			b.Run(w.Name+"/"+d.String(), func(b *testing.B) {
				benchRoundThroughput(b, g, d)
			})
		}
	}
}

// staggeredNode finishes at its own fixed round, so a network of them
// has a linearly shrinking active set — the shape of sweep and Linial
// protocols, where most rounds run with a small active tail. The
// benchmark exercises the workers driver's persistent active list:
// per-round cost must track the live tail, not rescan all n nodes.
type staggeredNode struct {
	quit int
	sink int
}

func (s *staggeredNode) Init(ctx *sim.Context) []sim.Outgoing { return nil }

func (s *staggeredNode) Round(ctx *sim.Context, round int, inbox []sim.Message) ([]sim.Outgoing, bool) {
	for i := range inbox {
		s.sink += inbox[i].From
	}
	return nil, round >= s.quit
}

func BenchmarkShrinkingActive(b *testing.B) {
	g := graph.Ring(1024)
	n := g.N()
	for _, d := range []sim.Driver{sim.Lockstep, sim.Workers} {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			nw := sim.NewNetwork(g)
			nodes := make([]sim.Node, n)
			for v := 0; v < n; v++ {
				// Node v quits at round ~(v+1)/n of the horizon; the last
				// node holds out to exactly b.N so res.Rounds == b.N.
				q := (v + 1) * b.N / n
				if q < 1 {
					q = 1
				}
				nodes[v] = &staggeredNode{quit: q}
			}
			b.ReportAllocs()
			b.ResetTimer()
			res, err := sim.Run(nw, nodes, sim.Config{Driver: d})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if res.Rounds != b.N {
				b.Fatalf("res.Rounds = %d, want b.N = %d", res.Rounds, b.N)
			}
		})
	}
}
