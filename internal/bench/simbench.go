package bench

// simbench.go holds the engine-benchmark fixtures: a fixed chatter
// protocol (every node broadcasts a constant-size payload each round)
// and the small topologies internal/sim's BenchmarkRoundThroughput
// drives it on. The scale rows of BENCH_sim.json (simscale.go) and the
// internal/sim scale tests run the same protocol.

import (
	"math/rand"

	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// SimWorkload is one engine-benchmark topology.
type SimWorkload struct {
	Name  string
	Build func() *graph.Graph
}

// SimWorkloads returns the benchmark topologies: a sparse ring (router
// overhead dominates), a random G(n,p) (mixed degrees), and a complete
// graph (delivery-bound, Θ(n²) messages per round).
func SimWorkloads() []SimWorkload {
	return []SimWorkload{
		{Name: "ring", Build: func() *graph.Graph { return graph.Ring(256) }},
		{Name: "gnp", Build: func() *graph.Graph {
			return graph.GNP(256, 0.05, rand.New(rand.NewSource(1)))
		}},
		{Name: "complete", Build: func() *graph.Graph { return graph.Complete(64) }},
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
// round. Shared by the scale rows and internal/sim's benchmarks and
// scale tests.
func ChatterNodes(n, rounds int) []sim.Node {
	nodes := make([]sim.Node, n)
	for v := range nodes {
		nodes[v] = &chatter{rounds: rounds}
	}
	return nodes
}

// SimBenchReport is the BENCH_sim.json document: the web-scale rows
// measured on this machine and build, with the host's cores, which
// bound what the sharded rows can show.
type SimBenchReport struct {
	GeneratedAt string `json:"generated_at"`
	Note        string `json:"note"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	// Scale holds the streamed CSR builds at 10⁶–10⁷ nodes (see
	// simscale.go and docs/MEMORY.md).
	Scale []SimScaleEntry `json:"scale"`
}
