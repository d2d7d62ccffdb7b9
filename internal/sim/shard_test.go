package sim

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"listcolor/internal/graph"
)

// digestChatter is the shard-conformance protocol: it folds every
// received message into an order-sensitive 64-bit digest (so any
// deviation in per-inbox delivery order, content, or sender
// attribution changes the final state) and alternates broadcast rounds
// with unicast rounds targeting a digest-dependent subset of
// neighbors — the traffic mix the sharded router must reproduce
// bit-for-bit, including receivers that straddle shard boundaries.
type digestChatter struct {
	rounds int
	h      uint64
	out    *uint64
}

const digestDomain = 1 << 20

func (d *digestChatter) mix(x int) {
	d.h ^= uint64(x) & (1<<20 - 1)
	d.h *= 1099511628211
}

func (d *digestChatter) sends(ctx *Context, round int) []Outgoing {
	val := IntPayload{Value: int(d.h % digestDomain), Domain: digestDomain}
	if round%2 == 0 {
		return []Outgoing{{To: Broadcast, Payload: val}}
	}
	var outs []Outgoing
	for i, w := range ctx.Neighbors {
		if (d.h>>(uint(i)%8))&1 == 1 {
			outs = append(outs, Outgoing{To: w, Payload: val})
		}
	}
	return outs
}

func (d *digestChatter) Init(ctx *Context) []Outgoing {
	d.h = 14695981039346656037
	d.mix(ctx.ID)
	return d.sends(ctx, 0)
}

func (d *digestChatter) Round(ctx *Context, round int, inbox []Message) ([]Outgoing, bool) {
	for _, m := range inbox {
		d.mix(m.From)
		if p, ok := m.Payload.(IntPayload); ok {
			d.mix(p.Value)
		}
	}
	d.mix(round)
	if round >= d.rounds {
		*d.out = d.h
		return nil, true
	}
	return d.sends(ctx, round), false
}

func newDigestNodes(n, rounds int) ([]Node, []uint64) {
	digests := make([]uint64, n)
	nodes := make([]Node, n)
	for v := 0; v < n; v++ {
		nodes[v] = &digestChatter{rounds: rounds, out: &digests[v]}
	}
	return nodes, digests
}

// shardSweepGraphs are the topologies the sweep runs on: a ring (every
// shard boundary cuts through uniform degree-2 rows), a G(n,p) with
// irregular degrees, and a star whose hub's broadcast spans every
// shard at once.
func shardSweepGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gnp := graph.GNP(96, 0.08, rand.New(rand.NewSource(5)))
	star := graph.New(33)
	for v := 1; v < 33; v++ {
		star.MustAddEdge(0, v)
	}
	return map[string]*graph.Graph{
		"ring257": graph.Ring(257),
		"gnp96":   gnp,
		"star33":  star,
	}
}

// TestShardSweepFingerprints sweeps shard counts — including 1 (the
// sequential baseline), the degenerate n and beyond-n cases, and
// GOMAXPROCS — and demands byte-identical Results and node digests
// against the Lockstep reference for every count. Run under -race in
// CI with -count 2 (satellite: shard-boundary race tests).
func TestShardSweepFingerprints(t *testing.T) {
	const rounds = 9
	for name, g := range shardSweepGraphs(t) {
		t.Run(name, func(t *testing.T) {
			n := g.N()
			refNodes, refDigests := newDigestNodes(n, rounds)
			refRes, err := Run(NewNetwork(g), refNodes, Config{Driver: Lockstep})
			if err != nil {
				t.Fatalf("lockstep: %v", err)
			}
			shardCounts := []int{0, 1, 2, 3, 7, runtime.GOMAXPROCS(0), n, 3 * n}
			for _, s := range shardCounts {
				nodes, digests := newDigestNodes(n, rounds)
				res, err := Run(NewNetwork(g), nodes, Config{Driver: Workers, Shards: s})
				if err != nil {
					t.Fatalf("shards=%d: %v", s, err)
				}
				if res != refRes {
					t.Errorf("shards=%d: Result = %+v, want %+v", s, res, refRes)
				}
				for v := range digests {
					if digests[v] != refDigests[v] {
						t.Fatalf("shards=%d: node %d digest %#x, want %#x", s, v, digests[v], refDigests[v])
					}
				}
			}
		})
	}
}

// TestShardedErrorFallback checks that a round containing a protocol
// violation or node error takes the sequential fallback and reproduces
// the exact error and partial Result of an unsharded run.
func TestShardedErrorFallback(t *testing.T) {
	t.Run("non-neighbor", func(t *testing.T) {
		mk := func() []Node {
			return []Node{straySender{target: 3}, straySender{target: 0}, straySender{target: 1}, straySender{target: 2}}
		}
		g := graph.Path(4)
		seqRes, seqErr := Run(NewNetwork(g), mk(), Config{Driver: Workers})
		shRes, shErr := Run(NewNetwork(g), mk(), Config{Driver: Workers, Shards: 4})
		if !errors.Is(shErr, ErrNotNeighbor) {
			t.Fatalf("err = %v, want ErrNotNeighbor", shErr)
		}
		if seqErr == nil || shErr.Error() != seqErr.Error() || shRes != seqRes {
			t.Errorf("sharded (%v, %+v) != sequential (%v, %+v)", shErr, shRes, seqErr, seqRes)
		}
	})
	t.Run("bandwidth", func(t *testing.T) {
		mk := func() []Node { return []Node{bigSender{}, bigSender{}, bigSender{}, bigSender{}} }
		g := graph.Ring(4)
		cfg := Config{Driver: Workers, BandwidthBits: 64}
		seqRes, seqErr := Run(NewNetwork(g), mk(), cfg)
		cfg.Shards = 3
		shRes, shErr := Run(NewNetwork(g), mk(), cfg)
		if !errors.Is(shErr, ErrBandwidth) {
			t.Fatalf("err = %v, want ErrBandwidth", shErr)
		}
		if seqErr == nil || shErr.Error() != seqErr.Error() || shRes != seqRes {
			t.Errorf("sharded (%v, %+v) != sequential (%v, %+v)", shErr, shRes, seqErr, seqRes)
		}
	})
}

// panicAt wraps a protocol node: the node with the given id panics at
// the given round (surfacing as ErrNodePanic), and
// behaves as the inner protocol everywhere else.
type panicAt struct {
	Node
	id, round int
}

func (p panicAt) Round(ctx *Context, round int, inbox []Message) ([]Outgoing, bool) {
	if ctx.ID == p.id && round == p.round {
		panic("injected fault")
	}
	return p.Node.Round(ctx, round, inbox)
}

// TestShardedErrorFallbackStatsParity is the regression for the
// validation-prepass fallback under combined faults: a node error in a
// LATE shard (high receiver range) during a round whose NodeDown crash
// window is active must reproduce the sequential driver's run exactly —
// same final Result, same error text, and the same per-round RoundStats
// stream (ActiveNodes under downs/crashes, message/bit deltas, MaxBits)
// right up to the aborted round, which reports stats in neither driver.
func TestShardedErrorFallbackStatsParity(t *testing.T) {
	const (
		n        = 96
		rounds   = 9
		errNode  = 90 // lives in the last of 6 receiver shards
		errRound = 6
	)
	down := func(round, v int) NodeStatus {
		switch {
		case round == 4 && v%9 == 0:
			return NodeDowned
		case round == errRound && v == 17:
			return NodeDowned // down window active in the aborted round
		case round == errRound && v == 40:
			return NodeCrashed // crash window active in the aborted round
		case round == errRound && v == 95:
			return NodeCrashed // crashes beyond the erroring node too
		}
		return NodeUp
	}
	type runOutcome struct {
		res   Result
		stats []RoundStats
		err   error
	}
	do := func(cfg Config) runOutcome {
		var out runOutcome
		cfg.NodeDown = down
		cfg.OnRound = func(rs RoundStats) { out.stats = append(out.stats, rs) }
		nodes, _ := newDigestNodes(n, rounds)
		for v := range nodes {
			nodes[v] = panicAt{Node: nodes[v], id: errNode, round: errRound}
		}
		out.res, out.err = Run(NewNetwork(graph.Ring(n)), nodes, cfg)
		return out
	}

	ref := do(Config{Driver: Lockstep})
	if !errors.Is(ref.err, ErrNodePanic) {
		t.Fatalf("lockstep err = %v, want ErrNodePanic", ref.err)
	}
	if len(ref.stats) != errRound-1 {
		t.Fatalf("lockstep reported %d rounds of stats, want %d (aborted round unreported)", len(ref.stats), errRound-1)
	}
	for name, cfg := range map[string]Config{
		"workers-sequential": {Driver: Workers},
		"workers-sharded":    {Driver: Workers, Shards: 6},
		"workers-overshard":  {Driver: Workers, Shards: n},
	} {
		t.Run(name, func(t *testing.T) {
			got := do(cfg)
			if got.err == nil || got.err.Error() != ref.err.Error() {
				t.Errorf("err = %v, want %v", got.err, ref.err)
			}
			if got.res != ref.res {
				t.Errorf("partial Result = %+v, want %+v", got.res, ref.res)
			}
			if len(got.stats) != len(ref.stats) {
				t.Fatalf("got %d rounds of stats, want %d", len(got.stats), len(ref.stats))
			}
			for i := range ref.stats {
				if got.stats[i] != ref.stats[i] {
					t.Errorf("round %d stats = %+v, want %+v", i+1, got.stats[i], ref.stats[i])
				}
			}
		})
	}
}

// TestShardedNodeDown checks NodeDown compatibility: the hook runs on
// the coordinator before routing, so sharded and sequential runs under
// the same fault schedule stay byte-identical.
func TestShardedNodeDown(t *testing.T) {
	const rounds = 8
	g := graph.Ring(64)
	down := func(round, v int) NodeStatus {
		switch {
		case round == 3 && v%7 == 0:
			return NodeDowned
		case round == 5 && v == 11:
			return NodeCrashed
		}
		return NodeUp
	}
	refNodes, refDigests := newDigestNodes(64, rounds)
	refRes, refErr := Run(NewNetwork(g), refNodes, Config{Driver: Workers, NodeDown: down})
	shNodes, shDigests := newDigestNodes(64, rounds)
	shRes, shErr := Run(NewNetwork(g), shNodes, Config{Driver: Workers, NodeDown: down, Shards: 5})
	if (refErr == nil) != (shErr == nil) || refRes != shRes {
		t.Fatalf("sharded (%v, %+v) != sequential (%v, %+v)", shErr, shRes, refErr, refRes)
	}
	for v := range refDigests {
		if refDigests[v] != shDigests[v] {
			t.Errorf("node %d digest %#x, want %#x", v, shDigests[v], refDigests[v])
		}
	}
}

// TestRoutingShardsContract pins the effective-shard-count rules:
// delivery hooks force the sequential path (their documented
// single-goroutine call-order contract), and Shards ≤ 1 is sequential.
func TestRoutingShardsContract(t *testing.T) {
	if got := (Config{Shards: 8}).routingShards(); got != 8 {
		t.Errorf("plain Shards=8: routingShards = %d, want 8", got)
	}
	for _, s := range []int{0, 1} {
		if got := (Config{Shards: s}).routingShards(); got != 1 {
			t.Errorf("Shards=%d: routingShards = %d, want 1", s, got)
		}
	}
	drop := Config{Shards: 8, DropMessage: func(round, from, to int) bool { return false }}
	if got := drop.routingShards(); got != 1 {
		t.Errorf("DropMessage set: routingShards = %d, want 1", got)
	}
	corrupt := Config{Shards: 8, CorruptMessage: func(round, from, to int, p Payload) (Payload, bool) { return p, false }}
	if got := corrupt.routingShards(); got != 1 {
		t.Errorf("CorruptMessage set: routingShards = %d, want 1", got)
	}
	if err := (Config{Shards: -1}).Validate(); !errors.Is(err, ErrConfig) {
		t.Errorf("Shards=-1: Validate = %v, want ErrConfig", err)
	}
}

// TestShardBounds checks the receiver partition: its ranges must
// cover [0, n) contiguously in order, clamp shard counts above n, and
// so put every vertex in exactly one range.
func TestShardBounds(t *testing.T) {
	g := graph.GNP(50, 0.2, rand.New(rand.NewSource(9)))
	for _, s := range []int{1, 2, 3, 7, 50, 200} {
		rt := newRouter(new(Engine), NewNetwork(g), Config{})
		parts := rt.shards(s)
		if parts[0].lo != 0 || parts[len(parts)-1].hi != g.N() {
			t.Fatalf("s=%d: ranges %v do not cover [0,%d)", s, parts, g.N())
		}
		if len(parts) > s {
			t.Fatalf("s=%d: %d ranges", s, len(parts))
		}
		for i, p := range parts {
			if p.hi < p.lo || (i > 0 && p.lo != parts[i-1].hi) {
				t.Fatalf("s=%d: ranges %v are not contiguous and ascending", s, parts)
			}
		}
	}
}
