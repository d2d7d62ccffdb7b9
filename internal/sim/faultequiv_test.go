package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"listcolor/internal/graph"
)

// deterministicDrop builds a pure drop predicate from a seed: the same
// (round, from, to) triple gets the same verdict on every call, in
// every driver.
func deterministicDrop(seed int64, rate int) func(round, from, to int) bool {
	return func(round, from, to int) bool {
		x := uint64(seed) ^ uint64(round)*0x9e3779b97f4a7c15 ^
			uint64(from)*0xbf58476d1ce4e5b9 ^ uint64(to)*0x94d049bb133111eb
		x ^= x >> 31
		x *= 0xd6e8feb86659fd93
		x ^= x >> 27
		return int(x%100) < rate
	}
}

// TestDriverEquivalenceUnderFaults is the determinism property across
// both drivers WITH fault injection: whatever damage a dropped message
// does, it must do identically under every driver — same per-node
// outputs, same statistics.
func TestDriverEquivalenceUnderFaults(t *testing.T) {
	f := func(seed int64, rawN uint8, rawHops uint8, rawRate uint8) bool {
		n := int(rawN%20) + 3
		hops := int(rawHops%5) + 1
		rate := int(rawRate % 60) // up to 60% loss
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.3, rng)
		nodesA, resA := newFloodMaxNodes(n, hops)
		nodesB, resB := newFloodMaxNodes(n, hops)
		cfg := Config{DropMessage: deterministicDrop(seed, rate)}
		ra, errA := Run(NewNetwork(g), nodesA, cfg.WithDriver(Lockstep))
		rb, errB := Run(NewNetwork(g), nodesB, cfg.WithDriver(Workers))
		if errA != nil || errB != nil {
			return false // floodMax terminates by round count regardless of drops
		}
		if ra != rb {
			return false
		}
		for v := range resA {
			if resA[v] != resB[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// needy panics when any neighbor's message is missing, like the
// Linial reduction does on violated invariants.
type needy struct{}

func (needy) Init(ctx *Context) []Outgoing {
	return []Outgoing{{To: Broadcast, Payload: IntPayload{Value: ctx.ID, Domain: 64}}}
}

func (needy) Round(ctx *Context, round int, inbox []Message) ([]Outgoing, bool) {
	if len(inbox) < len(ctx.Neighbors) {
		panic("needy: missing neighbor message")
	}
	if round >= 3 {
		return nil, true
	}
	return []Outgoing{{To: Broadcast, Payload: IntPayload{Value: ctx.ID, Domain: 64}}}, false
}

// TestNodePanicRecovered asserts a protocol panic becomes ErrNodePanic
// under every driver — attributed to the same node in the same round —
// instead of crashing the process.
func TestNodePanicRecovered(t *testing.T) {
	g := graph.Ring(8)
	// Drop exactly one message in round 1: node 3's broadcast (sent at
	// init, delivered in round 1) to node 4.
	drop := func(round, from, to int) bool { return round == 0 && from == 3 && to == 4 }
	var errTexts []string
	for _, d := range AllDrivers() {
		nodes := make([]Node, 8)
		for v := range nodes {
			nodes[v] = needy{}
		}
		_, err := Run(NewNetwork(g), nodes, Config{Driver: d, DropMessage: drop})
		if !errors.Is(err, ErrNodePanic) {
			t.Fatalf("driver %v: err = %v, want ErrNodePanic", d, err)
		}
		if !strings.Contains(err.Error(), "node 4 in round 1") {
			t.Errorf("driver %v: error not attributed to node 4 round 1: %v", d, err)
		}
		errTexts = append(errTexts, err.Error())
	}
	for _, s := range errTexts[1:] {
		if s != errTexts[0] {
			t.Errorf("divergent panic errors across drivers: %q vs %q", errTexts[0], s)
		}
	}
}

// TestNodePanicInInit covers the init-time panic path.
func TestNodePanicInInit(t *testing.T) {
	for _, d := range AllDrivers() {
		nodes := []Node{needy{}, panicInit{}, needy{}}
		_, err := Run(NewNetwork(graph.Path(3)), nodes, Config{Driver: d})
		if !errors.Is(err, ErrNodePanic) {
			t.Fatalf("driver %v: err = %v, want ErrNodePanic", d, err)
		}
		if !strings.Contains(err.Error(), "node 1 in init") {
			t.Errorf("driver %v: error not attributed to node 1 init: %v", d, err)
		}
	}
}

// TestSmallestPanickingNodeWins pins the tie-break: when several nodes
// panic in the same round, every driver reports the smallest id.
func TestSmallestPanickingNodeWins(t *testing.T) {
	g := graph.Ring(8)
	drop := func(round, from, to int) bool { return round == 0 && from == 0 }
	// Node 0's init broadcast is lost entirely: both ring neighbors of
	// node 0 (ids 1 and 7) panic in round 1; node 1 must be reported.
	for _, d := range AllDrivers() {
		nodes := make([]Node, 8)
		for v := range nodes {
			nodes[v] = needy{}
		}
		_, err := Run(NewNetwork(g), nodes, Config{Driver: d, DropMessage: drop})
		if !errors.Is(err, ErrNodePanic) {
			t.Fatalf("driver %v: err = %v, want ErrNodePanic", d, err)
		}
		if !strings.Contains(err.Error(), "node 1 in round 1") {
			t.Errorf("driver %v: want node 1 reported, got: %v", d, err)
		}
	}
}

// hookPanic is the value the hook tests panic with; recovering it
// from Run shows the engine let the panic through untouched.
type hookPanic struct {
	hook  string
	round int
}

// recoverRun runs cfg over a 16-node ring of digest nodes and returns
// the value Run panicked with, or nil if it returned.
func recoverRun(t *testing.T, cfg Config) (r any) {
	t.Helper()
	defer func() { r = recover() }()
	nodes, _ := newDigestNodes(16, 4)
	res, err := Run(NewNetwork(graph.Ring(16)), nodes, cfg)
	t.Errorf("Run returned (%+v, %v) instead of panicking", res, err)
	return nil
}

// TestHookPanicPropagates pins where the engine's recover stops: it
// covers node code only, so a panic raised by a fault hook or by
// OnRound is not a node panic and must panic out of Run, under both
// drivers, with and without routing shards, in the init pass as well
// as in a round.
func TestHookPanicPropagates(t *testing.T) {
	const v = 5
	cases := []struct {
		want hookPanic
		cfg  Config
	}{
		{hookPanic{"NodeDown", 2}, Config{NodeDown: func(round, u int) NodeStatus {
			if round == 2 && u == v {
				panic(hookPanic{"NodeDown", round})
			}
			return NodeUp
		}}},
		{hookPanic{"DropMessage", 0}, Config{DropMessage: func(round, from, to int) bool {
			if round == 0 && from == v {
				panic(hookPanic{"DropMessage", round})
			}
			return false
		}}},
		{hookPanic{"DropMessage", 2}, Config{DropMessage: func(round, from, to int) bool {
			if round == 2 && from == v {
				panic(hookPanic{"DropMessage", round})
			}
			return false
		}}},
		{hookPanic{"CorruptMessage", 0}, Config{CorruptMessage: func(round, from, to int, p Payload) (Payload, bool) {
			if round == 0 && from == v {
				panic(hookPanic{"CorruptMessage", round})
			}
			return p, false
		}}},
		{hookPanic{"CorruptMessage", 2}, Config{CorruptMessage: func(round, from, to int, p Payload) (Payload, bool) {
			if round == 2 && from == v {
				panic(hookPanic{"CorruptMessage", round})
			}
			return p, false
		}}},
		{hookPanic{"OnRound", 2}, Config{OnRound: func(rs RoundStats) {
			if rs.Round == 2 {
				panic(hookPanic{"OnRound", rs.Round})
			}
		}}},
	}
	for _, c := range cases {
		for _, run := range []struct {
			name   string
			d      Driver
			shards int
		}{{"lockstep", Lockstep, 0}, {"workers", Workers, 0}, {"workers-sharded", Workers, 2}} {
			cfg := c.cfg.WithDriver(run.d)
			cfg.Shards = run.shards
			t.Run(fmt.Sprintf("%s-round%d/%s", c.want.hook, c.want.round, run.name), func(t *testing.T) {
				if r := recoverRun(t, cfg); r != c.want {
					t.Errorf("Run panicked with %v, want %v", r, c.want)
				}
			})
		}
	}
}

// tally counts its Round calls and panics in round panicAt (0: never);
// it finishes after round 3.
type tally struct {
	calls   *int
	panicAt int
}

func (tally) Init(ctx *Context) []Outgoing { return nil }

func (c tally) Round(ctx *Context, round int, inbox []Message) ([]Outgoing, bool) {
	*c.calls++
	if round == c.panicAt {
		panic(fmt.Sprintf("tally %d", ctx.ID))
	}
	return nil, round >= 3
}

// TestWorkerChunkPanicsStepEveryNode: nodes 1 and 2, which share a
// worker's chunk, panic in the same round. The chunk's one recover must
// resume after each panic, so every node of the round still steps, the
// chunk keeps its first panic with that node's own error, and the run
// reports the smaller id.
func TestWorkerChunkPanicsStepEveryNode(t *testing.T) {
	const round = 2
	// At least 5 ids per chunk, so ids 0–4 all fall in the first one.
	n := 4*runtime.GOMAXPROCS(0) + 4
	calls := make([]int, n)
	nodes := make([]Node, n)
	for v := range nodes {
		nodes[v] = tally{calls: &calls[v]}
	}
	nodes[1] = tally{calls: &calls[1], panicAt: round}
	nodes[2] = tally{calls: &calls[2], panicAt: round}
	nw := NewNetwork(graph.Ring(n))
	_, err := Run(nw, nodes, Config{Driver: Workers})
	if !errors.Is(err, ErrNodePanic) || !strings.Contains(err.Error(), "node 1 in round 2: tally 1") {
		t.Fatalf("err = %v, want ErrNodePanic for node 1 in round 2", err)
	}
	for v, c := range calls {
		if c != round {
			t.Errorf("node %d stepped %d times, want %d", v, c, round)
		}
	}

	// One chunk stepped directly: every node of it steps, nodes 3 and 4
	// after node 2's panic too, and the chunk keeps its first panic,
	// node 1's own error.
	clear(calls)
	w := &workerRound{nodes: nodes, ctxs: new(Engine).contexts(nw), round: round, inboxes: make([][]Message, n),
		outs: make([][]Outgoing, n), fins: make([]bool, n)}
	var first nodePanic
	w.stepAll([]int{0, 1, 2, 3, 4}, &first)
	if want := fmt.Sprintf("node 1 in round %d: tally 1", round); first.v != 1 || first.err == nil || !strings.Contains(first.err.Error(), want) {
		t.Errorf("chunk's first panic = (%d, %v), want node 1's %q", first.v, first.err, want)
	}
	for v := 0; v < n; v++ {
		if stepped := v <= 4; stepped != (calls[v] == 1) {
			t.Errorf("node %d stepped %d times, stepped in chunk %v", v, calls[v], stepped)
		}
	}
}

type panicInit struct{}

func (panicInit) Init(ctx *Context) []Outgoing { panic("panicInit") }
func (panicInit) Round(ctx *Context, round int, inbox []Message) ([]Outgoing, bool) {
	return nil, true
}
