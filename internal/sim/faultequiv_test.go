package sim

import (
	"errors"
	"math/rand"
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

type panicInit struct{}

func (panicInit) Init(ctx *Context) []Outgoing { panic("panicInit") }
func (panicInit) Round(ctx *Context, round int, inbox []Message) ([]Outgoing, bool) {
	return nil, true
}
