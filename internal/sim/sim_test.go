package sim

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"listcolor/internal/graph"
)

// floodMax is a test protocol: every node learns the maximum id within
// `hops` hops by flooding, then terminates. It exercises broadcast,
// multi-round state, and termination.
type floodMax struct {
	hops int
	best int
	out  *int // where to record the result
}

func (f *floodMax) Init(ctx *Context) []Outgoing {
	f.best = ctx.ID
	return []Outgoing{{To: Broadcast, Payload: IntPayload{Value: f.best, Domain: 1 << 20}}}
}

func (f *floodMax) Round(ctx *Context, round int, inbox []Message) ([]Outgoing, bool) {
	for _, m := range inbox {
		// Two-value assertion: fault tests deliver Corrupted payloads,
		// which a well-formed protocol ignores.
		if p, ok := m.Payload.(IntPayload); ok && p.Value > f.best {
			f.best = p.Value
		}
	}
	if round >= f.hops {
		*f.out = f.best
		return nil, true
	}
	return []Outgoing{{To: Broadcast, Payload: IntPayload{Value: f.best, Domain: 1 << 20}}}, false
}

func newFloodMaxNodes(n, hops int) ([]Node, []int) {
	results := make([]int, n)
	nodes := make([]Node, n)
	for v := 0; v < n; v++ {
		v := v
		nodes[v] = &floodMax{hops: hops, out: &results[v]}
	}
	return nodes, results
}

func TestFloodMaxOnRing(t *testing.T) {
	n := 11
	g := graph.Ring(n)
	hops := n // enough to cover the ring
	nodes, results := newFloodMaxNodes(n, hops)
	res, err := Run(NewNetwork(g), nodes, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Rounds != hops {
		t.Errorf("Rounds = %d, want %d", res.Rounds, hops)
	}
	for v, r := range results {
		if r != n-1 {
			t.Errorf("node %d learned max %d, want %d", v, r, n-1)
		}
	}
}

func TestFloodMaxLimitedHops(t *testing.T) {
	// On a path, k hops reach exactly distance k.
	n := 10
	g := graph.Path(n)
	nodes, results := newFloodMaxNodes(n, 3)
	if _, err := Run(NewNetwork(g), nodes, Config{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for v := 0; v < n; v++ {
		want := v + 3
		if want > n-1 {
			want = n - 1
		}
		if results[v] != want {
			t.Errorf("node %d: max in 3 hops = %d, want %d", v, results[v], want)
		}
	}
}

func TestDriverEquivalence(t *testing.T) {
	f := func(seed int64, rawN uint8, rawHops uint8) bool {
		n := int(rawN%20) + 3
		hops := int(rawHops%5) + 1
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.3, rng)
		nodesA, resA := newFloodMaxNodes(n, hops)
		nodesB, resB := newFloodMaxNodes(n, hops)
		ra, errA := Run(NewNetwork(g), nodesA, Config{Driver: Lockstep})
		rb, errB := Run(NewNetwork(g), nodesB, Config{Driver: Workers})
		if errA != nil || errB != nil {
			return false
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
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestWorkersDriverErrors(t *testing.T) {
	nodes := []Node{forever{}, forever{}, forever{}}
	if _, err := Run(NewNetwork(graph.Ring(3)), nodes, Config{MaxRounds: 10, Driver: Workers}); !errors.Is(err, ErrRoundLimit) {
		t.Errorf("err = %v, want ErrRoundLimit", err)
	}
	bad := []Node{straySender{target: 2}, straySender{target: 0}, straySender{target: 1}}
	// On a path 0-1-2, node 0 → 2 is not an edge.
	if _, err := Run(NewNetwork(graph.Path(3)), bad, Config{Driver: Workers}); !errors.Is(err, ErrNotNeighbor) {
		t.Errorf("err = %v, want ErrNotNeighbor", err)
	}
}

func TestMessageAccounting(t *testing.T) {
	// On a ring of n nodes for h rounds of broadcast: round 1 delivers
	// the Init broadcasts (2n messages), each subsequent non-final
	// round delivers 2n more. Nodes terminate after round h without
	// sending. Total = 2n·h messages... minus the final round's sends
	// (none). Init + rounds 1..h-1 send ⇒ h·2n delivered.
	n, h := 6, 4
	nodes, _ := newFloodMaxNodes(n, h)
	res, err := Run(NewNetwork(graph.Ring(n)), nodes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantMsgs := 2 * n * h
	if res.Messages != wantMsgs {
		t.Errorf("Messages = %d, want %d", res.Messages, wantMsgs)
	}
	if res.MaxMessageBits != 20 {
		t.Errorf("MaxMessageBits = %d, want 20", res.MaxMessageBits)
	}
	if res.TotalBits != wantMsgs*20 {
		t.Errorf("TotalBits = %d, want %d", res.TotalBits, wantMsgs*20)
	}
}

// bigSender sends one oversized message and stops.
type bigSender struct{}

func (bigSender) Init(ctx *Context) []Outgoing {
	return []Outgoing{{To: Broadcast, Payload: IntsPayload{Values: make([]int, 100), Domain: 1 << 16}}}
}

func (bigSender) Round(ctx *Context, round int, inbox []Message) ([]Outgoing, bool) {
	return nil, true
}

func TestBandwidthEnforcement(t *testing.T) {
	g := graph.Ring(4)
	nodes := make([]Node, 4)
	for v := range nodes {
		nodes[v] = bigSender{}
	}
	_, err := Run(NewNetwork(g), nodes, Config{BandwidthBits: 64})
	if !errors.Is(err, ErrBandwidth) {
		t.Errorf("err = %v, want ErrBandwidth", err)
	}
	// Without a cap the same protocol runs fine (LOCAL model).
	nodes2 := make([]Node, 4)
	for v := range nodes2 {
		nodes2[v] = bigSender{}
	}
	if _, err := Run(NewNetwork(g), nodes2, Config{}); err != nil {
		t.Errorf("uncapped run failed: %v", err)
	}
}

// straySender tries to message a non-neighbor.
type straySender struct{ target int }

func (s straySender) Init(ctx *Context) []Outgoing {
	return []Outgoing{{To: s.target, Payload: IntPayload{Value: 0, Domain: 2}}}
}

func (s straySender) Round(ctx *Context, round int, inbox []Message) ([]Outgoing, bool) {
	return nil, true
}

func TestNonNeighborRejected(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3; 0 and 3 are not adjacent
	nodes := []Node{straySender{target: 3}, straySender{target: 0}, straySender{target: 1}, straySender{target: 2}}
	_, err := Run(NewNetwork(g), nodes, Config{})
	if !errors.Is(err, ErrNotNeighbor) {
		t.Errorf("err = %v, want ErrNotNeighbor", err)
	}
}

// never terminates.
type forever struct{}

func (forever) Init(ctx *Context) []Outgoing { return nil }
func (forever) Round(ctx *Context, round int, inbox []Message) ([]Outgoing, bool) {
	return nil, false
}

func TestRoundLimit(t *testing.T) {
	nodes := []Node{forever{}, forever{}, forever{}}
	_, err := Run(NewNetwork(graph.Ring(3)), nodes, Config{MaxRounds: 10})
	if !errors.Is(err, ErrRoundLimit) {
		t.Errorf("err = %v, want ErrRoundLimit", err)
	}
}

func TestOnRoundStats(t *testing.T) {
	n, h := 5, 3
	nodes, _ := newFloodMaxNodes(n, h)
	var rounds []RoundStats
	_, err := Run(NewNetwork(graph.Ring(n)), nodes, Config{
		OnRound: func(rs RoundStats) { rounds = append(rounds, rs) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != h {
		t.Fatalf("OnRound called %d times, want %d", len(rounds), h)
	}
	for i, rs := range rounds {
		if rs.Round != i+1 {
			t.Errorf("rounds[%d].Round = %d", i, rs.Round)
		}
		if rs.ActiveNodes != n {
			t.Errorf("rounds[%d].ActiveNodes = %d, want %d", i, rs.ActiveNodes, n)
		}
	}
	// Messages per round: each round delivers the previous round's 2n sends.
	if rounds[0].Messages != 2*n {
		t.Errorf("round 1 delivered %d messages, want %d", rounds[0].Messages, 2*n)
	}
}

func TestOrientedContext(t *testing.T) {
	g := graph.Path(3)
	d := graph.OrientByID(g)
	nw := NewOrientedNetwork(d)
	seenOut := make([][]int, 3)
	nodes := make([]Node, 3)
	for v := 0; v < 3; v++ {
		v := v
		nodes[v] = &ctxProbe{record: func(ctx *Context) {
			seenOut[v] = append([]int(nil), ctx.Out...)
		}}
	}
	if _, err := Run(nw, nodes, Config{}); err != nil {
		t.Fatal(err)
	}
	// Arcs toward smaller id: 1→0, 2→1.
	if len(seenOut[0]) != 0 || len(seenOut[1]) != 1 || seenOut[1][0] != 0 || len(seenOut[2]) != 1 || seenOut[2][0] != 1 {
		t.Errorf("oriented contexts wrong: %v", seenOut)
	}
}

type ctxProbe struct{ record func(*Context) }

func (p *ctxProbe) Init(ctx *Context) []Outgoing { p.record(ctx); return nil }
func (p *ctxProbe) Round(ctx *Context, round int, inbox []Message) ([]Outgoing, bool) {
	return nil, true
}

func TestInboxSortedBySender(t *testing.T) {
	// On K4, every node receives three messages, sorted by sender id.
	n := 4
	order := make([][]int, n)
	nodes := make([]Node, n)
	for v := 0; v < n; v++ {
		v := v
		nodes[v] = &inboxProbe{n: n, record: func(froms []int) { order[v] = froms }}
	}
	if _, err := Run(NewNetwork(graph.Complete(n)), nodes, Config{Driver: Workers}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if len(order[v]) != n-1 {
			t.Fatalf("node %d received %d messages", v, len(order[v]))
		}
		for i := 1; i < len(order[v]); i++ {
			if order[v][i-1] >= order[v][i] {
				t.Errorf("node %d inbox not sorted: %v", v, order[v])
			}
		}
	}
}

type inboxProbe struct {
	n      int
	record func([]int)
}

func (p *inboxProbe) Init(ctx *Context) []Outgoing {
	return []Outgoing{{To: Broadcast, Payload: IntPayload{Value: ctx.ID, Domain: p.n}}}
}

func (p *inboxProbe) Round(ctx *Context, round int, inbox []Message) ([]Outgoing, bool) {
	froms := make([]int, len(inbox))
	for i, m := range inbox {
		froms[i] = m.From
	}
	p.record(froms)
	return nil, true
}

func TestNodeCountMismatch(t *testing.T) {
	if _, err := Run(NewNetwork(graph.Ring(3)), []Node{forever{}}, Config{}); err == nil {
		t.Error("accepted wrong node count")
	}
}

func TestPayloadSizes(t *testing.T) {
	if got := BitsFor(1); got != 1 {
		t.Errorf("BitsFor(1) = %d, want 1", got)
	}
	if got := BitsFor(2); got != 1 {
		t.Errorf("BitsFor(2) = %d, want 1", got)
	}
	if got := BitsFor(1024); got != 10 {
		t.Errorf("BitsFor(1024) = %d, want 10", got)
	}
	if got := (IntPayload{Value: 5, Domain: 100}).SizeBits(); got != 7 {
		t.Errorf("IntPayload size = %d, want 7", got)
	}
	p := IntsPayload{Values: []int{1, 2, 3}, Domain: 16, MaxLen: 7}
	if got := p.SizeBits(); got != 3+12 { // 3-bit header (domain 8) + 3×4 bits
		t.Errorf("IntsPayload size = %d, want 15", got)
	}
	pp := PairPayload{A: 1, B: 2, DomainA: 4, DomainB: 256}
	if got := pp.SizeBits(); got != 2+8 {
		t.Errorf("PairPayload size = %d, want 10", got)
	}
}
