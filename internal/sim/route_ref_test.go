package sim

// Differential tests for the arena router: refRouter below is the
// pre-arena reference implementation (per-message target slice,
// per-round inbox allocation, per-inbox stable sort) upgraded to the
// fixed accounting semantics, kept here as the oracle. The fuzz target
// feeds both routers identical adversarial outbox scripts — stray and
// out-of-range targets, nil payloads, broadcasts on isolated nodes,
// cap-boundary sizes, fault injection — and demands identical errors,
// identical Result fields, and byte-identical delivery order, across
// several rounds so the arena's buffer reuse is exercised, with the
// arena router delivering sequentially and over 2 and 3 receiver
// ranges.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"listcolor/internal/graph"
)

// refRouter mirrors the original slice-per-round router.
type refRouter struct {
	g       *graph.Graph
	cfg     Config
	inboxes [][]Message
	res     Result
	round   int
}

func newRefRouter(g *graph.Graph, cfg Config) *refRouter {
	return &refRouter{g: g, cfg: cfg, inboxes: make([][]Message, g.N())}
}

func (r *refRouter) route(v int, outs []Outgoing) error {
	for _, o := range outs {
		bits := 0
		if o.Payload != nil {
			bits = o.Payload.SizeBits()
		}
		if r.cfg.BandwidthBits > 0 && bits > r.cfg.BandwidthBits {
			return fmt.Errorf("%w: node %d sent %d bits (cap %d)", ErrBandwidth, v, bits, r.cfg.BandwidthBits)
		}
		targets := []int{o.To}
		if o.To == Broadcast {
			targets = r.g.Neighbors(v)
		} else if !r.g.HasEdge(v, o.To) {
			return fmt.Errorf("%w: node %d -> %d", ErrNotNeighbor, v, o.To)
		}
		for _, t := range targets {
			if r.cfg.DropMessage != nil && r.cfg.DropMessage(r.round, v, t) {
				continue
			}
			r.inboxes[t] = append(r.inboxes[t], Message{From: v, Payload: o.Payload})
			r.res.Messages++
			r.res.TotalBits += bits
		}
		// Fixed semantics: the send consumes MaxMessageBits even when
		// every delivery is dropped.
		if bits > r.res.MaxMessageBits {
			r.res.MaxMessageBits = bits
		}
	}
	return nil
}

func (r *refRouter) flush() [][]Message {
	in := r.inboxes
	for v := range in {
		sort.SliceStable(in[v], func(i, j int) bool { return in[v][i].From < in[v][j].From })
	}
	r.inboxes = make([][]Message, len(in))
	return in
}

// compareRouters drives the arena router and the reference router with
// the same per-node outbox script for several rounds and asserts
// equivalent behavior: the same error, the same Result, and
// byte-identical inboxes. The arena router routes each round the way
// the Workers driver does (routeRound) at 1, 2 and 3 receiver ranges,
// so the sequential route and the sharded delivery answer to the one
// reference.
func compareRouters(t *testing.T, g *graph.Graph, cfg Config, script [][]Outgoing, rounds int) {
	t.Helper()
	senders := graph.Vertices(g.N())
	for _, shards := range []int{1, 2, 3} {
		cfg.Shards = shards
		arena := newRouter(new(Engine), NewNetwork(g), cfg)
		ref := newRefRouter(g, cfg)
		for round := 0; round < rounds; round++ {
			ref.round = round
			var errB error
			for v := range senders {
				if err := ref.route(v, script[v]); err != nil {
					errB = fmt.Errorf("round %d, node %d: %w", round, v, err)
					break
				}
			}
			errA := arena.routeRound(senders, nil, script, nodePanic{v: -1})
			if (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error() {
				t.Fatalf("shards %d round %d: arena err %v, ref err %v", shards, round, errA, errB)
			}
			if arena.result() != ref.res {
				t.Fatalf("shards %d round %d: results diverge: %+v vs %+v", shards, round, arena.result(), ref.res)
			}
			if errA != nil {
				break
			}
			inA := arena.startRound(round + 1)
			inB := ref.flush()
			for v := range inB {
				if len(inA[v]) != len(inB[v]) {
					t.Fatalf("shards %d round %d node %d: inbox sizes %d vs %d", shards, round, v, len(inA[v]), len(inB[v]))
				}
				for i := range inB[v] {
					// DeepEqual, not ==: slice-bearing payloads (IntsPayload)
					// are not comparable with the interface operator.
					if inA[v][i].From != inB[v][i].From || !reflect.DeepEqual(inA[v][i].Payload, inB[v][i].Payload) {
						t.Fatalf("shards %d round %d node %d slot %d: %+v vs %+v", shards, round, v, i, inA[v][i], inB[v][i])
					}
				}
			}
		}
	}
}

// buildScript decodes fuzz bytes into a topology, config and per-node
// outbox script. The decoding deliberately produces protocol
// violations: targets may be non-neighbors, out of range, or negative;
// payloads may be nil or sit exactly on the bandwidth cap.
func buildScript(data []byte) (*graph.Graph, Config, [][]Outgoing) {
	read := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[i%len(data)])
	}
	n := read(0)%9 + 1
	g := graph.New(n)
	edges := read(1) % 16
	for e := 0; e < edges; e++ {
		u, v := read(2+2*e)%n, read(3+2*e)%n
		if u != v {
			g.MustAddEdge(u, v)
		}
	}
	g.Normalize()
	cfg := Config{}
	if read(40)%2 == 1 {
		cfg.BandwidthBits = 8 + read(41)%8
	}
	if read(42)%3 == 0 {
		m := read(43)%5 + 2
		cfg.DropMessage = func(round, from, to int) bool {
			return (round*31+from*7+to)%m == 0
		}
	}
	script := make([][]Outgoing, n)
	for v := 0; v < n; v++ {
		k := read(50+v) % 4
		for j := 0; j < k; j++ {
			b := read(60 + 3*v + j)
			var to int
			switch b % 5 {
			case 0:
				to = Broadcast
			case 1:
				to = b % (n + 2) // possibly out of range
			case 2:
				to = -2 - b%3 // negative non-broadcast
			default:
				to = b % n
			}
			var p Payload
			switch read(90+3*v+j) % 4 {
			case 0:
				// nil payload
			case 1:
				p = IntPayload{Value: b % 8, Domain: 1 << (1 + b%10)}
			case 2:
				// Exactly on / next to a 8..16-bit cap boundary.
				p = IntsPayload{Values: make([]int, 5+b%8), Domain: 2}
			default:
				p = PairPayload{A: 1, B: 2, DomainA: 1 << (b % 6), DomainB: 4}
			}
			script[v] = append(script[v], Outgoing{To: to, Payload: p})
		}
	}
	return g, cfg, script
}

func FuzzRouteEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0})                       // single isolated node
	f.Add(bytes.Repeat([]byte{7}, 64))                 // ring-ish clutter
	f.Add([]byte{5, 4, 0, 1, 1, 2, 2, 3, 3, 4, 255})   // path + broadcasts
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4})  // isolated nodes, sends
	f.Add([]byte{8, 15, 0, 1, 0, 2, 0, 3, 4, 5, 6, 7}) // star + stray targets
	f.Fuzz(func(t *testing.T, data []byte) {
		g, cfg, script := buildScript(data)
		compareRouters(t, g, cfg, script, 4)
	})
}

// TestRouteAdversarialCases pins the corner cases the fuzz decoder may
// take a while to hit: broadcast on an isolated node, nil payloads on
// real edges, exact cap-boundary sizes, and stray targets, with and
// without fault injection.
func TestRouteAdversarialCases(t *testing.T) {
	drop := func(round, from, to int) bool { return (from+to)%2 == 0 }
	capPayload := IntsPayload{Values: make([]int, 12), Domain: 2} // 4-bit header + 12 = 16 bits
	if capPayload.SizeBits() != 16 {
		t.Fatalf("cap payload sizing drifted: %d", capPayload.SizeBits())
	}
	over := IntsPayload{Values: make([]int, 13), Domain: 2} // 17 bits
	cases := []struct {
		name   string
		build  func() *graph.Graph
		cfg    Config
		script func(n int) [][]Outgoing
	}{
		{
			name:  "broadcast on isolated node",
			build: func() *graph.Graph { return graph.New(3) }, // no edges at all
			script: func(n int) [][]Outgoing {
				return [][]Outgoing{
					{{To: Broadcast, Payload: IntPayload{Value: 1, Domain: 4}}},
					nil,
					{{To: Broadcast, Payload: nil}},
				}
			},
		},
		{
			name:  "nil payloads on real edges",
			build: func() *graph.Graph { return graph.Ring(5) },
			script: func(n int) [][]Outgoing {
				s := make([][]Outgoing, n)
				for v := 0; v < n; v++ {
					s[v] = []Outgoing{{To: Broadcast}, {To: (v + 1) % n}}
				}
				return s
			},
		},
		{
			name:  "exact cap boundary passes",
			build: func() *graph.Graph { return graph.Complete(4) },
			cfg:   Config{BandwidthBits: 16},
			script: func(n int) [][]Outgoing {
				s := make([][]Outgoing, n)
				for v := 0; v < n; v++ {
					s[v] = []Outgoing{{To: Broadcast, Payload: capPayload}}
				}
				return s
			},
		},
		{
			name:  "one over cap fails identically",
			build: func() *graph.Graph { return graph.Complete(4) },
			cfg:   Config{BandwidthBits: 16},
			script: func(n int) [][]Outgoing {
				s := make([][]Outgoing, n)
				for v := 0; v < n; v++ {
					s[v] = []Outgoing{{To: Broadcast, Payload: capPayload}}
				}
				s[2] = []Outgoing{{To: 3, Payload: over}}
				return s
			},
		},
		{
			name:  "stray and out-of-range targets",
			build: func() *graph.Graph { return graph.Path(4) },
			script: func(n int) [][]Outgoing {
				return [][]Outgoing{
					{{To: 1, Payload: IntPayload{Value: 0, Domain: 2}}},
					{{To: 3, Payload: IntPayload{Value: 0, Domain: 2}}}, // not a neighbor
					{{To: 99, Payload: nil}},                            // out of range
					{{To: -5, Payload: nil}},                            // negative non-broadcast
				}
			},
		},
		{
			name:  "cap applies to fully dropped broadcast",
			build: func() *graph.Graph { return graph.Ring(4) },
			cfg:   Config{BandwidthBits: 16, DropMessage: func(round, from, to int) bool { return true }},
			script: func(n int) [][]Outgoing {
				s := make([][]Outgoing, n)
				s[0] = []Outgoing{{To: Broadcast, Payload: over}}
				return s
			},
		},
		{
			name:  "fault injection parity",
			build: func() *graph.Graph { return graph.GNP(8, 0.4, rand.New(rand.NewSource(5))) },
			cfg:   Config{DropMessage: drop},
			script: func(n int) [][]Outgoing {
				s := make([][]Outgoing, n)
				for v := 0; v < n; v++ {
					s[v] = []Outgoing{{To: Broadcast, Payload: IntPayload{Value: v % 4, Domain: 16}}}
				}
				return s
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			compareRouters(t, g, tc.cfg, tc.script(g.N()), 4)
		})
	}
}

// TestArenaInboxOverflow exercises the arena's escape hatch: a
// protocol sending two messages over the same edge in one round
// overflows the receiver's deg-sized slot, which must promote that
// inbox to a grown slice without corrupting neighboring inboxes or
// diverging from the reference.
func TestArenaInboxOverflow(t *testing.T) {
	g := graph.Path(3)
	script := [][]Outgoing{
		{{To: 1, Payload: IntPayload{Value: 0, Domain: 4}}, {To: 1, Payload: IntPayload{Value: 1, Domain: 4}}, {To: 1, Payload: IntPayload{Value: 2, Domain: 4}}},
		{{To: Broadcast, Payload: IntPayload{Value: 3, Domain: 4}}},
		{{To: 1, Payload: IntPayload{Value: 0, Domain: 4}}},
	}
	compareRouters(t, g, Config{}, script, 5)
}
