package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"listcolor/internal/graph"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"lockstep", Config{Driver: Lockstep}, true},
		{"workers", Config{Driver: Workers}, true},
		{"congest", Config{BandwidthBits: 32, MaxRounds: 100}, true},
		{"negative bandwidth", Config{BandwidthBits: -1}, false},
		{"negative max rounds", Config{MaxRounds: -5}, false},
		{"unknown driver", Config{Driver: Driver(99)}, false},
		{"negative driver", Config{Driver: Driver(-1)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("Validate() = nil, want error")
				}
				if !errors.Is(err, ErrConfig) {
					t.Fatalf("Validate() = %v, not wrapping ErrConfig", err)
				}
			}
		})
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	// Run surfaces Validate failures before touching the network.
	nodes, _ := newFloodMaxNodes(3, 1)
	_, err := Run(NewNetwork(graph.Path(3)), nodes, Config{BandwidthBits: -8})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("Run with bad config: err = %v, want ErrConfig", err)
	}
}

// TestHookCallCountContract asserts the documented call-count contract
// with counting predicates, under every driver:
//
//   - DropMessage: exactly once per edge delivery of a sent message;
//   - CorruptMessage: exactly once per NON-dropped delivery;
//   - NodeDown: exactly once per (round, not-yet-terminated node),
//     rounds ≥ 1, ascending node id within a round.
//
// The hooks run on the coordinator/routing goroutine in every driver,
// so the counting maps need no locking — that serialization is itself
// part of the contract under test (the race detector enforces it).
func TestHookCallCountContract(t *testing.T) {
	type edgeKey struct{ round, from, to int }
	n := 9
	g := graph.GNP(n, 0.4, rand.New(rand.NewSource(11)))
	for _, d := range AllDrivers() {
		dropSeen := map[edgeKey]int{}
		corruptSeen := map[edgeKey]int{}
		downSeen := map[edgeKey]int{} // from unused; key is (round, v, 0)
		downOrder := map[int][]int{}  // round -> consult order
		dropped := 0
		cfg := Config{
			Driver: d,
			DropMessage: func(round, from, to int) bool {
				dropSeen[edgeKey{round, from, to}]++
				if (round+from+to)%5 == 0 {
					dropped++
					return true
				}
				return false
			},
			CorruptMessage: func(round, from, to int, p Payload) (Payload, bool) {
				corruptSeen[edgeKey{round, from, to}]++
				return nil, false
			},
			NodeDown: func(round, v int) NodeStatus {
				downSeen[edgeKey{round, v, 0}]++
				downOrder[round] = append(downOrder[round], v)
				return NodeUp
			},
		}
		nodes, _ := newFloodMaxNodes(n, 3)
		res, err := Run(NewNetwork(g), nodes, cfg)
		if err != nil {
			t.Fatalf("driver %v: %v", d, err)
		}
		for k, c := range dropSeen {
			if c != 1 {
				t.Fatalf("driver %v: DropMessage called %d times for %+v", d, c, k)
			}
		}
		for k, c := range corruptSeen {
			if c != 1 {
				t.Fatalf("driver %v: CorruptMessage called %d times for %+v", d, c, k)
			}
			if dropSeen[k] != 1 {
				t.Fatalf("driver %v: CorruptMessage consulted for %+v without a DropMessage consult", d, k)
			}
		}
		// Corrupt consults = drop consults minus actual drops: corruption
		// is only offered messages that survived the drop stage.
		if got, want := len(corruptSeen), len(dropSeen)-dropped; got != want {
			t.Errorf("driver %v: %d corrupt consults, want %d (=%d deliveries - %d drops)",
				d, got, want, len(dropSeen), dropped)
		}
		// Delivered messages == corrupt consults (drops are not billed).
		if res.Messages != len(corruptSeen) {
			t.Errorf("driver %v: Result.Messages = %d, want %d delivered", d, res.Messages, len(corruptSeen))
		}
		for k, c := range downSeen {
			if c != 1 {
				t.Fatalf("driver %v: NodeDown called %d times for round %d node %d", d, c, k.round, k.from)
			}
			if k.round < 1 {
				t.Fatalf("driver %v: NodeDown consulted in round %d; Init must always run", d, k.round)
			}
		}
		if got := len(downOrder[1]); got != n {
			t.Errorf("driver %v: round 1 consulted %d nodes, want all %d", d, got, n)
		}
		for round, order := range downOrder {
			if !sort.IntsAreSorted(order) {
				t.Errorf("driver %v: round %d NodeDown order not ascending: %v", d, round, order)
			}
		}
	}
}

// TestNodeDownedTransient: a downed node loses the round and its inbox
// but keeps state and resumes. Downing ring node 2 for one round delays
// the flood through it without corrupting its final value.
func TestNodeDownedTransient(t *testing.T) {
	n := 7
	g := graph.Ring(n)
	for _, d := range AllDrivers() {
		nodes, results := newFloodMaxNodes(n, n+2) // slack for the lost round
		_, err := Run(NewNetwork(g), nodes, Config{
			Driver: d,
			NodeDown: func(round, v int) NodeStatus {
				if v == 2 && round == 1 {
					return NodeDowned
				}
				return NodeUp
			},
		})
		if err != nil {
			t.Fatalf("driver %v: %v", d, err)
		}
		for v := 0; v < n; v++ {
			if results[v] != n-1 {
				t.Errorf("driver %v: node %d learned %d, want %d after transient outage", d, v, results[v], n-1)
			}
		}
	}
}

// waitAll terminates only after hearing from every neighbor in each of
// its three rounds — a crash-stopped neighbor stalls it forever, so the
// run must end in ErrRoundLimit, identically under every driver.
type waitAll struct{ heard int }

func (w *waitAll) Init(ctx *Context) []Outgoing {
	return []Outgoing{{To: Broadcast, Payload: IntPayload{Value: ctx.ID, Domain: 64}}}
}

func (w *waitAll) Round(ctx *Context, round int, inbox []Message) ([]Outgoing, bool) {
	if len(inbox) == len(ctx.Neighbors) {
		w.heard++
	}
	if w.heard >= 3 {
		return nil, true
	}
	return []Outgoing{{To: Broadcast, Payload: IntPayload{Value: ctx.ID, Domain: 64}}}, false
}

func TestNodeCrashedStallsNeighborsDeterministically(t *testing.T) {
	n := 6
	g := graph.Ring(n)
	crash := func(round, v int) NodeStatus {
		if v == 0 && round >= 2 {
			return NodeCrashed
		}
		return NodeUp
	}
	var errTexts []string
	var results []Result
	for _, d := range AllDrivers() {
		nodes := make([]Node, n)
		for v := range nodes {
			nodes[v] = &waitAll{}
		}
		res, err := Run(NewNetwork(g), nodes, Config{Driver: d, MaxRounds: 30, NodeDown: crash})
		if !errors.Is(err, ErrRoundLimit) {
			t.Fatalf("driver %v: err = %v, want ErrRoundLimit (neighbors of the crashed node stall)", d, err)
		}
		errTexts = append(errTexts, err.Error())
		results = append(results, res)
	}
	for i := 1; i < len(errTexts); i++ {
		if errTexts[i] != errTexts[0] {
			t.Errorf("divergent errors: %q vs %q", errTexts[0], errTexts[i])
		}
		if results[i] != results[0] {
			t.Errorf("divergent stats under crash: %+v vs %+v", results[0], results[i])
		}
	}
	// Sanity: without the crash the protocol terminates cleanly.
	nodes := make([]Node, n)
	for v := range nodes {
		nodes[v] = &waitAll{}
	}
	if _, err := Run(NewNetwork(g), nodes, Config{MaxRounds: 30}); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
}

// TestCorruptionBillsOriginalBits: corrupting every delivery changes
// nothing about the accounting — Messages and TotalBits are billed from
// the sent payload, not the corrupted substitute.
func TestCorruptionBillsOriginalBits(t *testing.T) {
	n := 8
	g := graph.GNP(n, 0.5, rand.New(rand.NewSource(3)))
	clean, _ := newFloodMaxNodes(n, 3)
	resClean, err := Run(NewNetwork(g), clean, Config{MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	corruptAll := func(round, from, to int, p Payload) (Payload, bool) {
		return Corrupted{Data: []byte{0xff}, Bits: p.SizeBits()}, true
	}
	for _, d := range AllDrivers() {
		nodes, _ := newFloodMaxNodes(n, 3)
		res, err := Run(NewNetwork(g), nodes, Config{Driver: d, MaxRounds: 50, CorruptMessage: corruptAll})
		if err != nil {
			t.Fatalf("driver %v: %v", d, err)
		}
		// floodMax ignores unrecognized payloads, so the round structure
		// is unchanged and the billing must match the clean run exactly.
		if res.Messages != resClean.Messages || res.TotalBits != resClean.TotalBits {
			t.Errorf("driver %v: corrupt-all billed %d msgs/%d bits, clean %d/%d",
				d, res.Messages, res.TotalBits, resClean.Messages, resClean.TotalBits)
		}
	}
}

// TestCrashedNodeBillsNothingAfterCrash: from its crash round on, a
// crashed node sends nothing, so messages from it are never billed.
func TestCrashedNodeBillsNothingAfterCrash(t *testing.T) {
	n := 6
	g := graph.Complete(n)
	fromCrashed := 0
	crashRound := 2
	cfg := Config{
		MaxRounds: 30,
		NodeDown: func(round, v int) NodeStatus {
			if v == 0 && round >= crashRound {
				return NodeCrashed
			}
			return NodeUp
		},
		// DropMessage sees every delivery with the SEND round; use it as
		// a probe for sends from the crashed node at or after its crash
		// round (it never executes those rounds, so none may exist).
		DropMessage: func(round, from, to int) bool {
			if from == 0 && round >= crashRound {
				fromCrashed++
			}
			return false
		},
	}
	for _, d := range AllDrivers() {
		fromCrashed = 0
		nodes, _ := newFloodMaxNodes(n, 4)
		if _, err := Run(NewNetwork(g), nodes, cfg.WithDriver(d)); err != nil {
			t.Fatalf("driver %v: %v", d, err)
		}
		if fromCrashed != 0 {
			t.Errorf("driver %v: %d deliveries from node 0 after its crash round", d, fromCrashed)
		}
	}
}

// TestRoundStatsFoldUnderFaults: the per-round stream still Seq-folds
// to the whole-run Result when drops, corruption, and node faults are
// all active. Uses varySender (init-silent) because init-round sends
// precede the first RoundStats window by design.
func TestRoundStatsFoldUnderFaults(t *testing.T) {
	n := 10
	g := graph.GNP(n, 0.4, rand.New(rand.NewSource(7)))
	for _, d := range AllDrivers() {
		var folded Result
		cfg := Config{
			Driver:      d,
			MaxRounds:   60,
			DropMessage: deterministicDrop(5, 10),
			CorruptMessage: func(round, from, to int, p Payload) (Payload, bool) {
				if (round+from)%4 == 0 {
					return Corrupted{Data: []byte{1}, Bits: p.SizeBits()}, true
				}
				return nil, false
			},
			NodeDown: func(round, v int) NodeStatus {
				if v == 3 && round == 2 {
					return NodeDowned
				}
				return NodeUp
			},
			OnRound: func(rs RoundStats) {
				folded = Seq(folded, Result{
					Rounds:         1,
					Messages:       rs.Messages,
					TotalBits:      rs.Bits,
					MaxMessageBits: rs.MaxBits,
				})
			},
		}
		nodes := make([]Node, n)
		for v := range nodes {
			nodes[v] = varySender{rounds: 6}
		}
		res, err := Run(NewNetwork(g), nodes, cfg)
		if err != nil {
			t.Fatalf("driver %v: %v", d, err)
		}
		if folded != res {
			t.Errorf("driver %v: Seq-folded RoundStats %+v != Result %+v", d, folded, res)
		}
	}
}

// TestDriverEquivalenceUnderNodeFaults extends the fault-equivalence
// property to the new hook axes: random crash/down schedules plus
// corruption must damage every driver identically.
func TestDriverEquivalenceUnderNodeFaults(t *testing.T) {
	f := func(seed int64, rawN uint8, rawRate uint8) bool {
		n := int(rawN%18) + 3
		rate := uint64(rawRate%30) + 1
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.3, rng)
		status := func(round, v int) NodeStatus {
			x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(round)*0xbf58476d1ce4e5b9 + uint64(v)
			x ^= x >> 30
			x *= 0x94d049bb133111eb
			x ^= x >> 31
			switch {
			case x%100 < rate/2:
				return NodeCrashed
			case x%100 < rate:
				return NodeDowned
			default:
				return NodeUp
			}
		}
		corrupt := func(round, from, to int, p Payload) (Payload, bool) {
			x := uint64(seed) ^ uint64(round*1315423911) ^ uint64(from*2654435761) ^ uint64(to)
			x ^= x >> 16
			if x%10 == 0 {
				return Corrupted{Data: []byte{byte(x)}, Bits: p.SizeBits()}, true
			}
			return nil, false
		}
		cfg := Config{MaxRounds: 40, NodeDown: status, CorruptMessage: corrupt}
		type out struct {
			res     Result
			errText string
			colors  []int
		}
		var outs []out
		for _, d := range AllDrivers() {
			nodes, results := newFloodMaxNodes(n, 4)
			res, err := Run(NewNetwork(g), nodes, cfg.WithDriver(d))
			o := out{res: res, colors: append([]int(nil), results...)}
			if err != nil {
				o.errText = err.Error()
			}
			outs = append(outs, o)
		}
		for _, o := range outs[1:] {
			if o.res != outs[0].res || o.errText != outs[0].errText {
				return false
			}
			for v := range o.colors {
				if o.colors[v] != outs[0].colors[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
