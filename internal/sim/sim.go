// Package sim implements the synchronous message-passing substrate the
// coloring algorithms run on: the LOCAL and CONGEST models of
// distributed computing [Pel00].
//
// A network is an n-node graph; computation proceeds in synchronous
// rounds. In each round every node may send a (possibly different)
// message to each neighbor, receives the messages its neighbors sent,
// and performs arbitrary local computation. The LOCAL model places no
// bound on message size; CONGEST caps every message at O(log n) bits.
// The engine counts rounds, messages and exact payload bits, and can
// enforce a per-message bandwidth cap so that tests can prove an
// algorithm is CONGEST-compliant rather than assert it.
//
// Protocols are per-node state machines (the Node interface). Two
// drivers execute them: a deterministic sequential lockstep driver and
// a worker-pool driver that steps each round's nodes concurrently.
// Both must produce identical results; the test suite checks this
// property on random protocols.
//
// A node that panics does not crash the process: its panic becomes an
// ErrNodePanic run error. The drivers step a whole pass of nodes — the
// init pass, one lockstep round, one worker's chunk of a round — under
// a single deferred recover, not one per node step, and that recover
// covers node code only: a panic raised by the engine or by a Config
// hook still propagates out of Run.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"listcolor/internal/graph"
)

// Broadcast, used as Outgoing.To, sends the payload to every neighbor.
const Broadcast = -1

// Payload is the content of a message. Implementations report their
// exact encoded size in bits so the engine can do CONGEST accounting.
type Payload interface {
	SizeBits() int
}

// Message is a delivered message: who sent it and what it carries.
type Message struct {
	From    int
	Payload Payload
}

// Outgoing is a message a node wants delivered next round. To must be
// a neighbor of the sender, or Broadcast.
type Outgoing struct {
	To      int
	Payload Payload
}

// Node is a per-node protocol state machine.
//
// Init is called once before the first round and returns the messages
// to deliver in round 1. Round is called once per round r = 1, 2, ...
// with the messages delivered that round; it returns messages for
// round r+1 and whether the node has terminated (output fixed, no
// further sends). Messages returned together with done=true are still
// delivered.
//
// The inbox slice is owned by the engine's reusable delivery arena and
// is valid only for the duration of the Round call: a node that needs
// a Message (or its From field) later must copy it. Payload values
// themselves are sender-created and never recycled by the engine, so
// retaining a received Payload is safe. The engine is done with a
// returned outbox before it calls the node again, so a node may
// return the same backing array every time.
type Node interface {
	Init(ctx *Context) []Outgoing
	Round(ctx *Context, round int, inbox []Message) (outbox []Outgoing, done bool)
}

// Context gives a node its local view of the topology. Slices are
// owned by the engine and must not be modified.
type Context struct {
	ID        int
	Neighbors []int
	Out       []int // out-neighbors under the input orientation; nil if unoriented
	In        []int // in-neighbors under the input orientation; nil if unoriented
}

// Driver selects the execution strategy.
type Driver int

const (
	// Lockstep runs nodes sequentially in id order each round. It is
	// the deterministic reference driver.
	Lockstep Driver = iota + 1
	// Workers runs each round's node computations on a fixed pool of
	// worker goroutines (GOMAXPROCS-sized), then routes sequentially in
	// id order. Results are identical to Lockstep; this driver is the
	// fastest for large networks with cheap per-node work.
	Workers
)

// NodeStatus is the verdict of the NodeDown fault hook for one node in
// one round.
type NodeStatus int

const (
	// NodeUp is the zero value: the node executes the round normally.
	NodeUp NodeStatus = iota
	// NodeDowned skips the node's Round call for this round only. Its
	// state is preserved and the node stays in the run (crash-recover
	// semantics), but the messages delivered to it this round are lost
	// — inboxes live for exactly one round — and it sends nothing.
	NodeDowned
	// NodeCrashed terminates the node permanently (crash-stop): it is
	// marked done without a final Round call, never consulted again,
	// and sends nothing from this round on. Messages it routed in the
	// previous round are still delivered — the crash takes effect at
	// the start of its round. Neighbors waiting on a crashed node's
	// messages stall until MaxRounds, which surfaces as a
	// deterministic ErrRoundLimit under every driver.
	NodeCrashed
)

// Config controls an engine run. The zero value means: Lockstep
// driver, unlimited bandwidth (LOCAL model), and a default round limit.
type Config struct {
	Driver Driver
	// BandwidthBits, when positive, is the maximum size of a single
	// message; exceeding it fails the run (CONGEST enforcement).
	BandwidthBits int
	// MaxRounds bounds the run as a safety net against non-terminating
	// protocols. 0 means DefaultMaxRounds.
	MaxRounds int
	// Shards, when above 1, makes the Workers driver deliver each
	// round's messages in that many contiguous receiver ranges
	// concurrently, each range a disjoint slice of the shared inbox
	// arena (shard.go). Results are bit-identical for every value —
	// inbox contents, statistics, and errors all match the sequential
	// route — because each receiver's inbox is filled by exactly one
	// shard in the same ascending-sender order. 0 and 1 route
	// sequentially; drivers other than Workers ignore the field.
	// Rounds with a DropMessage or CorruptMessage hook installed also
	// route sequentially, preserving the hooks' single-goroutine
	// call-order contract.
	Shards int
	// OnRound, if non-nil, is invoked after every round with that
	// round's statistics (both drivers call it from the coordinating
	// goroutine).
	OnRound func(RoundStats)
	// DropMessage, if non-nil, is a fault-injection hook: a message
	// sent by from to to in the given round is silently discarded when
	// it returns true. The paper's model assumes reliable links, so
	// algorithms are NOT expected to survive drops — this exists so
	// tests and the adversary layer can prove the validators and the
	// repair layer catch the resulting damage.
	//
	// Call-count contract (all hooks): invoked exactly once per edge
	// delivery of a sent message — a broadcast consults it once per
	// receiving neighbor — in ascending sender id, send order within a
	// sender, always from the routing goroutine. The schedule is
	// identical under every driver, so a deterministic predicate sees
	// the identical call sequence regardless of driver; predicates
	// should still be pure functions of (round, from, to) so that
	// reruns (driver-equivalence checks) see the same faults.
	DropMessage func(round, from, to int) bool
	// CorruptMessage, if non-nil, may replace the payload of a
	// delivery: returning (p2, true) delivers p2 instead of p.
	// It is consulted exactly once per NON-dropped edge delivery
	// (after DropMessage, same ordering contract), from the routing
	// goroutine. Accounting is untouched by corruption: the bits
	// billed and the bandwidth cap are properties of the sent payload,
	// so a corrupted message still bills its full original size.
	// The adversary package uses this with the Corrupted payload type
	// to model in-flight bit-flips.
	CorruptMessage func(round, from, to int, p Payload) (Payload, bool)
	// NodeDown, if non-nil, decides per (round, node) whether the node
	// executes. It is consulted exactly once per round for every node
	// that has not yet terminated (done or crashed), in ascending node
	// id, from the coordinating goroutine, for rounds ≥ 1 (Init always
	// executes; fault plans start at round 1). Down and crashed nodes
	// are excluded from that round's ActiveNodes and bill nothing,
	// but deliveries addressed to them are still billed — a sender
	// cannot observe the receiver's failure.
	NodeDown func(round, v int) NodeStatus
	// Span, if non-nil, collects the composition structure of composed
	// algorithms: orchestrators attach a child span per sub-step. The
	// engine itself ignores it.
	Span *Span
}

// ErrConfig is returned (wrapped) by Config.Validate and Run for
// nonsensical configurations.
var ErrConfig = errors.New("sim: invalid config")

// Validate rejects nonsensical configurations before a run starts:
// negative bandwidth or round limits and unknown drivers error here,
// at Run entry, instead of silently misbehaving mid-run.
func (c Config) Validate() error {
	if c.BandwidthBits < 0 {
		return fmt.Errorf("%w: negative BandwidthBits %d", ErrConfig, c.BandwidthBits)
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("%w: negative MaxRounds %d", ErrConfig, c.MaxRounds)
	}
	if c.Shards < 0 {
		return fmt.Errorf("%w: negative Shards %d", ErrConfig, c.Shards)
	}
	switch c.Driver {
	case 0, Lockstep, Workers:
	default:
		return fmt.Errorf("%w: unknown driver %d", ErrConfig, c.Driver)
	}
	return nil
}

// DefaultMaxRounds is the round limit used when Config.MaxRounds is 0.
const DefaultMaxRounds = 1 << 22

// RoundStats describes one completed round. Messages, Bits and MaxBits
// cover the sends routed during that round (delivered in the next
// round); dropped deliveries are excluded from Messages and Bits but a
// dropped message still counts toward MaxBits, mirroring Result's
// accounting.
type RoundStats struct {
	Round       int
	ActiveNodes int
	Messages    int
	Bits        int
	// MaxBits is the largest single message sent this round.
	MaxBits int
}

// Result aggregates a completed run.
type Result struct {
	Rounds         int // number of rounds until every node terminated
	Messages       int // total messages delivered
	TotalBits      int // total payload bits delivered
	MaxMessageBits int // largest single message
}

// merge combines two Results: messages and bits always add, the max
// message size is always the larger of the two, and the round counts
// combine by the given rule. Seq and Par are the only two sound rules
// — both flow through this one helper so the shared fields cannot
// drift apart.
func merge(a, b Result, rounds int) Result {
	return Result{
		Rounds:         rounds,
		Messages:       a.Messages + b.Messages,
		TotalBits:      a.TotalBits + b.TotalBits,
		MaxMessageBits: max(a.MaxMessageBits, b.MaxMessageBits),
	}
}

// Seq returns the statistics of running a and then b sequentially:
// rounds, messages and bits add; the max message size is the larger of
// the two. The recursive algorithms use it to charge sub-protocol
// costs exactly as the paper's reductions do.
func Seq(a, b Result) Result {
	return merge(a, b, a.Rounds+b.Rounds)
}

// Par returns the statistics of running a and b in parallel on
// vertex-disjoint parts of the network: rounds take the max, messages
// and bits add.
func Par(a, b Result) Result {
	return merge(a, b, max(a.Rounds, b.Rounds))
}

// ErrBandwidth is returned (wrapped) when a message exceeds the
// configured CONGEST cap.
var ErrBandwidth = errors.New("sim: message exceeds bandwidth cap")

// ErrNotNeighbor is returned (wrapped) when a node addresses a
// non-neighbor.
var ErrNotNeighbor = errors.New("sim: message to non-neighbor")

// ErrRoundLimit is returned (wrapped) when the protocol fails to
// terminate within MaxRounds.
var ErrRoundLimit = errors.New("sim: round limit exceeded")

// ErrNodePanic is returned (wrapped) when a node's Init or Round
// panics. Protocols are allowed to panic on violated invariants (e.g.
// a message lost to fault injection); the engine converts that into a
// deterministic run error — attributed to the smallest panicking node
// id of the earliest failing round, under every driver — instead of
// crashing the process. The recover runs once per pass of nodes (the
// init pass, a lockstep round, a worker's chunk) and converts only
// panics raised inside a node's Init or Round: a panicking NodeDown,
// DropMessage, CorruptMessage or OnRound hook, or the router itself,
// panics out of Run as before.
var ErrNodePanic = errors.New("sim: node panicked")

// nodeStep attributes a panic to the node whose code raised it, so a
// pass of many node steps needs only one deferred recover. A driver
// sets v to a node's id just before calling its Init or Round and back
// to -1 right after; everything else the pass runs — routing, the
// fault hooks — runs with v = -1.
type nodeStep struct {
	round int // 0 while stepping Init
	v     int // the node whose Init or Round is running, or -1
}

// catch is deferred once per pass. A panic raised in node code becomes
// an ErrNodePanic stored in *err, and the pass returns normally; a
// panic raised with v = -1 is left alone and keeps unwinding.
func (s *nodeStep) catch(err *error) {
	if s.v < 0 {
		return
	}
	if r := recover(); r != nil {
		if s.round == 0 {
			*err = fmt.Errorf("%w: node %d in init: %v", ErrNodePanic, s.v, r)
		} else {
			*err = fmt.Errorf("%w: node %d in round %d: %v", ErrNodePanic, s.v, s.round, r)
		}
	}
}

// initNodes calls every node's Init in id order and routes its sends,
// the init pass both drivers share, under one deferred recover.
func initNodes(nodes []Node, ctxs []Context, rt *router) (err error) {
	s := nodeStep{v: -1}
	defer s.catch(&err)
	for v := range nodes {
		s.v = v
		outs := nodes[v].Init(&ctxs[v])
		s.v = -1
		if rerr := rt.route(v, outs, &rt.all); rerr != nil {
			return fmt.Errorf("init of node %d: %w", v, rerr)
		}
	}
	return nil
}

// Network is the communication topology: a CSR-form undirected graph
// plus an optional edge orientation exposed to the nodes
// (communication is always bidirectional, as in the paper's model).
//
// CSR is the native representation end-to-end: the router, the inbox
// arena, and the node contexts all index the shared rowPtr/col arrays,
// and neighbor slices handed to nodes are zero-copy views into them.
// A network over an adjacency-list Graph converts once at
// construction; a Digraph already is its CSR form, and the solvers'
// sub-runs and the scale paths build from a CSR directly.
type Network struct {
	topo *graph.CSR
	or   *graph.Oriented // nil for an unoriented network
}

// NewNetwork returns a network over an undirected graph.
func NewNetwork(g *graph.Graph) *Network {
	return &Network{topo: graph.CSRFromGraph(g)}
}

// NewCSRNetwork returns a network directly over a CSR topology —
// the streamed-generator path, which never builds adjacency lists.
func NewCSRNetwork(c *graph.CSR) *Network {
	return &Network{topo: c}
}

// NewOrientedNetwork returns a network over an oriented graph: nodes
// see Out/In neighbor sets, but messages travel both ways.
func NewOrientedNetwork(d *graph.Digraph) *Network {
	return NewOrientedCSRNetwork(d.Oriented)
}

// NewOrientedCSRNetwork returns a network over an orientation in CSR
// form.
func NewOrientedCSRNetwork(o *graph.Oriented) *Network {
	return &Network{topo: o.CSR, or: o}
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.topo.N() }

// CSR returns the native topology.
func (nw *Network) CSR() *graph.CSR { return nw.topo }

// Oriented returns the orientation, or nil for an unoriented network.
func (nw *Network) Oriented() *graph.Oriented { return nw.or }

// Engine is the set-up every run of one solve shares: the router, the
// node contexts, the two inbox arenas and lockstep's done flags,
// grown to the largest run so far and re-carved over each run's
// topology, the dense Index the solve induces its sub-graphs through,
// and the scratch its algorithm packages borrow (Borrow, Return). A
// solve makes one, passes it to each sub-run, and drops it when it
// returns, so no memory outlives the solve and parallel solves never
// share one. Its zero value is ready; Run uses a fresh one per call.
type Engine struct {
	Index   graph.Index
	ctxs    []Context
	arena   [2][]Message
	boxes   [2][][]Message
	rt      router
	done    []bool // the lockstep run's done flags (doneFlags)
	scratch []any  // values handed back by Return, one *T each
}

// Borrow takes a *T from e's scratch, or returns a new zero T if none
// is free. The caller owns it until it hands it back with Return, so a
// nested Borrow of the same type gets a value of its own. A package
// borrows through an unexported type, which keeps its buffers from
// every other package's; they live as long as e, one solve.
func Borrow[T any](e *Engine) *T {
	for i, x := range e.scratch {
		if v, ok := x.(*T); ok {
			last := len(e.scratch) - 1
			e.scratch[i], e.scratch[last] = e.scratch[last], nil
			e.scratch = e.scratch[:last]
			return v
		}
	}
	return new(T)
}

// Return hands v back to e for the next Borrow of its type. The caller
// must not use v afterwards.
func Return[T any](e *Engine, v *T) {
	e.scratch = append(e.scratch, v)
}

// doneFlags returns the engine's done flags for an n-node run, all
// false: lockstep's finished-or-crashed flags.
func (e *Engine) doneFlags(n int) []bool {
	e.done = graph.Carve(e.done, n)
	clear(e.done)
	return e.done
}

// contexts builds the per-node contexts as one flat array, every
// Neighbors slice a zero-copy view into the CSR column array and
// Out/In views into the orientation. Both drivers index it.
func (e *Engine) contexts(nw *Network) []Context {
	n := nw.N()
	if cap(e.ctxs) < n {
		e.ctxs = make([]Context, n)
	}
	ctxs := e.ctxs[:n]
	for v := range ctxs {
		ctxs[v] = Context{ID: v, Neighbors: nw.topo.Row(v)}
		if nw.or != nil {
			ctxs[v].Out, ctxs[v].In = nw.or.Out(v), nw.or.In(v)
		}
	}
	return ctxs
}

// inboxes carves arena k into per-node inboxes of capacity deg(v) —
// the exact per-round inbound slot count of the paper's
// one-message-per-edge regime. Slot offsets come straight from the CSR
// row offsets: the arena is the topology's mirror image.
func (e *Engine) inboxes(k int, c *graph.CSR) [][]Message {
	n, arcs := c.N(), int(c.Arcs())
	if cap(e.arena[k]) < arcs {
		e.arena[k] = make([]Message, arcs)
	}
	if cap(e.boxes[k]) < n {
		e.boxes[k] = make([][]Message, n)
	}
	flat, boxes := e.arena[k][:arcs], e.boxes[k][:n]
	for v := range boxes {
		off := int(c.RowStart(v))
		boxes[v] = flat[off : off : off+c.Degree(v)]
	}
	return boxes
}

// Run executes the protocol given by nodes (one per vertex) on the
// network and returns the aggregated result. len(nodes) must equal the
// number of vertices.
func Run(nw *Network, nodes []Node, cfg Config) (Result, error) {
	return new(Engine).Run(nw, nodes, cfg)
}

// Run is sim.Run on the engine set-up e.
func (e *Engine) Run(nw *Network, nodes []Node, cfg Config) (Result, error) {
	if len(nodes) != nw.N() {
		return Result{}, fmt.Errorf("sim: %d nodes for %d vertices", len(nodes), nw.N())
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Driver == 0 {
		cfg.Driver = Lockstep
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	switch cfg.Driver {
	case Lockstep:
		return runLockstep(e, nw, nodes, cfg)
	case Workers:
		return runWorkers(e, nw, nodes, cfg)
	default:
		return Result{}, fmt.Errorf("sim: unknown driver %d", cfg.Driver)
	}
}

// router collects each round's outgoing messages into a double-buffered
// inbox arena and produces the next round's inboxes, accounting bits
// and enforcing caps. Steady-state routing performs no allocation: each
// node's inbox is a fixed-capacity slot carved out of one flat
// []Message sized by the graph's degree sequence (CSR layout), and the
// two arenas are swapped each round instead of reallocated. A protocol
// that sends more than one message per edge per round overflows its
// receiver's slot; the full slice expressions below make that append
// promote the single inbox to its own heap slice (kept, and reused at
// its grown capacity) rather than clobber the next node's slots.
//
// Delivery order guarantee: inboxes are filled in ascending sender id
// because every driver routes outboxes in id order, and a sender's own
// messages stay in send order. That is exactly the ordering the old
// per-inbox stable sort produced, so no sorting happens anywhere.
type router struct {
	topo *graph.CSR
	cfg  Config
	// res totals the rounds before the one in flight; all is the full
	// receiver range, whose tally is the round in flight's traffic.
	res Result
	all part
	// cur holds the inboxes the drivers are consuming this round; next
	// is the arena route fills for the following round. flush swaps
	// them, so an inbox handed to a node is valid for exactly one
	// Round call.
	cur, next [][]Message
	round     int            // the round currently being routed (0 = init sends)
	parts     []part         // the receiver ranges of sharded routing (shard.go)
	wg        sync.WaitGroup // the sharded round's range goroutines
}

// part is a contiguous receiver range [lo, hi) and the tally billed to
// it in the round in flight: the deliveries, bits and largest size of
// the sends of the senders it holds (route).
type part struct {
	lo, hi int
	got    Result
	failed bool // a send broke the protocol (sharded routing only)
}

func newRouter(e *Engine, nw *Network, cfg Config) *router {
	e.rt = router{topo: nw.topo, cfg: cfg, all: part{hi: nw.N()}, cur: e.inboxes(0, nw.topo), next: e.inboxes(1, nw.topo)}
	return &e.rt
}

// route ingests the outbox of node v for the receivers of p = [lo,
// hi): it appends each message addressed to one of them to its inbox.
// When v lies in p, route also checks v's sends, returning an error on
// a protocol violation (non-neighbor target, bandwidth overflow), and
// bills them to p's tally. The sequential route is p = &r.all, the full
// range, which holds every sender and receiver. A sharded round calls
// route for every sender on each of its ranges (shard.go), so each send
// is checked and billed once, by its sender's range, and each delivery
// made once, by its receiver's.
//
// CONGEST accounting semantics: the bandwidth cap and the
// MaxMessageBits statistic are properties of the *sent* message — a
// broadcast is one sent message, and fault injection cannot hide an
// oversized send (dropped messages consume the send). Messages and
// TotalBits are properties of *edge deliveries* — a broadcast is
// billed once per receiving neighbor, and a dropped delivery is not
// billed. Without delivery hooks every receiver of a send gets it, so
// the sender's range bills all of them at once, whichever range
// delivers them.
//
// Most node steps send nothing (a sweep node acts in two rounds of its
// 2q+1), so route is the inlinable empty-outbox test and every caller
// pays a call only for a sender with mail.
func (r *router) route(v int, outs []Outgoing, p *part) error {
	if len(outs) == 0 {
		return nil
	}
	return r.deliver(v, outs, p)
}

// deliver is route for a non-empty outbox.
func (r *router) deliver(v int, outs []Outgoing, p *part) error {
	for i := range outs {
		o := &outs[i]
		own := v >= p.lo && v < p.hi
		hooked := r.cfg.DropMessage != nil || r.cfg.CorruptMessage != nil
		bits := 0
		if own {
			if o.Payload != nil {
				bits = o.Payload.SizeBits()
			}
			if r.cfg.BandwidthBits > 0 && bits > r.cfg.BandwidthBits {
				return fmt.Errorf("%w: node %d sent %d bits (cap %d)", ErrBandwidth, v, bits, r.cfg.BandwidthBits)
			}
		}
		// to is the send's receivers: v's sorted row for a broadcast,
		// the one entry naming o.To otherwise.
		to := r.topo.Row(v)
		if o.To != Broadcast {
			j, ok := slices.BinarySearch(to, o.To)
			if !ok {
				if !own {
					continue // v's own range reports it
				}
				return fmt.Errorf("%w: node %d -> %d", ErrNotNeighbor, v, o.To)
			}
			to = to[j : j+1]
		}
		if own {
			p.got.MaxMessageBits = max(p.got.MaxMessageBits, bits)
			if !hooked {
				p.got.Messages += len(to)
				p.got.TotalBits += len(to) * bits
			}
		}
		if hooked {
			for _, t := range to {
				r.deliverHooked(p, v, t, bits, o.Payload)
			}
			continue
		}
		if p.lo > 0 || p.hi < len(r.next) {
			// A shard keeps the receivers in its range: often none,
			// for a sender outside it.
			if len(to) == 0 || to[0] >= p.hi || to[len(to)-1] < p.lo {
				continue
			}
			lo, _ := slices.BinarySearch(to, p.lo)
			hi, _ := slices.BinarySearch(to, p.hi)
			to = to[lo:hi]
		}
		next := r.next
		for _, t := range to {
			next[t] = append(next[t], Message{From: v, Payload: o.Payload})
		}
	}
	return nil
}

// deliverHooked appends one edge-delivery to the receiving inbox being
// filled for the next round and bills it, unless fault injection drops
// it. A corrupted delivery replaces the payload but bills the
// original's bits: the wire carried the full message, damaged or not.
// Hooked rounds route only the full range (Config.Shards).
func (r *router) deliverHooked(p *part, from, to, bits int, pl Payload) {
	if r.cfg.DropMessage != nil && r.cfg.DropMessage(r.round, from, to) {
		return
	}
	if r.cfg.CorruptMessage != nil {
		if cp, ok := r.cfg.CorruptMessage(r.round, from, to, pl); ok {
			pl = cp
		}
	}
	r.next[to] = append(r.next[to], Message{From: from, Payload: pl})
	p.got.Messages++
	p.got.TotalBits += bits
}

// result is the run's statistics so far: the completed rounds and the
// traffic routed in the round in flight.
func (r *router) result() Result {
	return merge(r.res, r.all.got, r.res.Rounds)
}

// startRound begins round: it folds the traffic routed so far into the
// totals and flushes the inboxes the round consumes.
func (r *router) startRound(round int) [][]Message {
	r.res, r.all.got, r.round = r.result(), Result{}, round
	return r.flush()
}

// endRound records round as completed and reports its statistics to
// OnRound (from the coordinating goroutine, under every driver).
func (r *router) endRound(round, active int) {
	r.res.Rounds = round
	if r.cfg.OnRound != nil {
		r.cfg.OnRound(RoundStats{
			Round:       round,
			ActiveNodes: active,
			Messages:    r.all.got.Messages,
			Bits:        r.all.got.TotalBits,
			MaxBits:     r.all.got.MaxMessageBits,
		})
	}
}

// flush makes the messages routed so far the current round's inboxes
// and recycles the previously consumed arena as the new fill target.
// The returned slices are valid only until the next flush call — i.e.
// for the one round the drivers execute with them.
func (r *router) flush() [][]Message {
	r.cur, r.next = r.next, r.cur
	empty(r.next)
	return r.cur
}

// empty truncates every inbox of boxes, keeping its slots.
func empty(boxes [][]Message) {
	for v := range boxes {
		boxes[v] = boxes[v][:0]
	}
}

func runLockstep(e *Engine, nw *Network, nodes []Node, cfg Config) (Result, error) {
	n := nw.N()
	ctxs := e.contexts(nw)
	rt := newRouter(e, nw, cfg)
	if err := initNodes(nodes, ctxs, rt); err != nil {
		return rt.result(), err
	}
	done := e.doneFlags(n)
	remaining := n
	for round := 1; remaining > 0; round++ {
		if round > cfg.MaxRounds {
			return rt.result(), fmt.Errorf("%w: %d", ErrRoundLimit, cfg.MaxRounds)
		}
		inboxes := rt.startRound(round)
		active, ended, err := lockstepRound(nodes, ctxs, rt, done, round, inboxes)
		if err != nil {
			return rt.result(), err
		}
		remaining -= ended
		rt.endRound(round, active)
	}
	return rt.result(), nil
}

// lockstepRound is one lockstep round: each live node in id order
// consults NodeDown, steps, and has its sends routed before the next
// node steps. The whole pass shares one deferred recover. It returns
// how many nodes stepped and how many terminated (finished or crashed).
func lockstepRound(nodes []Node, ctxs []Context, rt *router, done []bool, round int, inboxes [][]Message) (active, ended int, err error) {
	down := rt.cfg.NodeDown
	s := nodeStep{round: round, v: -1}
	defer s.catch(&err)
	for v := range nodes {
		if done[v] {
			continue
		}
		if down != nil {
			switch down(round, v) {
			case NodeDowned:
				continue // state kept, round (and this round's inbox) lost
			case NodeCrashed:
				done[v] = true
				ended++
				continue
			}
		}
		active++
		s.v = v
		outs, fin := nodes[v].Round(&ctxs[v], round, inboxes[v])
		s.v = -1
		if rerr := rt.route(v, outs, &rt.all); rerr != nil {
			return active, ended, fmt.Errorf("round %d, node %d: %w", round, v, rerr)
		}
		if fin {
			done[v] = true
			ended++
		}
	}
	return active, ended, nil
}
