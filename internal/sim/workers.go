package sim

import (
	"fmt"
	"runtime"
	"sync"

	"listcolor/internal/graph"
)

// runWorkers executes rounds with a fixed worker pool: node Round
// calls within a round run concurrently (they only read their own
// state and inbox), while Init calls run sequentially in id order and
// routing fills every inbox in ascending sender id — sequentially, or
// across Config.Shards receiver ranges (shard.go) — so results are
// byte-identical to the lockstep driver.
func runWorkers(e *Engine, nw *Network, nodes []Node, cfg Config) (Result, error) {
	n := nw.N()
	ctxs := e.contexts(nw)
	rt := newRouter(e, nw, cfg)
	if err := initNodes(nodes, ctxs, rt); err != nil {
		return rt.result(), err
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	outs := make([][]Outgoing, n)
	fins := make([]bool, n)
	// active holds the not-yet-finished node ids in ascending order; it
	// starts as all nodes and is compacted stably in place during the
	// routing pass of each round, so per-round cost tracks the shrinking
	// active set instead of rescanning all n done flags (protocols with
	// staggered termination — sweeps, Linial phases — spend most rounds
	// with a small active tail).
	active := graph.Vertices(n)
	// status records the NodeDown verdict of every active node for the
	// round in flight; only allocated when the hook is set (the workers
	// skip non-up nodes, the routing pass drops crashed ones).
	var status []NodeStatus
	if cfg.NodeDown != nil {
		status = make([]NodeStatus, n)
	}
	w := &workerRound{nodes: nodes, ctxs: ctxs, status: status, outs: outs, fins: fins,
		panics: make([]nodePanic, workers)}
	for round := 1; len(active) > 0; round++ {
		if round > cfg.MaxRounds {
			return rt.result(), fmt.Errorf("%w: %d", ErrRoundLimit, cfg.MaxRounds)
		}
		inboxes := rt.startRound(round)
		activeCount := len(active)
		if cfg.NodeDown != nil {
			// Consult the hook on the coordinator in ascending id
			// order — the same schedule as the other drivers — before
			// any worker starts.
			activeCount = 0
			for _, v := range active {
				status[v] = cfg.NodeDown(round, v)
				if status[v] == NodeUp {
					activeCount++
				}
			}
		}
		w.round, w.inboxes = round, inboxes
		clear(w.panics)
		var wg sync.WaitGroup
		chunk := (len(active) + workers - 1) / workers
		for k := 0; k < workers; k++ {
			lo := k * chunk
			hi := lo + chunk
			if hi > len(active) {
				hi = len(active)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(ids []int, first *nodePanic) {
				defer wg.Done()
				w.stepAll(ids, first)
			}(active[lo:hi], &w.panics[k])
		}
		wg.Wait()
		// Chunks are ascending, so the first chunk that recorded a panic
		// holds the smallest panicking id.
		panicked := nodePanic{v: -1}
		for _, p := range w.panics {
			if p.err != nil {
				panicked = p
				break
			}
		}
		if err := rt.routeRound(active, status, outs, panicked); err != nil {
			return rt.result(), err
		}
		// Compact active in place: keep reuses active's backing array
		// and never outruns the read cursor, so the order stays
		// ascending and no per-round allocation happens.
		keep := active[:0]
		for _, v := range active {
			if status != nil {
				switch status[v] {
				case NodeDowned:
					keep = append(keep, v) // skipped this round, state kept
					continue
				case NodeCrashed:
					continue // dropped from the run without a final Round
				}
			}
			outs[v] = nil
			if !fins[v] {
				keep = append(keep, v)
			}
		}
		active = keep
		rt.endRound(round, activeCount)
	}
	return rt.result(), nil
}

// workerRound is what a worker goroutine reads to step its chunk of a
// round. Workers write outs and fins only at their own chunk's ids, and
// panics only at their own chunk's index, so no two goroutines touch
// the same element.
type workerRound struct {
	nodes   []Node
	ctxs    []Context
	status  []NodeStatus // NodeDown verdicts for this round; nil without the hook
	round   int
	inboxes [][]Message
	outs    [][]Outgoing
	fins    []bool
	panics  []nodePanic // per worker chunk, reused every round
}

// nodePanic is the first node panic of one worker chunk in a round:
// the node's id and its error, or a nil err when no node panicked.
// Only the smallest panicking id of a round is reported, so the later
// panics of a chunk need no record.
type nodePanic struct {
	v   int
	err error
}

// stepAll steps every up node of ids and keeps the chunk's first panic
// in first. A panic ends only the pass it hit: stepAll starts a new
// pass at the next id, so every node of the chunk steps, as it would
// if each step had a recover of its own.
func (w *workerRound) stepAll(ids []int, first *nodePanic) {
	for len(ids) > 0 {
		i, err := w.stepChunk(ids)
		if err != nil {
			if first.err == nil {
				*first = nodePanic{v: ids[i], err: err}
			}
			i++
		}
		ids = ids[i:]
	}
}

// stepChunk steps the up nodes of ids in order under one deferred
// recover. It returns len(ids), or the index of the node that panicked
// together with its error.
func (w *workerRound) stepChunk(ids []int) (i int, err error) {
	s := nodeStep{round: w.round, v: -1}
	defer s.catch(&err)
	for ; i < len(ids); i++ {
		v := ids[i]
		if w.status != nil && w.status[v] != NodeUp {
			continue
		}
		s.v = v
		w.outs[v], w.fins[v] = w.nodes[v].Round(&w.ctxs[v], w.round, w.inboxes[v])
		s.v = -1
	}
	return i, nil
}
