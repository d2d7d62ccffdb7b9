package sim

// Sharded round routing for the Workers driver: the delivery work of
// one round is split across Config.Shards contiguous receiver ranges
// and executed concurrently, while staying bit-identical to the
// sequential route.
//
// The key observation is that the sequential router's only ordering
// guarantee is per receiving inbox: messages arrive in ascending
// sender id, send order within a sender. Partitioning the RECEIVERS
// gives each shard exclusive ownership of a contiguous slice of the
// inbox arena (the arena mirrors the CSR row layout, so a receiver
// range is a contiguous slot range), and having every shard call the
// one per-sender route over the full sender sequence, in the same
// ascending order, restricted to its own range, reproduces exactly the
// sequential fill of its inboxes. Broadcasts locate their in-range
// neighbor run by binary search on the sorted CSR row. The shard
// holding a sender checks and bills its sends, so each send is checked
// and billed once; the tallies are merged in fixed shard order
// afterwards, so totals are deterministic. No locks, no message
// buffers, no post-hoc sorting.
//
// A protocol violation fails the sender's shard. The round is then
// routed again sequentially, which reproduces the exact partial
// statistics and error text of a sequential run. Rounds in which a node panicked, and rounds with a
// DropMessage or CorruptMessage hook, route sequentially from the
// start (Config.Shards documents the contract); NodeDown is
// compatible — the hook runs on the coordinator before routing, like
// every driver.

import (
	"fmt"
	"sync"
)

// routingShards returns the effective shard count for this config: 1
// (sequential) unless sharding is requested and no delivery hook is
// installed.
func (c Config) routingShards() int {
	if c.Shards <= 1 || c.DropMessage != nil || c.CorruptMessage != nil {
		return 1
	}
	return c.Shards
}

// shards returns the receiver ranges for s shards, balanced by arena
// slots (degree mass) rather than vertex count so a skewed degree
// distribution cannot pile all delivery work onto one shard. Computed
// once per run and cached; boundaries are a function of the topology
// and s only, never of round content, so every round (and every run)
// shards identically.
func (r *router) shards(s int) []part {
	if r.parts != nil {
		return r.parts
	}
	n := r.topo.N()
	if s > n && n > 0 {
		s = n
	}
	if s < 1 {
		s = 1
	}
	r.parts = make([]part, s)
	arcs := r.topo.Arcs()
	v := 0
	for i := 1; i < s; i++ {
		target := arcs * int64(i) / int64(s)
		for v < n && r.topo.RowStart(v) < target {
			v++
		}
		r.parts[i-1].hi, r.parts[i].lo = v, v
	}
	r.parts[s-1].hi = n
	return r.parts
}

// routeRound routes the Workers driver's round: the outboxes of the up
// nodes among senders (ascending ids; status, when non-nil, holds
// their NodeDown verdicts). It routes across the configured receiver
// ranges concurrently unless a delivery hook is installed, a node
// panicked, or a send breaks the protocol; otherwise it routes
// sequentially in id order and returns the smallest panicking id's
// error or the first violation, as the other drivers do.
func (r *router) routeRound(senders []int, status []NodeStatus, outs [][]Outgoing, panicked nodePanic) error {
	if s := r.cfg.routingShards(); s > 1 && panicked.err == nil && r.routeSharded(senders, status, outs, s) {
		return nil
	}
	for _, v := range senders {
		if status != nil && status[v] != NodeUp {
			continue
		}
		if v == panicked.v {
			return panicked.err
		}
		if err := r.route(v, outs[v], &r.all); err != nil {
			return fmt.Errorf("round %d, node %d: %w", r.round, v, err)
		}
	}
	return nil
}

// routeSharded routes the round across s receiver ranges, one
// goroutine each, and reports whether it did. When a send breaks the
// protocol it empties the inboxes again and returns false, leaving the
// round's tally untouched for the sequential route.
func (r *router) routeSharded(senders []int, status []NodeStatus, outs [][]Outgoing, s int) bool {
	parts := r.shards(s)
	var wg sync.WaitGroup
	for i := range parts {
		p := &parts[i]
		if p.lo == p.hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Tally into a local copy: adjacent parts share cache lines.
			q := part{lo: p.lo, hi: p.hi}
			for _, v := range senders {
				if status != nil && status[v] != NodeUp {
					continue
				}
				if r.route(v, outs[v], &q) != nil {
					q.failed = true
					break
				}
			}
			*p = q
		}()
	}
	wg.Wait()
	for i := range parts {
		if parts[i].failed {
			empty(r.next)
			return false
		}
	}
	for i := range parts {
		r.all.got = merge(r.all.got, parts[i].got, 0)
	}
	return true
}
