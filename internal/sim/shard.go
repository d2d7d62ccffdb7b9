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
// range is a contiguous slot range — the per-shard inbox arena), and
// having every shard scan the full sender sequence in the same
// ascending order reproduces exactly the sequential fill of its own
// inboxes. No locks, no message buffers, no post-hoc sorting.
//
// The round is routed in two phases:
//
//  1. prepare (coordinator, sequential): validate every send
//     (bandwidth cap, neighbor check) and precompute its payload size
//     into reusable scratch. Any protocol violation or node error
//     aborts the sharded path entirely and the driver falls back to
//     the reference sequential loop, which reproduces the exact
//     partial statistics and error text of a sequential run.
//  2. deliver (parallel): each shard walks the prepared sends and
//     appends the deliveries whose receiver falls in its range;
//     broadcasts locate their in-range neighbor run by binary search
//     on the sorted CSR row. Per-shard message/bit counters are merged
//     in fixed shard order afterwards, so totals are deterministic.
//
// Rounds with DropMessage/CorruptMessage hooks never take this path
// (Config.Shards documents the contract); NodeDown is compatible —
// the hook runs on the coordinator before routing, like every driver.

import (
	"sort"
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

// bounds returns the receiver-range boundaries for s shards, balanced
// by arena slots (degree mass) rather than vertex count so a skewed
// degree distribution cannot pile all delivery work onto one shard.
// Computed once per run and cached; boundaries are a function of the
// topology and s only, never of round content, so every round (and
// every run) shards identically.
func (rt *router) bounds(s int) []int {
	if rt.shardBounds != nil {
		return rt.shardBounds
	}
	n := rt.topo.N()
	if s > n && n > 0 {
		s = n
	}
	if s < 1 {
		s = 1
	}
	b := make([]int, s+1)
	arcs := rt.topo.Arcs()
	v := 0
	for i := 1; i < s; i++ {
		target := arcs * int64(i) / int64(s)
		for v < n && rt.topo.RowStart(v) < target {
			v++
		}
		b[i] = v
	}
	b[s] = n
	rt.shardBounds = b
	return b
}

// prepare validates every send of the round and fills the reusable
// prep scratch (senders, per-send bit sizes, flat offsets). It
// mutates no router output state, so a false return leaves the
// sequential fallback a pristine router. senders must be ascending;
// status (when non-nil) marks the nodes whose sends must not be
// routed this round (downed/crashed under the NodeDown hook).
// panicked declines a round in which a node panicked.
func (rt *router) prepare(senders []int, status []NodeStatus, outs [][]Outgoing, panicked bool) bool {
	if panicked {
		return false
	}
	rt.prepSenders = rt.prepSenders[:0]
	rt.prepOff = rt.prepOff[:0]
	rt.prepBits = rt.prepBits[:0]
	rt.prepMax = 0
	for _, v := range senders {
		if status != nil && status[v] != NodeUp {
			continue
		}
		os := outs[v]
		if len(os) == 0 {
			continue
		}
		rt.prepSenders = append(rt.prepSenders, v)
		rt.prepOff = append(rt.prepOff, len(rt.prepBits))
		for i := range os {
			o := &os[i]
			bits := 0
			if o.Payload != nil {
				bits = o.Payload.SizeBits()
			}
			if rt.cfg.BandwidthBits > 0 && bits > rt.cfg.BandwidthBits {
				return false
			}
			if o.To != Broadcast && !rt.topo.HasEdge(v, o.To) {
				return false
			}
			rt.prepBits = append(rt.prepBits, bits)
			if bits > rt.prepMax {
				rt.prepMax = bits
			}
		}
	}
	rt.prepOff = append(rt.prepOff, len(rt.prepBits))
	return true
}

// deliverSharded routes the prepared sends across s receiver shards.
// prepare must have returned true for this round: every send is known
// valid, so delivery cannot fail.
func (rt *router) deliverSharded(outs [][]Outgoing, s int) {
	b := rt.bounds(s)
	s = len(b) - 1
	if cap(rt.shardMsgs) < s {
		rt.shardMsgs = make([]int, s)
		rt.shardBits = make([]int, s)
	}
	msgs, bits := rt.shardMsgs[:s], rt.shardBits[:s]
	var wg sync.WaitGroup
	for sh := 0; sh < s; sh++ {
		lo, hi := b[sh], b[sh+1]
		if lo == hi {
			msgs[sh], bits[sh] = 0, 0
			continue
		}
		wg.Add(1)
		go func(sh, lo, hi int) {
			defer wg.Done()
			m, bt := 0, 0
			for si, v := range rt.prepSenders {
				os := outs[v]
				bo := rt.prepOff[si]
				for i := range os {
					o := &os[i]
					sb := rt.prepBits[bo+i]
					if o.To == Broadcast {
						row := rt.topo.Row(v)
						j := sort.SearchInts(row, lo)
						for ; j < len(row) && row[j] < hi; j++ {
							t := row[j]
							rt.next[t] = append(rt.next[t], Message{From: v, Payload: o.Payload})
							m++
							bt += sb
						}
					} else if o.To >= lo && o.To < hi {
						rt.next[o.To] = append(rt.next[o.To], Message{From: v, Payload: o.Payload})
						m++
						bt += sb
					}
				}
			}
			msgs[sh], bits[sh] = m, bt
		}(sh, lo, hi)
	}
	wg.Wait()
	for sh := 0; sh < s; sh++ {
		rt.res.Messages += msgs[sh]
		rt.res.TotalBits += bits[sh]
	}
	if rt.prepMax > rt.res.MaxMessageBits {
		rt.res.MaxMessageBits = rt.prepMax
	}
	if rt.prepMax > rt.roundMax {
		rt.roundMax = rt.prepMax
	}
}
