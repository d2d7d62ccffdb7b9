package graph

// Streaming generators for the web-scale simulation path: each returns
// a replayable EdgeStream (or the CSR built from one) that emits edges
// directly into StreamCSR's preallocated arrays, so a 10⁷-node
// instance never materializes adjacency maps, per-node slices, or an
// intermediate edge list. Replayability comes from reseeding the RNG
// inside the stream function: both of StreamCSR's passes observe the
// identical edge sequence.

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
)

// RingStream returns the edge stream of the n-cycle (n ≥ 3).
func RingStream(n int) EdgeStream {
	if n < 3 {
		panic("graph: RingStream needs n ≥ 3")
	}
	return func(emit func(u, v int)) {
		for v := 0; v < n; v++ {
			emit(v, (v+1)%n)
		}
	}
}

// StreamedRing builds the n-cycle directly in CSR form.
func StreamedRing(n int) *CSR {
	c, err := StreamCSR(n, RingStream(n))
	if err != nil {
		panic(err) // unreachable: the ring stream is simple and replayable
	}
	return c
}

// GNPStream returns the edge stream of an Erdős–Rényi G(n, p) graph
// drawn deterministically from seed. It uses geometric skip sampling —
// O(m) work and O(1) state instead of the O(n²) coin flips of the
// map-built GNP — and emits edges (u, v), u < v, in lexicographic
// order, so the streamed rows arrive already sorted.
func GNPStream(n int, p float64, seed int64) EdgeStream {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: GNPStream probability %v out of [0,1]", p))
	}
	return func(emit func(u, v int)) {
		if p == 0 || n < 2 {
			return
		}
		if p == 1 {
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					emit(u, v)
				}
			}
			return
		}
		rng := rand.New(rand.NewSource(seed))
		logq := math.Log1p(-p)
		// Walk the strictly-upper-triangular pair space in skips of
		// geometrically distributed length: each skip lands on the next
		// present edge.
		u, v := 0, 0 // v ≤ u means "row exhausted, advance"
		for {
			r := rng.Float64()
			skip := 1
			if r > 0 { // log(0) would skip to infinity, i.e. no more edges
				skip = 1 + int(math.Floor(math.Log(r)/logq))
				if skip < 1 { // guard rounding at p → 1
					skip = 1
				}
			} else {
				return
			}
			v += skip
			for v >= n {
				u++
				if u >= n-1 {
					return
				}
				v = u + 1 + (v - n)
			}
			emit(u, v)
		}
	}
}

// StreamedGNP builds G(n, p) directly in CSR form from seed.
func StreamedGNP(n int, p float64, seed int64) *CSR {
	c, err := StreamCSR(n, GNPStream(n, p, seed))
	if err != nil {
		panic(err) // unreachable: skip sampling emits each pair at most once
	}
	return c
}

// powerLawScratch is the reusable working memory of one
// PowerLawStream replay: the degree-weighted sampling pool (4 bytes
// per attachment endpoint, int32 entries) and the per-arrival chosen
// set. The pool is by far the dominant build allocation (≈ 8·k·n bytes
// per replay, and StreamCSR replays twice), so replays reuse it
// through powerLawCache: a single slot that keeps at most one scratch,
// the one the last finished replay gave back, reachable until the next
// replay takes it. A replay takes the slot
// with Swap(nil), allocating a fresh scratch when it is empty (the
// first replay, or one overlapping another), and gives its scratch
// back with CompareAndSwap(nil, sc), so concurrent replays never share
// one. Unlike a sync.Pool, the slot is never emptied by a GC or by the
// race detector; TestPowerLawStreamScratchReuse guards the allocation
// bound.
type powerLawScratch struct {
	targets []int32
	chosen  []int32
}

var powerLawCache atomic.Pointer[powerLawScratch]

// PowerLawStream returns the edge stream of a preferential-attachment
// (Barabási–Albert style) graph on n vertices drawn deterministically
// from seed: after a seed clique on k+1 vertices, each arriving vertex
// attaches to k distinct existing vertices chosen proportionally to
// degree with 5% uniform smoothing — the same skewed-degree family as
// PowerLaw, in streaming form. Each replay rebuilds its state from a
// cached scratch (reset, never reread), so replays stay independent
// while steady-state builds stop reallocating the sampling pool; n
// must stay below 2³¹ (int32 pool entries).
//
// The stream is sequential by construction: every arrival samples the
// global degree-weighted pool, so no prefix is independent of the
// rest. Build it with StreamCSR, like every other stream.
func PowerLawStream(n, k int, seed int64) EdgeStream {
	if k < 1 || n < k+1 {
		panic(fmt.Sprintf("graph: PowerLawStream(%d,%d) infeasible", n, k))
	}
	if int64(n) > int64(math.MaxInt32) {
		panic("graph: PowerLawStream needs n < 2³¹ (int32 sampling pool)")
	}
	return func(emit func(u, v int)) {
		rng := rand.New(rand.NewSource(seed))
		sc := powerLawCache.Swap(nil)
		if sc == nil {
			sc = new(powerLawScratch)
		}
		defer powerLawCache.CompareAndSwap(nil, sc)
		if need := 2*(n-k-1)*k + k*(k+1); cap(sc.targets) < need {
			sc.targets = make([]int32, 0, need)
		}
		if cap(sc.chosen) < k {
			sc.chosen = make([]int32, 0, k)
		}
		targets := sc.targets[:0]
		for u := 0; u <= k; u++ {
			for v := u + 1; v <= k; v++ {
				emit(u, v)
				targets = append(targets, int32(u), int32(v))
			}
		}
		chosen := sc.chosen[:0]
		for v := k + 1; v < n; v++ {
			chosen = chosen[:0]
			for len(chosen) < k {
				// Both draw branches produce a bare candidate; acceptance
				// is decided by attachAccept alone, so the self/dup
				// rejection covers each branch by construction rather than
				// by the incidental ranges of the draws (the uniform draw
				// is bounded by v and the pool only holds vertices that
				// arrived before v, but neither branch is trusted for it).
				var t int32
				if len(targets) == 0 || rng.Float64() < 0.05 {
					t = int32(rng.Intn(v)) // smoothing: occasionally uniform
				} else {
					t = targets[rng.Intn(len(targets))]
				}
				if attachAccept(chosen, t, int32(v)) {
					chosen = append(chosen, t)
				}
			}
			for _, t := range chosen {
				emit(v, int(t))
				targets = append(targets, int32(v), t)
			}
		}
	}
}

// attachAccept is PowerLawStream's rejection predicate: candidate t
// may join arriving vertex v's attachment set iff it is not v itself
// (no self-loops) and not already chosen in this arrival (no duplicate
// attachment edges). Every draw branch must pass through it — the
// predicate deliberately assumes nothing about where t came from.
func attachAccept(chosen []int32, t, v int32) bool {
	if t == v {
		return false
	}
	for _, c := range chosen {
		if c == t {
			return false
		}
	}
	return true
}

// StreamedPowerLaw builds the preferential-attachment graph directly
// in CSR form from seed.
func StreamedPowerLaw(n, k int, seed int64) *CSR {
	c, err := StreamCSR(n, PowerLawStream(n, k, seed))
	if err != nil {
		panic(err) // unreachable: per-vertex targets are distinct by construction
	}
	return c
}
