package graph

import (
	"fmt"
	"math/rand"
)

// Ring returns the n-cycle (n ≥ 3). Rings are the classical hard
// instance for the Ω(log* n) lower bound and appear throughout the
// experiments.
func Ring(n int) *Graph {
	if n < 3 {
		panic("graph: Ring needs n ≥ 3")
	}
	g := New(n)
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+1)%n)
	}
	g.Normalize()
	return g
}

// Path returns the path on n vertices (n ≥ 1).
func Path(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1)
	}
	g.Normalize()
	return g
}

// Complete returns K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	g.Normalize()
	return g
}

// CompleteBipartite returns K_{a,b}: vertices 0..a-1 on one side,
// a..a+b-1 on the other.
func CompleteBipartite(a, b int) *Graph {
	g := New(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			g.MustAddEdge(u, v)
		}
	}
	g.Normalize()
	return g
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	g.Normalize()
	return g
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices.
func Hypercube(d int) *Graph {
	if d < 0 || d > 24 {
		panic("graph: Hypercube dimension out of range")
	}
	n := 1 << uint(d)
	g := New(n)
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			u := v ^ (1 << uint(b))
			if v < u {
				g.MustAddEdge(v, u)
			}
		}
	}
	g.Normalize()
	return g
}

// CompleteKaryTree returns a complete k-ary tree with the given number
// of levels (levels ≥ 1; one level is a single root).
func CompleteKaryTree(k, levels int) *Graph {
	if k < 1 || levels < 1 {
		panic("graph: CompleteKaryTree needs k ≥ 1 and levels ≥ 1")
	}
	n := 0
	width := 1
	for l := 0; l < levels; l++ {
		n += width
		width *= k
	}
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v, (v-1)/k)
	}
	g.Normalize()
	return g
}

// GNP returns an Erdős–Rényi random graph G(n, p) drawn from rng.
func GNP(n int, p float64, rng *rand.Rand) *Graph {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: GNP probability %v out of [0,1]", p))
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	g.Normalize()
	return g
}

// RandomRegular returns a random d-regular graph on n vertices. n·d
// must be even and 0 ≤ d < n. The graph is built deterministically as
// a circulant and then randomized by degree-preserving double-edge
// swaps, which always succeeds (unlike rejection sampling on the
// configuration model, which stalls for dense small graphs).
func RandomRegular(n, d int, rng *rand.Rand) *Graph {
	if d < 0 || d >= n || (n*d)%2 != 0 {
		panic(fmt.Sprintf("graph: RandomRegular(%d,%d) infeasible", n, d))
	}
	if d == 0 {
		return New(n)
	}
	// Randomize: attempt ~20 swaps per edge. The chain keeps the edge
	// list and a hashed set of its edges, so a swap costs O(1), and
	// the sorted adjacency is built once at the end.
	edges := circulant(n, d).Edges()
	set := newEdgeSet(n, len(edges))
	for _, e := range edges {
		set.add(e[0], e[1])
	}
	canon := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	for attempt := 0; attempt < 20*len(edges); attempt++ {
		i1 := rng.Intn(len(edges))
		i2 := rng.Intn(len(edges))
		a, b := edges[i1][0], edges[i1][1]
		c, dd := edges[i2][0], edges[i2][1]
		if rng.Intn(2) == 0 {
			c, dd = dd, c
		}
		// Swap {a,b},{c,dd} → {a,c},{b,dd} when it keeps the graph simple.
		if a == c || a == dd || b == c || b == dd {
			continue
		}
		if set.has(a, c) || set.has(b, dd) {
			continue
		}
		set.remove(a, b)
		set.remove(c, dd)
		set.add(a, c)
		set.add(b, dd)
		edges[i1] = canon(a, c)
		edges[i2] = canon(b, dd)
	}
	g := New(n)
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1])
	}
	g.Normalize()
	return g
}

// edgeSet is an open-addressing set of undirected edges with linear
// probing. A slot holds 1 + the canonical key u·n+v (u < v), or 0 when
// empty. The table is kept at most a quarter full: at half full, the
// longer probe runs made the swap chain no faster than probing the
// adjacency lists at d = 4.
type edgeSet struct {
	n     uint64
	shift uint // 64 − log2(len(slots)), for the multiplicative hash
	slots []uint64
}

func newEdgeSet(n, m int) *edgeSet {
	bits := uint(1)
	for 1<<bits < 4*m {
		bits++
	}
	return &edgeSet{n: uint64(n), shift: 64 - bits, slots: make([]uint64, 1<<bits)}
}

func (s *edgeSet) key(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)*s.n + uint64(v) + 1
}

func (s *edgeSet) home(k uint64) int { return int((k * 0x9E3779B97F4A7C15) >> s.shift) }

// find returns the slot holding k, or the empty slot that ends its
// probe run.
func (s *edgeSet) find(k uint64) int {
	mask := len(s.slots) - 1
	i := s.home(k)
	for s.slots[i] != 0 && s.slots[i] != k {
		i = (i + 1) & mask
	}
	return i
}

func (s *edgeSet) has(u, v int) bool { return s.slots[s.find(s.key(u, v))] != 0 }

func (s *edgeSet) add(u, v int) {
	k := s.key(u, v)
	s.slots[s.find(k)] = k
}

// remove deletes the edge {u, v}, which must be present, and shifts
// later keys of its probe run back into the hole, so no lookup stops
// early at it (deletion without tombstones).
func (s *edgeSet) remove(u, v int) {
	mask := len(s.slots) - 1
	i := s.find(s.key(u, v))
	s.slots[i] = 0
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		// The key at j may fill the hole at i when i lies on its probe
		// path, from its home slot to j.
		if (j-s.home(s.slots[j]))&mask >= (j-i)&mask {
			s.slots[i], s.slots[j] = s.slots[j], 0
			i = j
		}
	}
}

// circulant returns the canonical d-regular circulant on n vertices:
// v is adjacent to v±k for k = 1..⌊d/2⌋, plus the antipodal vertex
// v + n/2 when d is odd (n is even in that case since n·d is even).
func circulant(n, d int) *Graph {
	g := New(n)
	for v := 0; v < n; v++ {
		for k := 1; k <= d/2; k++ {
			g.MustAddEdge(v, (v+k)%n)
		}
		if d%2 == 1 {
			g.MustAddEdge(v, (v+n/2)%n)
		}
	}
	return g
}

// PowerLaw returns a preferential-attachment graph (Barabási–Albert
// style): vertices arrive one at a time and attach to k existing
// vertices chosen proportionally to degree (+1 smoothing). Produces
// the skewed degree distributions used to stress per-node slack
// conditions.
func PowerLaw(n, k int, rng *rand.Rand) *Graph {
	if k < 1 || n < k+1 {
		panic(fmt.Sprintf("graph: PowerLaw(%d,%d) infeasible", n, k))
	}
	g := New(n)
	// Seed clique on k+1 vertices.
	targets := make([]int, 0, 2*n*k) // degree-weighted sampling pool
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			g.MustAddEdge(u, v)
			targets = append(targets, u, v)
		}
	}
	for v := k + 1; v < n; v++ {
		chosen := make(map[int]bool, k)
		var order []int // insertion order, so edge insertion (and hence
		// future degree-weighted sampling) is deterministic — iterating
		// the map directly would randomize it per run.
		for len(chosen) < k {
			var t int
			if len(targets) == 0 || rng.Float64() < 0.05 {
				t = rng.Intn(v) // smoothing: occasionally uniform
			} else {
				t = targets[rng.Intn(len(targets))]
			}
			if t != v && !chosen[t] {
				chosen[t] = true
				order = append(order, t)
			}
		}
		for _, t := range order {
			g.MustAddEdge(v, t)
			targets = append(targets, v, t)
		}
	}
	g.Normalize()
	return g
}

// LineGraph returns the line graph L(g): one vertex per edge of g, two
// line-graph vertices adjacent iff the underlying edges share an
// endpoint. Also returns edgeOf, mapping line-graph vertex i to its
// underlying edge (u, v) with u < v. The line graph of any graph has
// neighborhood independence θ ≤ 2, which makes these the canonical
// workload for the Section 4 algorithms: a proper vertex coloring of
// L(g) is an edge coloring of g.
func LineGraph(g *Graph) (lg *Graph, edgeOf [][2]int) {
	edgeOf = g.Edges()
	sets := make([][]int, len(edgeOf))
	for i := range edgeOf {
		sets[i] = edgeOf[i][:]
	}
	return IntersectionGraph(g.n, sets), edgeOf
}

// IntersectionGraph returns the graph with one vertex per set of
// vertices in [0, n), two adjacent iff their sets intersect: the line
// graph of the hypergraph whose hyperedges are sets (LineGraph for a
// graph's edges, hypergraph.LineGraph for rank r). Sets are bucketed
// by vertex, and the sets sharing a bucket are made pairwise adjacent.
func IntersectionGraph(n int, sets [][]int) *Graph {
	lg := New(len(sets))
	byVertex := make([][]int, n)
	for i, set := range sets {
		for _, v := range set {
			byVertex[v] = append(byVertex[v], i)
		}
	}
	for _, bucket := range byVertex {
		for i := 0; i < len(bucket); i++ {
			for j := i + 1; j < len(bucket); j++ {
				lg.MustAddEdge(bucket[i], bucket[j])
			}
		}
	}
	lg.Normalize()
	return lg
}

// Disjoint union: Union returns the disjoint union of the given
// graphs, with the vertices of graphs[i] offset by the total size of
// the earlier graphs.
func Union(graphs ...*Graph) *Graph {
	total := 0
	for _, g := range graphs {
		total += g.n
	}
	out := New(total)
	offset := 0
	for _, g := range graphs {
		for _, e := range g.Edges() {
			out.MustAddEdge(e[0]+offset, e[1]+offset)
		}
		offset += g.n
	}
	out.Normalize()
	return out
}
