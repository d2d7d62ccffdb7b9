// Package hypergraph provides rank-bounded hypergraphs and their line
// graphs. The line graph of a rank-r hypergraph has neighborhood
// independence θ ≤ r, which makes these the canonical generator for
// the bounded-neighborhood-independence workloads of Section 4 of the
// paper: coloring the vertices of the line graph is coloring the
// hyperedges of the hypergraph.
package hypergraph

import (
	"fmt"
	"math/rand"
	"sort"

	"listcolor/internal/graph"
)

// Hypergraph is a hypergraph on vertices 0..n-1 whose hyperedges are
// vertex sets of size ≥ 2.
type Hypergraph struct {
	n     int
	edges [][]int // each sorted, no duplicate vertices
}

// New returns an empty hypergraph on n vertices.
func New(n int) *Hypergraph {
	if n < 0 {
		panic("hypergraph: negative vertex count")
	}
	return &Hypergraph{n: n}
}

// N returns the number of vertices.
func (h *Hypergraph) N() int { return h.n }

// M returns the number of hyperedges.
func (h *Hypergraph) M() int { return len(h.edges) }

// AddEdge inserts a hyperedge over the given vertices. The vertex set
// is copied, deduplicated and sorted. Hyperedges need at least two
// distinct vertices; duplicate hyperedges are allowed (they are
// distinct parallel hyperedges, and become distinct adjacent vertices
// of the line graph).
func (h *Hypergraph) AddEdge(vertices ...int) error {
	set := make(map[int]struct{}, len(vertices))
	for _, v := range vertices {
		if v < 0 || v >= h.n {
			return fmt.Errorf("hypergraph: vertex %d out of range [0,%d)", v, h.n)
		}
		set[v] = struct{}{}
	}
	if len(set) < 2 {
		return fmt.Errorf("hypergraph: hyperedge needs ≥ 2 distinct vertices, got %v", vertices)
	}
	edge := make([]int, 0, len(set))
	for v := range set {
		edge = append(edge, v)
	}
	sort.Ints(edge)
	h.edges = append(h.edges, edge)
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (h *Hypergraph) MustAddEdge(vertices ...int) {
	if err := h.AddEdge(vertices...); err != nil {
		panic(err)
	}
}

// Edge returns the sorted vertex set of hyperedge i (owned by the
// hypergraph; read-only for callers).
func (h *Hypergraph) Edge(i int) []int { return h.edges[i] }

// Rank returns the maximum hyperedge size (0 if there are no edges).
func (h *Hypergraph) Rank() int {
	r := 0
	for _, e := range h.edges {
		if len(e) > r {
			r = len(e)
		}
	}
	return r
}

// VertexDegree returns the number of hyperedges containing v.
func (h *Hypergraph) VertexDegree(v int) int {
	d := 0
	for _, e := range h.edges {
		i := sort.SearchInts(e, v)
		if i < len(e) && e[i] == v {
			d++
		}
	}
	return d
}

// LineGraph returns the line graph: one vertex per hyperedge, two
// adjacent iff the hyperedges intersect. The neighborhood independence
// of the result is at most Rank(): the hyperedges adjacent to e each
// contain one of e's ≤ r vertices, and hyperedges sharing a vertex are
// mutually adjacent, so e's neighborhood is covered by r cliques.
func (h *Hypergraph) LineGraph() *graph.Graph {
	return graph.IntersectionGraph(h.n, h.edges)
}

// RandomRegularRank returns a random hypergraph where every hyperedge
// has exactly rank vertices and every vertex is in roughly
// m·rank/n hyperedges.
func RandomRegularRank(n, m, rank int, rng *rand.Rand) *Hypergraph {
	if rank < 2 || rank > n {
		panic(fmt.Sprintf("hypergraph: RandomRegularRank rank %d infeasible for n=%d", rank, n))
	}
	h := New(n)
	perm := rng.Perm(n)
	cursor := 0
	for i := 0; i < m; i++ {
		verts := make(map[int]struct{}, rank)
		// Take the next vertices from a rotating permutation to balance
		// degrees, then fill with random ones on wrap-collisions.
		for len(verts) < rank {
			if cursor >= len(perm) {
				rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
				cursor = 0
			}
			verts[perm[cursor]] = struct{}{}
			cursor++
		}
		flat := make([]int, 0, rank)
		for v := range verts {
			flat = append(flat, v)
		}
		h.MustAddEdge(flat...)
	}
	return h
}

// FromGraph returns the rank-2 hypergraph whose hyperedges are the
// edges of g; its LineGraph is exactly graph.LineGraph(g).
func FromGraph(g *graph.Graph) *Hypergraph {
	h := New(g.N())
	for _, e := range g.Edges() {
		h.MustAddEdge(e[0], e[1])
	}
	return h
}
