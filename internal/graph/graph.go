// Package graph provides the graph substrate for the distributed
// coloring algorithms: simple undirected graphs, edge orientations
// (directed views used by the oriented list defective coloring
// problems), generators for the families the experiments run on, and
// structural properties (maximum degree, degeneracy, neighborhood
// independence).
//
// Vertices are integers 0..n-1. Graphs are simple: no self-loops, no
// parallel edges. Adjacency lists are kept sorted so that algorithms
// iterating over neighborhoods are deterministic.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// ErrVertexRange is returned when an operation references a vertex
// outside [0, n).
var ErrVertexRange = errors.New("graph: vertex out of range")

// ErrSelfLoop is returned when an edge {v, v} is added.
var ErrSelfLoop = errors.New("graph: self-loop")

// Graph is a simple undirected graph with vertices 0..n-1.
type Graph struct {
	n      int
	adj    [][]int
	edges  int
	sorted bool
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]int, n), sorted: true}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// AddEdge inserts the undirected edge {u, v}. Adding an edge that is
// already present is a silent no-op, so generators can be written
// without duplicate bookkeeping. Self-loops and out-of-range vertices
// are errors.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("%w: edge {%d,%d} in graph on %d vertices", ErrVertexRange, u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("%w: {%d,%d}", ErrSelfLoop, u, v)
	}
	if g.HasEdge(u, v) {
		return nil
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edges++
	g.sorted = false
	return nil
}

// MustAddEdge is AddEdge that panics on error; generators use it for
// edges they construct themselves.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the undirected edge {u, v} and reports whether it
// was present.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	remove := func(list []int, x int) []int {
		for i, w := range list {
			if w == x {
				return append(list[:i], list[i+1:]...)
			}
		}
		return list
	}
	g.adj[u] = remove(g.adj[u], v)
	g.adj[v] = remove(g.adj[v], u)
	g.edges--
	return true
}

// HasEdge reports whether the edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	// Search the shorter list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	if g.sorted {
		return contains(g.adj[a], b)
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// Normalize sorts all adjacency lists. Generators call it once after
// construction; AddEdge marks the graph dirty, and accessors that rely
// on sortedness call Normalize lazily.
func (g *Graph) Normalize() {
	if g.sorted {
		return
	}
	for v := range g.adj {
		sort.Ints(g.adj[v])
	}
	g.sorted = true
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted adjacency list of v. The returned slice
// is owned by the graph and must not be modified; callers that need a
// mutable copy should use CopyNeighbors.
func (g *Graph) Neighbors(v int) []int {
	g.Normalize()
	return g.adj[v]
}

// CopyNeighbors returns a fresh copy of v's sorted adjacency list.
func (g *Graph) CopyNeighbors(v int) []int {
	g.Normalize()
	out := make([]int, len(g.adj[v]))
	copy(out, g.adj[v])
	return out
}

// Edges returns all edges as pairs (u, v) with u < v, sorted
// lexicographically.
func (g *Graph) Edges() [][2]int {
	g.Normalize()
	out := make([][2]int, 0, g.edges)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// MaxDegree returns Δ(G) as defined in the paper: the maximum of 2 and
// the maximum vertex degree. (The paper's convention avoids degenerate
// log Δ terms.)
func (g *Graph) MaxDegree() int { return max(2, g.RawMaxDegree()) }

// RawMaxDegree returns the actual maximum vertex degree (0 for an
// empty graph), without the paper's max(2, ·) convention.
func (g *Graph) RawMaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// Relabel returns the isomorphic graph in which vertex v of g becomes
// perm[v]. perm must be a permutation of 0..n-1.
func Relabel(g *Graph, perm []int) *Graph {
	if len(perm) != g.N() {
		panic(fmt.Sprintf("graph: permutation length %d != n %d", len(perm), g.N()))
	}
	seen := make([]bool, g.N())
	for _, p := range perm {
		if p < 0 || p >= g.N() || seen[p] {
			panic("graph: Relabel argument is not a permutation")
		}
		seen[p] = true
	}
	out := New(g.N())
	for _, e := range g.Edges() {
		out.MustAddEdge(perm[e[0]], perm[e[1]])
	}
	out.Normalize()
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	out := New(g.n)
	out.edges = g.edges
	out.sorted = g.sorted
	for v := range g.adj {
		out.adj[v] = append([]int(nil), g.adj[v]...)
	}
	return out
}

// Fingerprint returns a 64-bit FNV-1a hash of the graph's structure
// (vertex count plus the CSR adjacency stream). Two graphs have equal
// fingerprints iff they are byte-identical as labeled graphs, which is
// what lets the workload cache's tests — and diagnostics over shared
// read-only builds — assert that a reused graph really is the same
// object-for-object structure a fresh generation would produce.
func (g *Graph) Fingerprint() uint64 {
	g.Normalize()
	return fingerprint(g.n, func(v int) []int { return g.adj[v] })
}

// fingerprint is the one structure hash behind Graph, CSR and TopoView
// Fingerprint: 64-bit FNV-1a over n, then every vertex's degree and
// sorted neighbors, each int mixed as 8 little-endian bytes. Equal
// labeled structure gives equal hashes in every representation.
func fingerprint(n int, row func(v int) []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x int) {
		u := uint64(x)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= prime64
			u >>= 8
		}
	}
	mix(n)
	for v := 0; v < n; v++ {
		r := row(v)
		mix(len(r))
		for _, w := range r {
			mix(w)
		}
	}
	return h
}

// Validate checks internal invariants (symmetry, simplicity) and
// returns an error describing the first violation. It is used by tests
// and by generators with nontrivial construction logic.
func (g *Graph) Validate() error {
	g.Normalize()
	count := 0
	for u := 0; u < g.n; u++ {
		prev := -1
		for _, v := range g.adj[u] {
			if v == u {
				return fmt.Errorf("%w at vertex %d", ErrSelfLoop, u)
			}
			if v < 0 || v >= g.n {
				return fmt.Errorf("%w: neighbor %d of %d", ErrVertexRange, v, u)
			}
			if v == prev {
				return fmt.Errorf("graph: parallel edge {%d,%d}", u, v)
			}
			prev = v
			if !g.HasEdge(v, u) {
				return fmt.Errorf("graph: asymmetric adjacency %d->%d", u, v)
			}
			if u < v {
				count++
			}
		}
	}
	if count != g.edges {
		return fmt.Errorf("graph: edge count %d does not match adjacency (%d)", g.edges, count)
	}
	return nil
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d, Δ=%d)", g.n, g.edges, g.RawMaxDegree())
}
