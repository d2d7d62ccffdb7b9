package graph

import (
	"fmt"
	"math/rand"
)

// Digraph is an edge-oriented view of an undirected graph: every edge
// of the underlying graph is given exactly one direction. The oriented
// list defective coloring problems (Section 3 of the paper) take such
// an orientation as input; the arbdefective problems produce one as
// output. It is the CSR form (Oriented, whose Out, In, Outdeg, Beta,
// MaxBeta and HasArc it shares) together with the Graph it was built
// from, so solvers read a Digraph without converting it.
type Digraph struct {
	*Oriented
	g *Graph
}

// Underlying returns the undirected graph this orientation is over.
func (d *Digraph) Underlying() *Graph { return d.g }

// OrientByRank orients each edge {u,v} from the higher-ranked endpoint
// to the lower-ranked one: u → v iff rank[u] > rank[v]. Ranks must be
// distinct per adjacent pair (typically a permutation or unique IDs);
// equal ranks on an edge are an error because the edge would be left
// unoriented.
//
// This matches the paper's greedy convention of orienting edges toward
// earlier-processed (lower-rank) nodes, which bounds out-degrees by the
// number of already-processed neighbors.
func OrientByRank(g *Graph, rank []int) (*Digraph, error) {
	if len(rank) != g.n {
		return nil, fmt.Errorf("graph: rank length %d != n %d", len(rank), g.n)
	}
	g.Normalize()
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v && rank[u] == rank[v] {
				return nil, fmt.Errorf("graph: edge {%d,%d} has equal ranks %d", u, v, rank[u])
			}
		}
	}
	return &Digraph{Oriented: orientCSR(CSRFromGraph(g), func(u, v int) bool { return rank[u] > rank[v] }, nil), g: g}, nil
}

// OrientByID orients every edge toward the smaller vertex id. It is
// the canonical deterministic orientation used as a default in tests
// and examples; its out-neighbors are the prefix of each sorted row,
// so it shares the CSR's column array (OrientCSRByID).
func OrientByID(g *Graph) *Digraph {
	return &Digraph{Oriented: OrientCSRByID(CSRFromGraph(g), nil), g: g}
}

// OrientRandom orients every edge in a uniformly random direction
// drawn from rng.
func OrientRandom(g *Graph, rng *rand.Rand) *Digraph {
	c := CSRFromGraph(g)
	up := make([]bool, len(c.col))
	for u := 0; u < c.n; u++ {
		for i, v := range c.Row(u) {
			if u < v {
				up[c.rowPtr[u]+int64(i)] = rng.Intn(2) != 0
			}
		}
	}
	return orientUp(g, c, up)
}

// OrientByDegeneracy orients every edge along a degeneracy order so
// that the maximum out-degree equals the degeneracy of g — the
// smallest possible maximum out-degree over all acyclic orientations.
func OrientByDegeneracy(g *Graph) *Digraph {
	_, order := Degeneracy(g)
	// order[i] is the i-th vertex removed. When v is removed it has at
	// most k remaining neighbors, all removed after it: those are its
	// out-neighbors, so orient v → u iff v is removed before u.
	pos := make([]int, g.n)
	for i, v := range order {
		pos[v] = i
	}
	rank := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		rank[v] = g.n - pos[v] // earlier-removed ⇒ higher rank ⇒ arcs point outward from it
	}
	d, err := OrientByRank(g, rank)
	if err != nil {
		panic(err) // unreachable: positions are a permutation
	}
	return d
}

// OrientArbitraryFrom builds a Digraph over g from an explicit arc
// set: arcs[i] = (u, v) means u → v. Every edge of g must appear in
// exactly one direction.
func OrientArbitraryFrom(g *Graph, arcs [][2]int) (*Digraph, error) {
	c := CSRFromGraph(g)
	if len(arcs) != g.edges {
		return nil, fmt.Errorf("graph: %d arcs for %d edges", len(arcs), g.edges)
	}
	up, seen := make([]bool, len(c.col)), make([]bool, len(c.col))
	for _, a := range arcs {
		u, v := a[0], a[1]
		if !g.HasEdge(u, v) {
			return nil, fmt.Errorf("graph: arc (%d,%d) is not an edge", u, v)
		}
		at := c.arc(min(u, v), max(u, v))
		if seen[at] {
			return nil, fmt.Errorf("graph: edge {%d,%d} oriented twice", u, v)
		}
		seen[at], up[at] = true, u < v
	}
	return orientUp(g, c, up), nil
}

// orientUp orients c, the CSR form of g, by one flag per edge held at
// the arc of its smaller endpoint: up means the edge points from the
// smaller endpoint to the larger.
func orientUp(g *Graph, c *CSR, up []bool) *Digraph {
	return &Digraph{Oriented: orientCSR(c, func(u, v int) bool {
		if u < v {
			return up[c.arc(u, v)]
		}
		return !up[c.arc(v, u)]
	}, nil), g: g}
}

// Validate checks that the orientation covers every edge of the
// underlying graph exactly once. (In(v) is by construction the rest of
// v's row, so an arc's reverse is there iff it is not an arc too.)
func (d *Digraph) Validate() error {
	if err := d.g.Validate(); err != nil {
		return err
	}
	arcs := 0
	for u := 0; u < d.N(); u++ {
		arcs += d.Outdeg(u)
		for _, v := range d.Out(u) {
			if !d.g.HasEdge(u, v) {
				return fmt.Errorf("graph: arc (%d,%d) without underlying edge", u, v)
			}
			if d.HasArc(v, u) {
				return fmt.Errorf("graph: edge {%d,%d} oriented both ways", u, v)
			}
		}
	}
	if arcs != d.g.edges {
		return fmt.Errorf("graph: %d arcs for %d edges", arcs, d.g.edges)
	}
	return nil
}

// String returns a short human-readable summary.
func (d *Digraph) String() string {
	return fmt.Sprintf("Digraph(n=%d, m=%d, β=%d)", d.N(), d.g.edges, d.MaxBeta())
}
