package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The builders the solve path used before CSR.Induce, Oriented.Induce
// and the split-offset orientations, kept as the references
// FuzzInduceCSR and the induce tests compare against: a map-indexed
// induce through MustAddEdge, the Graph edge filter, and orientations
// held as one sorted
// out-list and in-list per vertex — by rank (and so by id), by random
// draw, and from an arc list through a map of edge keys — with the
// Digraph induce that re-orients from the kept arcs.

// refDigraph is the per-vertex-list orientation the references build.
type refDigraph struct {
	g       *Graph
	out, in [][]int
}

func newRefDigraph(g *Graph) *refDigraph {
	return &refDigraph{g: g, out: make([][]int, g.n), in: make([][]int, g.n)}
}

func (d *refDigraph) sortLists() *refDigraph {
	for v := range d.out {
		sort.Ints(d.out[v])
		sort.Ints(d.in[v])
	}
	return d
}

func inducedSubgraphRef(g *Graph, keep []int) (sub *Graph, orig []int) {
	g.Normalize()
	index := make(map[int]int, len(keep))
	orig = make([]int, len(keep))
	for i, v := range keep {
		if v < 0 || v >= g.n {
			panic(fmt.Sprintf("graph: InducedSubgraph vertex %d out of range", v))
		}
		if _, dup := index[v]; dup {
			panic(fmt.Sprintf("graph: InducedSubgraph duplicate vertex %d", v))
		}
		index[v] = i
		orig[i] = v
	}
	sub = New(len(keep))
	for i, v := range keep {
		for _, w := range g.adj[v] {
			if j, ok := index[w]; ok && i < j {
				sub.MustAddEdge(i, j)
			}
		}
	}
	sub.Normalize()
	return sub, orig
}

func filterEdgesRef(g *Graph, keep func(u, v int) bool) *Graph {
	g.Normalize()
	out := New(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v && keep(u, v) {
				out.MustAddEdge(u, v)
			}
		}
	}
	out.Normalize()
	return out
}

func orientByIDRef(g *Graph) *refDigraph {
	g.Normalize()
	d := newRefDigraph(g)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v { // rank[v] > rank[u]
				d.out[v] = append(d.out[v], u)
				d.in[u] = append(d.in[u], v)
			}
		}
	}
	return d.sortLists()
}

func orientRandomRef(g *Graph, rng *rand.Rand) *refDigraph {
	g.Normalize()
	d := newRefDigraph(g)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				a, b := u, v
				if rng.Intn(2) == 0 {
					a, b = v, u
				}
				d.out[a] = append(d.out[a], b)
				d.in[b] = append(d.in[b], a)
			}
		}
	}
	return d.sortLists()
}

func orientArbitraryFromRef(g *Graph, arcs [][2]int) (*refDigraph, error) {
	g.Normalize()
	if len(arcs) != g.edges {
		return nil, fmt.Errorf("graph: %d arcs for %d edges", len(arcs), g.edges)
	}
	d := newRefDigraph(g)
	seen := make(map[[2]int]bool, len(arcs))
	for _, a := range arcs {
		u, v := a[0], a[1]
		if !g.HasEdge(u, v) {
			return nil, fmt.Errorf("graph: arc (%d,%d) is not an edge", u, v)
		}
		key := [2]int{u, v}
		if u > v {
			key = [2]int{v, u}
		}
		if seen[key] {
			return nil, fmt.Errorf("graph: edge {%d,%d} oriented twice", u, v)
		}
		seen[key] = true
		d.out[u] = append(d.out[u], v)
		d.in[v] = append(d.in[v], u)
	}
	return d.sortLists(), nil
}

func induceDigraphRef(d *refDigraph, keep []int) (*refDigraph, []int) {
	sub, orig := inducedSubgraphRef(d.g, keep)
	index := make(map[int]int, len(keep))
	for i, v := range orig {
		index[v] = i
	}
	var arcs [][2]int
	for i, v := range orig {
		for _, w := range d.out[v] {
			if j, ok := index[w]; ok {
				arcs = append(arcs, [2]int{i, j})
			}
		}
	}
	sd, err := orientArbitraryFromRef(sub, arcs)
	if err != nil {
		panic(err) // unreachable: arcs are exactly the induced edges
	}
	return sd, orig
}

// sameOrientation fails t unless o and the reference d have the same
// vertex count and the same rows, out-lists and in-lists.
func sameOrientation(t *testing.T, what string, o *Oriented, d *refDigraph) {
	t.Helper()
	if o.N() != d.g.N() || o.M() != int64(d.g.M()) {
		t.Fatalf("%s: n=%d m=%d, reference n=%d m=%d", what, o.N(), o.M(), d.g.N(), d.g.M())
	}
	for v := 0; v < d.g.N(); v++ {
		if !equalInts(o.Row(v), d.g.Neighbors(v)) || !equalInts(o.Out(v), d.out[v]) || !equalInts(o.In(v), d.in[v]) {
			t.Fatalf("%s: vertex %d row/out/in %v/%v/%v, reference %v/%v/%v",
				what, v, o.Row(v), o.Out(v), o.In(v), d.g.Neighbors(v), d.out[v], d.in[v])
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
