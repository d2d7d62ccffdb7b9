package graph

import "fmt"

// Degeneracy returns the degeneracy k of g together with a removal
// order witnessing it: repeatedly removing a minimum-degree vertex,
// each removed vertex has at most k neighbors still present. Runs in
// O(n + m) via bucket queues.
func Degeneracy(g *Graph) (k int, order []int) {
	g.Normalize()
	n := g.n
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = len(g.adj[v])
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]int, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	removed := make([]bool, n)
	order = make([]int, 0, n)
	cur := 0
	for len(order) < n {
		// Find the lowest non-empty bucket. Degrees only decrease by
		// one per removal, so cur never needs to back up by more than
		// one step at a time; we simply rescan from min(cur, updated).
		for cur > 0 && len(buckets[cur-1]) > 0 {
			cur--
		}
		for cur <= maxDeg && len(buckets[cur]) == 0 {
			cur++
		}
		b := buckets[cur]
		v := b[len(b)-1]
		buckets[cur] = b[:len(b)-1]
		if removed[v] || deg[v] != cur {
			continue // stale bucket entry
		}
		removed[v] = true
		order = append(order, v)
		if cur > k {
			k = cur
		}
		for _, u := range g.adj[v] {
			if !removed[u] {
				deg[u]--
				buckets[deg[u]] = append(buckets[deg[u]], u)
			}
		}
	}
	return k, order
}

// NeighborhoodIndependence returns θ(G): the maximum, over all
// vertices v, of the independence number of the subgraph induced by
// N(v). It is computed exactly by branch and bound within each
// neighborhood, which is exponential in Δ in the worst case; the
// experiments only call it on graphs with moderate Δ (≲ 24) or on line
// graphs where θ is structurally bounded. For an empty graph θ is 0.
func NeighborhoodIndependence(g *Graph) int {
	c, ix := CSRFromGraph(g), new(Index)
	theta := 0
	for v := 0; v < g.n; v++ {
		nb := g.adj[v]
		if len(nb) <= theta {
			continue // cannot beat current best
		}
		sub := c.Induce(nb, ix, nil).Graph()
		if is := IndependenceNumber(sub); is > theta {
			theta = is
		}
	}
	return theta
}

// IndependenceNumber returns the size of a maximum independent set of
// g, by branch and bound on the vertex of maximum degree. Exponential
// in the worst case; intended for the small neighborhood subgraphs of
// NeighborhoodIndependence.
func IndependenceNumber(g *Graph) int {
	g.Normalize()
	alive := make([]bool, g.n)
	for i := range alive {
		alive[i] = true
	}
	return misBranch(g, alive)
}

func misBranch(g *Graph, alive []bool) int {
	// Find an alive vertex of maximum alive-degree; vertices with
	// alive-degree ≤ 1 can be taken greedily.
	best, bestDeg := -1, -1
	for v := 0; v < g.n; v++ {
		if !alive[v] {
			continue
		}
		d := 0
		for _, u := range g.adj[v] {
			if alive[u] {
				d++
			}
		}
		if d <= 1 {
			// Take v: remove v and its (at most one) alive neighbor.
			alive[v] = false
			removedNeighbor := -1
			for _, u := range g.adj[v] {
				if alive[u] {
					alive[u] = false
					removedNeighbor = u
					break
				}
			}
			r := 1 + misBranch(g, alive)
			alive[v] = true
			if removedNeighbor >= 0 {
				alive[removedNeighbor] = true
			}
			return r
		}
		if d > bestDeg {
			best, bestDeg = v, d
		}
	}
	if best < 0 {
		return 0 // no alive vertices
	}
	// Branch 1: exclude best.
	alive[best] = false
	r1 := misBranch(g, alive)
	// Branch 2: include best, excluding its alive neighbors.
	var excluded []int
	for _, u := range g.adj[best] {
		if alive[u] {
			alive[u] = false
			excluded = append(excluded, u)
		}
	}
	r2 := 1 + misBranch(g, alive)
	for _, u := range excluded {
		alive[u] = true
	}
	alive[best] = true
	if r1 > r2 {
		return r1
	}
	return r2
}

// GreedyThetaUpperBound returns an upper bound on θ(G) via greedy
// clique covers of each neighborhood. Cheap (polynomial) and used by
// the benchmark harness on graphs too large for the exact computation.
func GreedyThetaUpperBound(g *Graph) int {
	c, ix := CSRFromGraph(g), new(Index)
	bound := 0
	for v := 0; v < g.n; v++ {
		nb := g.adj[v]
		if len(nb) <= bound {
			continue
		}
		sub := c.Induce(nb, ix, nil).Graph()
		// Greedily peel cliques: the number of cliques needed to cover
		// the neighborhood upper-bounds its independence number.
		covered := make([]bool, sub.n)
		cliques := 0
		for remaining := sub.n; remaining > 0; {
			cliques++
			var clique []int
			for u := 0; u < sub.n; u++ {
				if covered[u] {
					continue
				}
				ok := true
				for _, c := range clique {
					if !sub.HasEdge(u, c) {
						ok = false
						break
					}
				}
				if ok {
					clique = append(clique, u)
				}
			}
			for _, c := range clique {
				covered[c] = true
			}
			remaining -= len(clique)
		}
		if cliques > bound {
			bound = cliques
		}
	}
	return bound
}

// IsProperColoring reports whether colors is a proper vertex coloring
// of g, i.e. no edge is monochromatic, together with the first
// violating edge if not. colors must have length n.
func IsProperColoring(g interface {
	N() int
	Neighbors(v int) []int
}, colors []int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("graph: coloring length %d != n %d", len(colors), g.N())
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v && colors[u] == colors[v] {
				return fmt.Errorf("graph: monochromatic edge {%d,%d} (color %d)", u, v, colors[u])
			}
		}
	}
	return nil
}

// CountColors returns the number of distinct values in colors.
func CountColors(colors []int) int {
	seen := make(map[int]struct{}, len(colors))
	for _, c := range colors {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// MaxColor returns the maximum value in colors, or -1 for an empty
// slice. Algorithms that promise a coloring with colors in [0, C) are
// tested via MaxColor < C.
func MaxColor(colors []int) int {
	maxc := -1
	for _, c := range colors {
		if c > maxc {
			maxc = c
		}
	}
	return maxc
}

// MonochromaticDegree returns, for each vertex, the number of
// neighbors sharing its color — the defect vector of the coloring.
func MonochromaticDegree(g *Graph, colors []int) []int {
	g.Normalize()
	out := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if colors[u] == colors[v] {
				out[u]++
			}
		}
	}
	return out
}

// MonochromaticOutDegree returns, for each vertex, the number of
// out-neighbors (under d) sharing its color.
func MonochromaticOutDegree(d *Digraph, colors []int) []int {
	out := make([]int, d.N())
	for u := 0; u < d.N(); u++ {
		for _, v := range d.Out(u) {
			if colors[u] == colors[v] {
				out[u]++
			}
		}
	}
	return out
}
