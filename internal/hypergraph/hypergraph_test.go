package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"listcolor/internal/graph"
)

// random returns a hypergraph on n vertices with m hyperedges, each
// over a uniformly random vertex set of size between 2 and rank ≤ n:
// mixed ranks, unlike RandomRegularRank, for the line-graph checks.
func random(n, m, rank int, rng *rand.Rand) *Hypergraph {
	h := New(n)
	for i := 0; i < m; i++ {
		size := 2 + rng.Intn(rank-1)
		verts := make(map[int]struct{}, size)
		for len(verts) < size {
			verts[rng.Intn(n)] = struct{}{}
		}
		flat := make([]int, 0, size)
		for v := range verts {
			flat = append(flat, v)
		}
		h.MustAddEdge(flat...)
	}
	return h
}

func TestAddEdgeValidation(t *testing.T) {
	h := New(5)
	if err := h.AddEdge(0, 1, 2); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := h.AddEdge(0, 0); err == nil {
		t.Error("accepted hyperedge with < 2 distinct vertices")
	}
	if err := h.AddEdge(0, 7); err == nil {
		t.Error("accepted out-of-range vertex")
	}
	if h.M() != 1 {
		t.Errorf("M() = %d, want 1", h.M())
	}
}

func TestEdgeDeduplicatesAndSorts(t *testing.T) {
	h := New(5)
	h.MustAddEdge(3, 1, 3, 2)
	e := h.Edge(0)
	want := []int{1, 2, 3}
	if len(e) != 3 {
		t.Fatalf("Edge(0) = %v, want %v", e, want)
	}
	for i := range want {
		if e[i] != want[i] {
			t.Fatalf("Edge(0) = %v, want %v", e, want)
		}
	}
}

func TestRankAndDegree(t *testing.T) {
	h := New(6)
	h.MustAddEdge(0, 1)
	h.MustAddEdge(1, 2, 3)
	h.MustAddEdge(0, 2, 4, 5)
	if h.Rank() != 4 {
		t.Errorf("Rank = %d, want 4", h.Rank())
	}
	if h.VertexDegree(0) != 2 || h.VertexDegree(1) != 2 || h.VertexDegree(5) != 1 {
		t.Error("VertexDegree wrong")
	}
	if New(3).Rank() != 0 {
		t.Error("empty hypergraph rank should be 0")
	}
}

func TestLineGraphMatchesGraphLineGraph(t *testing.T) {
	// For rank-2 hypergraphs, LineGraph must coincide with the plain
	// graph line graph.
	g := graph.Grid(3, 3)
	h := FromGraph(g)
	hl := h.LineGraph()
	gl, _ := graph.LineGraph(g)
	if hl.N() != gl.N() || hl.M() != gl.M() {
		t.Fatalf("line graphs differ: (%d,%d) vs (%d,%d)", hl.N(), hl.M(), gl.N(), gl.M())
	}
	for _, e := range gl.Edges() {
		if !hl.HasEdge(e[0], e[1]) {
			t.Fatalf("hypergraph line graph missing edge %v", e)
		}
	}
}

func TestLineGraphThetaBoundedByRank(t *testing.T) {
	// θ(L(H)) ≤ rank(H) — the structural property Section 4 uses.
	f := func(seed int64, rawN, rawM, rawR uint8) bool {
		n := int(rawN%12) + 6
		m := int(rawM%15) + 3
		r := int(rawR%3) + 2
		if r > n {
			r = n
		}
		rng := rand.New(rand.NewSource(seed))
		h := random(n, m, r, rng)
		lg := h.LineGraph()
		if lg.Validate() != nil {
			return false
		}
		return graph.NeighborhoodIndependence(lg) <= h.Rank()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLineGraphAdjacencyMeansIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := random(12, 20, 4, rng)
	lg := h.LineGraph()
	intersects := func(a, b []int) bool {
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] == b[j]:
				return true
			case a[i] < b[j]:
				i++
			default:
				j++
			}
		}
		return false
	}
	for u := 0; u < lg.N(); u++ {
		for v := 0; v < lg.N(); v++ {
			if u == v {
				continue
			}
			want := intersects(h.Edge(u), h.Edge(v))
			if lg.HasEdge(u, v) != want {
				t.Fatalf("line graph adjacency (%d,%d)=%v, intersection=%v", u, v, lg.HasEdge(u, v), want)
			}
		}
	}
}

func TestParallelHyperedgesAreAdjacent(t *testing.T) {
	h := New(4)
	h.MustAddEdge(0, 1)
	h.MustAddEdge(0, 1) // parallel hyperedge
	lg := h.LineGraph()
	if !lg.HasEdge(0, 1) {
		t.Error("parallel hyperedges should be adjacent in the line graph")
	}
}

func TestRandomRegularRankShape(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := RandomRegularRank(20, 30, 3, rng)
	if h.M() != 30 {
		t.Fatalf("M = %d, want 30", h.M())
	}
	for i := 0; i < h.M(); i++ {
		if len(h.Edge(i)) != 3 {
			t.Errorf("hyperedge %d has size %d, want 3", i, len(h.Edge(i)))
		}
	}
	// Degrees should be balanced: 30·3/20 = 4.5 average; allow [1, 9].
	for v := 0; v < 20; v++ {
		d := h.VertexDegree(v)
		if d < 1 || d > 9 {
			t.Errorf("vertex %d degree %d outside balanced range", v, d)
		}
	}
}
