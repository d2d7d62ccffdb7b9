package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge(0,1): %v", err)
	}
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatalf("duplicate AddEdge should be a no-op, got %v", err)
	}
	if g.M() != 1 {
		t.Fatalf("M() = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge reports nonexistent edge")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self-loop error = %v, want ErrSelfLoop", err)
	}
	if err := g.AddEdge(0, 3); !errors.Is(err, ErrVertexRange) {
		t.Errorf("out-of-range error = %v, want ErrVertexRange", err)
	}
	if err := g.AddEdge(-1, 0); !errors.Is(err, ErrVertexRange) {
		t.Errorf("negative vertex error = %v, want ErrVertexRange", err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 4)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(0, 1)
	nb := g.Neighbors(0)
	want := []int{1, 2, 3, 4}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors(0) = %v, want %v", nb, want)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(0) = %v, want %v", nb, want)
		}
	}
}

func TestCopyNeighborsIndependence(t *testing.T) {
	g := Ring(5)
	cp := g.CopyNeighbors(0)
	cp[0] = 99
	if g.Neighbors(0)[0] == 99 {
		t.Error("CopyNeighbors aliases internal storage")
	}
}

func TestEdgesListing(t *testing.T) {
	g := New(4)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 3)
	edges := g.Edges()
	want := [][2]int{{0, 1}, {1, 3}, {2, 3}}
	if len(edges) != len(want) {
		t.Fatalf("Edges() = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges() = %v, want %v", edges, want)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	keep := []int{1, 3, 4}
	sub := CSRFromGraph(g).Induce(keep, new(Index), nil)
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K3: n=%d m=%d", sub.N(), sub.M())
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("induced subgraph invalid: %v", err)
	}
	ref, orig := inducedSubgraphRef(g, keep)
	if sub.Fingerprint() != ref.Fingerprint() || !equalInts(orig, keep) {
		t.Error("induced subgraph differs from the map-indexed reference")
	}
}

func TestInducedSubgraphEmpty(t *testing.T) {
	if sub := CSRFromGraph(Complete(4)).Induce(nil, new(Index), nil); sub.N() != 0 || sub.M() != 0 {
		t.Error("empty induced subgraph not empty")
	}
}

func TestFilterEdges(t *testing.T) {
	g := Complete(4)
	// Keep only edges incident to vertex 0; directions stay by id.
	for _, d := range []*Digraph{OrientByID(g), OrientByDegeneracy(g)} {
		f := d.Filter(func(u, v int) bool { return u == 0 || v == 0 })
		if f.M() != 3 {
			t.Fatalf("filtered M = %d, want 3", f.M())
		}
		if f.N() != 4 {
			t.Fatalf("filtered N = %d, want 4 (vertex set preserved)", f.N())
		}
		if err := f.Validate(); err != nil {
			t.Errorf("filtered graph invalid: %v", err)
		}
		for v := 1; v < 4; v++ {
			if f.HasArc(v, 0) != d.HasArc(v, 0) || f.HasArc(0, v) != d.HasArc(0, v) {
				t.Errorf("edge {0,%d} changed direction", v)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Ring(6)
	c := g.Clone()
	c.MustAddEdge(0, 3)
	if g.HasEdge(0, 3) {
		t.Error("Clone shares storage with original")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("original corrupted by clone mutation: %v", err)
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	// Corrupt: remove the back-pointer.
	g.adj[1] = nil
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted asymmetric adjacency")
	}
}

func TestMaxDegreeConvention(t *testing.T) {
	// The paper's Δ(G) is max(2, max degree).
	if d := Path(2).MaxDegree(); d != 2 {
		t.Errorf("MaxDegree(P2) = %d, want 2 (paper convention)", d)
	}
	if d := Path(2).RawMaxDegree(); d != 1 {
		t.Errorf("RawMaxDegree(P2) = %d, want 1", d)
	}
	if d := New(5).MaxDegree(); d != 2 {
		t.Errorf("MaxDegree(empty) = %d, want 2", d)
	}
	if d := Complete(7).MaxDegree(); d != 6 {
		t.Errorf("MaxDegree(K7) = %d, want 6", d)
	}
}

func TestRandomGraphsValidQuick(t *testing.T) {
	// Property: every generated random graph passes Validate and the
	// HasEdge/Edges views agree.
	f := func(seed int64, rawN uint8, rawP uint8) bool {
		n := int(rawN%40) + 2
		p := float64(rawP%100) / 100
		rng := rand.New(rand.NewSource(seed))
		g := GNP(n, p, rng)
		if g.Validate() != nil {
			return false
		}
		for _, e := range g.Edges() {
			if !g.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUnion(t *testing.T) {
	u := Union(Ring(3), Ring(4))
	if u.N() != 7 || u.M() != 7 {
		t.Fatalf("Union: n=%d m=%d, want 7,7", u.N(), u.M())
	}
	if u.HasEdge(2, 3) {
		t.Error("Union connected disjoint components")
	}
	if !u.HasEdge(3, 4) || !u.HasEdge(0, 1) {
		t.Error("Union lost edges")
	}
}

func TestStringSummaries(t *testing.T) {
	g := Ring(5)
	if got := g.String(); got != "Graph(n=5, m=5, Δ=2)" {
		t.Errorf("String() = %q", got)
	}
	d := OrientByID(g)
	if got := d.String(); got != "Digraph(n=5, m=5, β=2)" {
		t.Errorf("Digraph.String() = %q", got)
	}
}
