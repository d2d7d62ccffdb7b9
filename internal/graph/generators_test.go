package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRing(t *testing.T) {
	g := Ring(5)
	if g.N() != 5 || g.M() != 5 {
		t.Fatalf("Ring(5): n=%d m=%d", g.N(), g.M())
	}
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("Ring degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPathAndComplete(t *testing.T) {
	p := Path(6)
	if p.M() != 5 {
		t.Errorf("Path(6) has %d edges, want 5", p.M())
	}
	k := Complete(6)
	if k.M() != 15 {
		t.Errorf("K6 has %d edges, want 15", k.M())
	}
	if k.RawMaxDegree() != 5 {
		t.Errorf("K6 max degree %d, want 5", k.RawMaxDegree())
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(2, 3)
	if g.N() != 5 || g.M() != 6 {
		t.Fatalf("K23: n=%d m=%d", g.N(), g.M())
	}
	if g.HasEdge(0, 1) || g.HasEdge(2, 3) {
		t.Error("intra-side edge present")
	}
	if err := IsProperColoring(g, []int{0, 0, 1, 1, 1}); err != nil {
		t.Errorf("bipartition should be proper: %v", err)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("Grid(3,4): n=%d", g.N())
	}
	// m = rows*(cols-1) + (rows-1)*cols = 3*3 + 2*4 = 17
	if g.M() != 17 {
		t.Fatalf("Grid(3,4): m=%d, want 17", g.M())
	}
	if g.RawMaxDegree() != 4 {
		t.Errorf("Grid max degree %d, want 4", g.RawMaxDegree())
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4: n=%d m=%d, want 16, 32", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Errorf("Q4 degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	// Hypercubes are bipartite: parity coloring is proper.
	colors := make([]int, g.N())
	for v := range colors {
		x := v
		par := 0
		for x > 0 {
			par ^= x & 1
			x >>= 1
		}
		colors[v] = par
	}
	if err := IsProperColoring(g, colors); err != nil {
		t.Errorf("parity coloring of hypercube not proper: %v", err)
	}
}

func TestCompleteKaryTree(t *testing.T) {
	g := CompleteKaryTree(2, 3) // 1 + 2 + 4 = 7 vertices
	if g.N() != 7 || g.M() != 6 {
		t.Fatalf("binary tree: n=%d m=%d", g.N(), g.M())
	}
	k, _ := Degeneracy(g)
	if k != 1 {
		t.Errorf("tree degeneracy = %d, want 1", k)
	}
}

func TestRandomRegularDegrees(t *testing.T) {
	f := func(seed int64, rawN, rawD uint8) bool {
		n := int(rawN%40) + 6
		d := int(rawD%5) + 1
		if (n*d)%2 != 0 {
			n++
		}
		rng := rand.New(rand.NewSource(seed))
		g := RandomRegular(n, d, rng)
		if g.Validate() != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomRegularRef is RandomRegular's swap chain run on the Graph
// itself, with a linear-scan HasEdge and RemoveEdge per probe: the
// reference the hashed chain must match graph for graph.
func randomRegularRef(n, d int, rng *rand.Rand) *Graph {
	g := circulant(n, d)
	edges := g.Edges()
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
		if a == c || a == dd || b == c || b == dd {
			continue
		}
		if g.HasEdge(a, c) || g.HasEdge(b, dd) {
			continue
		}
		g.RemoveEdge(a, b)
		g.RemoveEdge(c, dd)
		g.MustAddEdge(a, c)
		g.MustAddEdge(b, dd)
		edges[i1] = canon(a, c)
		edges[i2] = canon(b, dd)
	}
	g.Normalize()
	return g
}

// TestRandomRegularMatchesReference: the hashed swap chain draws the
// same random numbers and makes the same swaps as the reference, so
// every (n, d, seed) gives the same graph, odd d included.
func TestRandomRegularMatchesReference(t *testing.T) {
	for _, n := range []int{6, 7, 12, 41, 100, 500} {
		for _, d := range []int{1, 2, 3, 4, 5, 8, 15, 16} {
			if d >= n || (n*d)%2 != 0 {
				continue
			}
			for seed := int64(1); seed <= 3; seed++ {
				got := RandomRegular(n, d, rand.New(rand.NewSource(seed)))
				want := randomRegularRef(n, d, rand.New(rand.NewSource(seed)))
				if err := got.Validate(); err != nil {
					t.Fatalf("n=%d d=%d seed=%d: %v", n, d, seed, err)
				}
				if got.M() != want.M() || !reflect.DeepEqual(got.Edges(), want.Edges()) {
					t.Fatalf("n=%d d=%d seed=%d: edge list differs from the reference", n, d, seed)
				}
			}
		}
	}
}

func TestRandomRegularZero(t *testing.T) {
	g := RandomRegular(10, 0, rand.New(rand.NewSource(1)))
	if g.M() != 0 {
		t.Errorf("0-regular graph has %d edges", g.M())
	}
}

func TestPowerLawShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := PowerLaw(300, 3, rng)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Preferential attachment: every non-seed vertex has degree ≥ k,
	// and the max degree should be well above the minimum.
	minDeg := g.N()
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) < minDeg {
			minDeg = g.Degree(v)
		}
	}
	if minDeg < 3 {
		t.Errorf("PowerLaw min degree %d < k=3", minDeg)
	}
	if g.RawMaxDegree() < 3*3 {
		t.Errorf("PowerLaw max degree %d suspiciously small (no skew)", g.RawMaxDegree())
	}
}

func TestLineGraphStructure(t *testing.T) {
	// L(C_n) = C_n.
	lg, edgeOf := LineGraph(Ring(6))
	if lg.N() != 6 || lg.M() != 6 {
		t.Fatalf("L(C6): n=%d m=%d, want 6,6", lg.N(), lg.M())
	}
	for v := 0; v < lg.N(); v++ {
		if lg.Degree(v) != 2 {
			t.Errorf("L(C6) degree(%d) = %d", v, lg.Degree(v))
		}
	}
	if len(edgeOf) != 6 {
		t.Fatalf("edgeOf length %d", len(edgeOf))
	}
	// L(K4): each of the 6 edges meets 4 others: 3-regular on 6? No —
	// in K4 each edge shares an endpoint with 4 other edges.
	lg4, _ := LineGraph(Complete(4))
	if lg4.N() != 6 {
		t.Fatalf("L(K4): n=%d", lg4.N())
	}
	for v := 0; v < lg4.N(); v++ {
		if lg4.Degree(v) != 4 {
			t.Errorf("L(K4) degree(%d) = %d, want 4", v, lg4.Degree(v))
		}
	}
	// L(star with k leaves) = K_k.
	lgs, _ := LineGraph(CompleteBipartite(1, 5))
	if lgs.N() != 5 || lgs.M() != 10 {
		t.Fatalf("L(K_{1,5}): n=%d m=%d, want K5", lgs.N(), lgs.M())
	}
}

func TestLineGraphAdjacencyMeaning(t *testing.T) {
	g := Grid(2, 3)
	lg, edgeOf := LineGraph(g)
	for u := 0; u < lg.N(); u++ {
		for _, v := range lg.Neighbors(u) {
			e1, e2 := edgeOf[u], edgeOf[v]
			share := e1[0] == e2[0] || e1[0] == e2[1] || e1[1] == e2[0] || e1[1] == e2[1]
			if !share {
				t.Errorf("line graph edge between disjoint edges %v and %v", e1, e2)
			}
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Ring(2)", func() { Ring(2) })
	mustPanic("GNP p>1", func() { GNP(5, 1.5, rand.New(rand.NewSource(1))) })
	mustPanic("RandomRegular odd", func() { RandomRegular(5, 3, rand.New(rand.NewSource(1))) })
	mustPanic("RandomRegular d≥n", func() { RandomRegular(4, 4, rand.New(rand.NewSource(1))) })
	mustPanic("PowerLaw small", func() { PowerLaw(3, 3, rand.New(rand.NewSource(1))) })
	mustPanic("Hypercube(-1)", func() { Hypercube(-1) })
	mustPanic("KaryTree(0,1)", func() { CompleteKaryTree(0, 1) })
}

func TestGeneratorDeterminism(t *testing.T) {
	a := GNP(30, 0.3, rand.New(rand.NewSource(99)))
	b := GNP(30, 0.3, rand.New(rand.NewSource(99)))
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}
