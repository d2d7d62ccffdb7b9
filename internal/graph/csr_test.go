package graph

import (
	"math/rand"
	"testing"
)

func TestDegreesMatchesDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := GNP(40, 0.2, rng)
	c := CSRFromGraph(g)
	if c.N() != g.N() {
		t.Fatalf("CSR has %d vertices, want %d", c.N(), g.N())
	}
	sum := 0
	for v := 0; v < g.N(); v++ {
		if c.Degree(v) != g.Degree(v) {
			t.Errorf("CSR Degree(%d) = %d, Graph Degree = %d", v, c.Degree(v), g.Degree(v))
		}
		sum += c.Degree(v)
	}
	if sum != 2*g.M() || c.Arcs() != int64(sum) {
		t.Errorf("degree sum %d, arcs %d, want 2m = %d", sum, c.Arcs(), 2*g.M())
	}
}

func TestCSRMatchesNeighbors(t *testing.T) {
	graphs := map[string]*Graph{
		"empty":    New(0),
		"isolated": New(5),
		"ring":     Ring(9),
		"complete": Complete(6),
		"gnp":      GNP(30, 0.15, rand.New(rand.NewSource(3))),
	}
	for name, g := range graphs {
		c := CSRFromGraph(g)
		if len(c.rowPtr) != g.N()+1 {
			t.Fatalf("%s: rowPtr length %d, want %d", name, len(c.rowPtr), g.N()+1)
		}
		if c.Arcs() != int64(2*g.M()) || len(c.col) != 2*g.M() {
			t.Fatalf("%s: rowPtr[n]=%d len(col)=%d, want 2m=%d", name, c.Arcs(), len(c.col), 2*g.M())
		}
		for v := 0; v < g.N(); v++ {
			row := c.col[c.rowPtr[v]:c.rowPtr[v+1]]
			nbrs := g.Neighbors(v)
			if len(row) != len(nbrs) {
				t.Fatalf("%s: node %d row length %d, want %d", name, v, len(row), len(nbrs))
			}
			for i := range row {
				if row[i] != nbrs[i] {
					t.Errorf("%s: node %d csr row %v != neighbors %v", name, v, row, nbrs)
					break
				}
			}
		}
	}
}
