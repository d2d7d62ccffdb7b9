package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// buildReference constructs the map/adjacency-list reference graph by
// replaying the same edge stream through AddEdge, the build path the
// streamed CSR must match byte-for-byte.
func buildReference(t *testing.T, n int, stream EdgeStream) *Graph {
	t.Helper()
	g := New(n)
	stream(func(u, v int) { g.MustAddEdge(u, v) })
	g.Normalize()
	return g
}

// assertCSREqualsGraph checks the streamed CSR against the reference:
// identical rowPtr/col content and identical structure fingerprints.
func assertCSREqualsGraph(t *testing.T, c *CSR, g *Graph) {
	t.Helper()
	if c.N() != g.N() {
		t.Fatalf("n: csr %d, graph %d", c.N(), g.N())
	}
	if c.M() != int64(g.M()) {
		t.Fatalf("m: csr %d, graph %d", c.M(), g.M())
	}
	if c.Arcs() != 2*int64(g.M()) {
		t.Fatalf("arcs: csr %d, graph %d", c.Arcs(), 2*g.M())
	}
	start := int64(0)
	for v := 0; v < g.N(); v++ {
		if start != c.rowPtr[v] {
			t.Fatalf("rowPtr[%d]: csr %d, graph %d", v, c.rowPtr[v], start)
		}
		row := c.Row(v)
		ref := g.Neighbors(v)
		start += int64(len(ref))
		if len(row) != len(ref) {
			t.Fatalf("row %d length: csr %d, graph %d", v, len(row), len(ref))
		}
		for i := range ref {
			if row[i] != ref[i] {
				t.Fatalf("row %d slot %d: csr %d, graph %d", v, i, row[i], ref[i])
			}
		}
	}
	if cf, gf := c.Fingerprint(), g.Fingerprint(); cf != gf {
		t.Fatalf("fingerprint: csr %x, graph %x", cf, gf)
	}
}

func TestCSRFromGraphMatchesGraph(t *testing.T) {
	graphs := map[string]*Graph{
		"empty":    New(0),
		"isolated": New(7),
		"ring":     Ring(11),
		"complete": Complete(6),
		"gnp":      GNP(40, 0.12, rand.New(rand.NewSource(3))),
		"powerlaw": PowerLaw(50, 3, rand.New(rand.NewSource(4))),
	}
	for name, g := range graphs {
		c := CSRFromGraph(g)
		t.Run(name, func(t *testing.T) {
			assertCSREqualsGraph(t, c, g)
			if err := c.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

func TestCSRAccessors(t *testing.T) {
	g := GNP(60, 0.1, rand.New(rand.NewSource(9)))
	c := CSRFromGraph(g)
	if c.MaxDegree() != g.MaxDegree() || c.RawMaxDegree() != g.RawMaxDegree() {
		t.Fatalf("degree mismatch: csr (%d,%d), graph (%d,%d)",
			c.MaxDegree(), c.RawMaxDegree(), g.MaxDegree(), g.RawMaxDegree())
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if c.HasEdge(u, v) != g.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d,%d) diverges", u, v)
			}
		}
		if c.Degree(u) != g.Degree(u) {
			t.Fatalf("Degree(%d): csr %d, graph %d", u, c.Degree(u), g.Degree(u))
		}
	}
	// Out-of-range and self queries are false, not panics.
	if c.HasEdge(-1, 2) || c.HasEdge(2, 500) || c.HasEdge(3, 3) {
		t.Fatal("out-of-range HasEdge returned true")
	}
	back := c.Graph()
	if back.Fingerprint() != g.Fingerprint() {
		t.Fatal("Graph() round-trip changed the structure")
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("materialized graph invalid: %v", err)
	}
}

func TestStreamCSRRejectsBadStreams(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		stream EdgeStream
		want   error
	}{
		{"self-loop", 4, func(emit func(u, v int)) { emit(2, 2) }, ErrSelfLoop},
		{"out of range", 4, func(emit func(u, v int)) { emit(0, 9) }, ErrVertexRange},
		{"negative", 4, func(emit func(u, v int)) { emit(-1, 2) }, ErrVertexRange},
		{"parallel edge", 4, func(emit func(u, v int)) { emit(0, 1); emit(1, 0) }, ErrParallelEdge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := StreamCSR(tc.n, tc.stream); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestCSRValidateRejectsMalformed hand-builds broken CSRs, malformed
// offsets included; Validate must return an error for each, not panic.
func TestCSRValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		c    *CSR
		want error // nil: any error
	}{
		{"zero CSR", new(CSR), nil},
		{"short rowPtr", &CSR{n: 2, rowPtr: []int64{}}, nil},
		{"negative n", &CSR{n: -1}, nil},
		{"offsets past col", &CSR{n: 2, rowPtr: []int64{0, 10, 2}, col: []int{1, 0}}, nil},
		{"self-loop", &CSR{n: 2, rowPtr: []int64{0, 1, 2}, col: []int{0, 1}}, ErrSelfLoop},
		{"out of range", &CSR{n: 2, rowPtr: []int64{0, 1, 2}, col: []int{2, 0}}, ErrVertexRange},
		{"duplicate", &CSR{n: 2, rowPtr: []int64{0, 2, 4}, col: []int{1, 1, 0, 0}}, ErrParallelEdge},
		{"unsorted", &CSR{n: 3, rowPtr: []int64{0, 2, 3, 4}, col: []int{2, 1, 0, 0}}, nil},
		{"asymmetric", &CSR{n: 3, rowPtr: []int64{0, 1, 2, 2}, col: []int{1, 2}}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.c.Validate()
			if err == nil {
				t.Fatal("Validate accepted a malformed CSR")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestStreamCSRDetectsDivergence feeds a stream that emits different
// edges on its second invocation; the builder must refuse it instead
// of producing a corrupted CSR.
func TestStreamCSRDetectsDivergence(t *testing.T) {
	pass := 0
	diverging := func(emit func(u, v int)) {
		pass++
		if pass == 1 {
			emit(0, 1)
			emit(1, 2)
		} else {
			emit(0, 1) // second edge missing
		}
	}
	if _, err := StreamCSR(3, diverging); !errors.Is(err, ErrStreamDiverged) {
		t.Fatalf("err = %v, want ErrStreamDiverged", err)
	}
}

// TestCSROffsetOverflowGuard is the regression test for the int32/int
// offset-indexing boundary: with a simulated 32-bit index limit, an
// arc count of 2³¹−1 passes the guard and 2³¹ is refused, so a build
// that would silently truncate offsets on a 32-bit platform errors out
// instead.
func TestCSROffsetOverflowGuard(t *testing.T) {
	const limit32 = int64(math.MaxInt32)
	if err := checkArcCount(limit32, limit32); err != nil {
		t.Fatalf("2³¹−1 arcs must pass a 32-bit guard: %v", err)
	}
	if err := checkArcCount(limit32+1, limit32); !errors.Is(err, ErrCSROverflow) {
		t.Fatalf("2³¹ arcs must trip a 32-bit guard, got %v", err)
	}
	if err := checkArcCount(-1, limit32); !errors.Is(err, ErrCSROverflow) {
		t.Fatalf("negative arc count must trip the guard, got %v", err)
	}
	// The platform guard in StreamCSR uses the real int limit.
	if err := checkArcCount(123, maxIntArcs); err != nil {
		t.Fatalf("small arc count tripped the platform guard: %v", err)
	}
}
