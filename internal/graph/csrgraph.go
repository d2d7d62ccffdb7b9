package graph

import (
	"errors"
	"fmt"
	"sort"
)

// CSR is an immutable simple undirected graph in compressed-sparse-row
// form: the sorted adjacency lists of vertices 0..n-1 concatenated into
// one flat column array, with row offsets held as int64 so directed
// edge (arc) counts beyond 2³¹ stay representable even on platforms
// where int is 32 bits. It is the native topology representation of
// the web-scale simulation path: generators stream edges directly into
// the two arrays (see StreamCSR and stream.go), the simulator's
// network, router and inbox arena index it without ever materializing
// per-node slices or adjacency maps, and a 10⁷-node instance costs
// exactly 8 bytes per vertex of row offsets plus 8 bytes per arc of
// column storage.
//
// The column array itself is indexed by int, so a build whose arc
// count exceeds the platform's int range is refused with
// ErrCSROverflow instead of silently wrapping — see checkArcCount for
// the guard and its regression test.
type CSR struct {
	n      int
	rowPtr []int64 // len n+1; row v is col[rowPtr[v]:rowPtr[v+1]]
	col    []int   // sorted neighbor ids, concatenated in vertex order
}

// ErrCSROverflow is returned when a CSR build's arc count does not fit
// the platform's int (the index type of the column array). On 64-bit
// platforms this is unreachable in practice; on 32-bit platforms it
// turns the latent offset truncation beyond 2³¹ arcs into a refusal.
var ErrCSROverflow = errors.New("graph: CSR arc count overflows int indexing")

// ErrParallelEdge is returned when a streamed build emits the same
// undirected edge twice.
var ErrParallelEdge = errors.New("graph: parallel edge")

// ErrStreamDiverged is returned when the two passes of a streamed
// build emit different edge sequences; EdgeStream producers must be
// replayable.
var ErrStreamDiverged = errors.New("graph: edge stream not replayable")

// maxIntArcs is the largest arc count the column array can index.
const maxIntArcs = int64(^uint(0) >> 1)

// checkArcCount is the int32/int overflow guard for CSR offset
// indexing: arcs is the directed-edge count about to be used as a
// column length, and limit is the platform's maximum int (parameterized
// so the 2³¹ boundary is testable on 64-bit builds).
func checkArcCount(arcs, limit int64) error {
	if arcs < 0 || arcs > limit {
		return fmt.Errorf("%w: %d arcs, index limit %d", ErrCSROverflow, arcs, limit)
	}
	return nil
}

// EdgeStream is a deterministic, replayable edge producer: it calls
// emit exactly once per undirected edge {u, v}. StreamCSR invokes the
// stream twice — a counting pass that sizes the row offsets and a fill
// pass that writes the column array — and both passes must produce the
// identical edge sequence (generators achieve this by reseeding their
// RNG inside the stream function).
type EdgeStream func(emit func(u, v int))

// StreamCSR builds a CSR graph on n vertices from a replayable edge
// stream without materializing adjacency maps, per-node slices, or an
// intermediate edge list: the counting pass accumulates degrees
// directly into the row-offset array, the fill pass places each arc at
// its row cursor (reusing the offset array as the cursor and shifting
// it back afterwards), and rows that arrive out of order are sorted in
// place. Self-loops, out-of-range endpoints, duplicate edges, and
// non-replayable streams are errors.
func StreamCSR(n int, stream EdgeStream) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative vertex count %d", ErrVertexRange, n)
	}
	rowPtr := make([]int64, n+1)
	var streamErr error
	edges := int64(0)
	stream(func(u, v int) {
		if streamErr != nil {
			return
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			streamErr = fmt.Errorf("%w: edge {%d,%d} in graph on %d vertices", ErrVertexRange, u, v, n)
			return
		}
		if u == v {
			streamErr = fmt.Errorf("%w: {%d,%d}", ErrSelfLoop, u, v)
			return
		}
		rowPtr[u+1]++
		rowPtr[v+1]++
		edges++
	})
	if streamErr != nil {
		return nil, streamErr
	}
	arcs := 2 * edges
	if err := checkArcCount(arcs, maxIntArcs); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		rowPtr[v+1] += rowPtr[v]
	}
	col := make([]int, arcs)
	filled := int64(0)
	stream(func(u, v int) {
		if streamErr != nil {
			return
		}
		// Divergence detection is best-effort: a fill pass that emits a
		// different sequence than the counting pass is caught when it
		// overruns a cursor, changes the total arc count, or breaks the
		// sorted/duplicate-free row invariant below.
		if u < 0 || u >= n || v < 0 || v >= n || u == v ||
			rowPtr[u] >= arcs || rowPtr[v] >= arcs || filled+2 > arcs {
			streamErr = ErrStreamDiverged
			return
		}
		col[rowPtr[u]] = v
		rowPtr[u]++
		col[rowPtr[v]] = u
		rowPtr[v]++
		filled += 2
	})
	if streamErr != nil {
		return nil, streamErr
	}
	if filled != arcs {
		return nil, fmt.Errorf("%w: counted %d arcs, filled %d", ErrStreamDiverged, arcs, filled)
	}
	// Each row cursor now sits at its row's end, i.e. rowPtr[v] holds
	// what rowPtr[v+1] should be; shift right to restore the offsets
	// (copy is overlap-safe).
	copy(rowPtr[1:], rowPtr[:n])
	rowPtr[0] = 0
	c := &CSR{n: n, rowPtr: rowPtr, col: col}
	for v := 0; v < n; v++ {
		row := c.Row(v)
		if !sort.IntsAreSorted(row) {
			sort.Ints(row)
		}
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("%w: {%d,%d}", ErrParallelEdge, v, row[i])
			}
		}
	}
	return c, nil
}

// CSRFromGraph converts an adjacency-list graph to CSR form. The
// returned CSR owns fresh arrays; the graph is left normalized but
// otherwise untouched.
func CSRFromGraph(g *Graph) *CSR {
	g.Normalize()
	n := g.N()
	rowPtr := make([]int64, n+1)
	for v := 0; v < n; v++ {
		rowPtr[v+1] = rowPtr[v] + int64(len(g.adj[v]))
	}
	col := make([]int, rowPtr[n])
	for v := 0; v < n; v++ {
		copy(col[rowPtr[v]:rowPtr[v+1]], g.adj[v])
	}
	return &CSR{n: n, rowPtr: rowPtr, col: col}
}

// N returns the number of vertices.
func (c *CSR) N() int { return c.n }

// M returns the number of undirected edges.
func (c *CSR) M() int64 { return c.rowPtr[c.n] / 2 }

// Arcs returns the directed-edge (delivery-slot) count 2·M.
func (c *CSR) Arcs() int64 { return c.rowPtr[c.n] }

// Degree returns the degree of v.
func (c *CSR) Degree(v int) int { return int(c.rowPtr[v+1] - c.rowPtr[v]) }

// RowStart returns the offset of v's row in the column array. The
// simulator's inbox arena uses it to mirror the CSR layout exactly.
func (c *CSR) RowStart(v int) int64 { return c.rowPtr[v] }

// Row returns v's sorted neighbor list as a subslice of the shared
// column array: zero-copy, owned by the CSR, and must not be modified.
func (c *CSR) Row(v int) []int { return c.col[c.rowPtr[v]:c.rowPtr[v+1]] }

// Neighbors is Row under the name the adjacency-list Graph uses, so a
// CSR satisfies the same read-only topology interfaces (repair.Heal,
// the incremental service) without conversion.
func (c *CSR) Neighbors(v int) []int { return c.Row(v) }

// HasEdge reports whether the edge {u, v} is present, by binary search
// over the shorter of the two rows.
func (c *CSR) HasEdge(u, v int) bool {
	if u < 0 || u >= c.n || v < 0 || v >= c.n || u == v {
		return false
	}
	if c.Degree(u) > c.Degree(v) {
		u, v = v, u
	}
	return contains(c.Row(u), v)
}

// MaxDegree returns Δ as defined in the paper: max(2, max degree).
func (c *CSR) MaxDegree() int {
	d := c.RawMaxDegree()
	if d < 2 {
		return 2
	}
	return d
}

// RawMaxDegree returns the actual maximum vertex degree.
func (c *CSR) RawMaxDegree() int {
	d := 0
	for v := 0; v < c.n; v++ {
		if dv := c.Degree(v); dv > d {
			d = dv
		}
	}
	return d
}

// Fingerprint returns the same 64-bit FNV-1a structure hash as
// Graph.Fingerprint: a CSR and a Graph with identical labeled
// structure produce identical fingerprints, which is what lets the
// streaming-build fuzz tests and the sharded-execution conformance
// checks compare the two representations byte-for-byte.
func (c *CSR) Fingerprint() uint64 {
	return fingerprint(c.n, c.Row)
}

// Graph materializes an adjacency-list copy of the CSR for the code
// that still wants one (neighborhood independence, tests); it allocates
// per-node slices and copies the column data, so solve and scale paths
// must not call it.
func (c *CSR) Graph() *Graph {
	g := New(c.n)
	g.edges = int(c.M())
	for v := 0; v < c.n; v++ {
		g.adj[v] = append([]int(nil), c.Row(v)...)
	}
	g.sorted = true
	return g
}

// Validate checks the CSR invariants — monotone offsets, sorted
// duplicate-free rows, no self-loops, in-range neighbors, symmetry —
// and returns an error describing the first violation. The large-n
// generator property tests run it on million-node streamed builds.
// The offsets are checked in full before any row is read, so malformed
// offsets are reported, never indexed.
func (c *CSR) Validate() error {
	if c.n < 0 || len(c.rowPtr) != c.n+1 {
		return fmt.Errorf("graph: CSR rowPtr malformed (len %d for %d vertices)", len(c.rowPtr), c.n)
	}
	if c.rowPtr[0] != 0 || c.rowPtr[c.n] != int64(len(c.col)) {
		return fmt.Errorf("graph: CSR offsets span [%d, %d], len(col)=%d", c.rowPtr[0], c.rowPtr[c.n], len(c.col))
	}
	for v := 0; v < c.n; v++ {
		if c.rowPtr[v] > c.rowPtr[v+1] {
			return fmt.Errorf("graph: CSR offsets decrease at vertex %d", v)
		}
	}
	for v := 0; v < c.n; v++ {
		row := c.Row(v)
		if err := checkRow(v, row, c.n); err != nil {
			return err
		}
		for _, w := range row {
			if !c.HasEdge(w, v) {
				return fmt.Errorf("graph: asymmetric adjacency %d->%d", v, w)
			}
		}
	}
	return nil
}

// checkRow returns the first way row breaks the CSR row invariants as
// vertex v's row in a graph on n vertices: a self-loop, a neighbor
// outside [0, n), a repeated neighbor, or an unsorted row. Symmetry is
// left to the caller.
func checkRow(v int, row []int, n int) error {
	prev := -1
	for _, w := range row {
		switch {
		case w == v:
			return fmt.Errorf("%w at vertex %d", ErrSelfLoop, v)
		case w < 0 || w >= n:
			return fmt.Errorf("%w: neighbor %d of %d", ErrVertexRange, w, v)
		case w == prev:
			return fmt.Errorf("%w: {%d,%d}", ErrParallelEdge, v, w)
		case w < prev:
			return fmt.Errorf("graph: row %d not sorted", v)
		}
		prev = w
	}
	return nil
}

// String returns a short human-readable summary.
func (c *CSR) String() string {
	return fmt.Sprintf("CSR(n=%d, m=%d, Δ=%d)", c.n, c.M(), c.RawMaxDegree())
}
