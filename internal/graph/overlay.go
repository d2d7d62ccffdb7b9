package graph

// Overlay is the mutable delta-adjacency layer over an immutable CSR:
// the incremental coloring service's topology under streaming churn.
// Reads on untouched vertices are zero-copy views into the base CSR's
// column array — the 10⁶-node substrate stays flat — while a vertex
// touched by an insert or delete gets a private copy-on-write row
// (sorted, duplicate-free, exactly the CSR row invariants). Vertices
// appended beyond the base are pure patch rows; removing a vertex
// detaches all incident edges and leaves an isolated tombstone so ids
// stay stable for the color arrays layered on top.
//
// The private rows are the one row store the overlay and its
// published TopoViews share: a per-vertex array of atomic pointers to
// row versions, so a read or a mutation costs one array probe. Each
// version records the generation that made it and links to the
// version it replaced. Publish seals the current generation into an
// immutable TopoView in O(1); the first later mutation of a sealed
// row clones it into a new version, with spare capacity so growth
// within a batch rarely reallocates, and a view skips versions
// younger than its own generation.
//
// The store grows with the touched-vertex count, not the update
// count: when superseded versions outnumber max(Patched, n/16),
// Publish starts a fresh array holding only the newest versions, and
// earlier views keep the old one, which the overlay never writes
// again. A long-running service also compacts periodically:
// TopoView.Compact folds a published view into a fresh CSR off the
// write path — a run-copy merge of the base rows and the patched rows —
// and NewOverlay over that CSR starts again with no private rows.
//
// An Overlay is not safe for concurrent use; the service layer
// serializes writers and hands readers immutable snapshots instead.

import (
	"fmt"
	"sync/atomic"
)

// Overlay layers per-vertex insert/delete patches over a base CSR.
type Overlay struct {
	base *CSR
	// rows[v] is v's newest row version, nil when v reads through to
	// the base row. Every vertex ≥ base.N() has a version. A version
	// fully replaces the base row (copy-on-write semantics).
	rows []atomic.Pointer[rowVersion]
	n    int
	arcs int64

	// Copy-on-write state: gen is the generation mutations write (the
	// last published view's plus 1), changed reports a mutation since
	// the last Publish, patched counts the vertices with a version,
	// superseded the versions reachable only through prev, and view is
	// the last published view.
	gen        int
	changed    bool
	patched    int
	superseded int
	view       *TopoView
}

// rowVersion is one version of a patched vertex's row. gen and prev
// are set before the version is stored and never change; adj changes
// only while gen is the overlay's current generation, and a view
// reads it only once a Publish has sealed that generation.
type rowVersion struct {
	adj  []int
	gen  int
	prev *rowVersion
}

// NewOverlay returns an overlay with no patches over base.
func NewOverlay(base *CSR) *Overlay {
	n := base.N()
	o := &Overlay{base: base, rows: make([]atomic.Pointer[rowVersion], n), n: n, arcs: base.Arcs(), gen: 1}
	o.view = &TopoView{base: base, rows: o.rows, n: n, arcs: o.arcs}
	return o
}

// N returns the current vertex count (base plus appended vertices).
func (o *Overlay) N() int { return o.n }

// M returns the current undirected edge count.
func (o *Overlay) M() int64 { return o.arcs / 2 }

// Patched returns the number of vertices with a private row — the
// overlay memory the next compaction reclaims.
func (o *Overlay) Patched() int { return o.patched }

// Base returns the immutable CSR under the patches.
func (o *Overlay) Base() *CSR { return o.base }

// Neighbors returns v's sorted neighbor list: a zero-copy view into
// the base CSR for unpatched vertices, the newest row version
// otherwise. The slice is owned by the overlay and must not be
// modified; it is valid until the next mutation of v.
func (o *Overlay) Neighbors(v int) []int {
	if ver := o.rows[v].Load(); ver != nil {
		return ver.adj
	}
	return o.base.Row(v)
}

// Degree returns the degree of v.
func (o *Overlay) Degree(v int) int { return len(o.Neighbors(v)) }

// HasEdge reports whether the edge {u, v} is present, by binary search
// on u's current row.
func (o *Overlay) HasEdge(u, v int) bool { return hasEdge(o.n, u, v, o.Neighbors) }

// link stores a version of v holding adj, made in the current
// generation, as v's newest version ahead of prev.
func (o *Overlay) link(v int, prev *rowVersion, adj []int) *rowVersion {
	ver := &rowVersion{adj: adj, gen: o.gen, prev: prev}
	if prev == nil {
		o.patched++
	} else {
		o.superseded++
	}
	o.rows[v].Store(ver)
	o.changed = true
	return ver
}

// newRow returns an empty private row buffer with room for want
// entries plus spare capacity.
func newRow(want int) []int { return make([]int, 0, want+4) }

// cloneRow copies src into a fresh private buffer with room to grow.
func cloneRow(src []int) []int {
	return append(newRow(len(src)+1), src...)
}

// row returns v's row version of the current generation, making it on
// the row's first mutation in the generation as a copy of the newest
// row (copy-on-write across batch generations).
func (o *Overlay) row(v int) *rowVersion {
	cur := o.rows[v].Load()
	if cur != nil && cur.gen == o.gen {
		return cur
	}
	var src []int
	if cur != nil {
		src = cur.adj
	} else if v < o.base.N() {
		src = o.base.Row(v)
	}
	return o.link(v, cur, cloneRow(src))
}

// AddNode appends an isolated vertex and returns its id.
func (o *Overlay) AddNode() int {
	v := o.n
	o.n++
	o.rows = append(o.rows, atomic.Pointer[rowVersion]{})
	o.link(v, nil, nil)
	return v
}

// AddEdge inserts the undirected edge {u, v}. Self-loops, out-of-range
// endpoints and duplicate edges are errors (the CSR invariants).
func (o *Overlay) AddEdge(u, v int) error {
	if u < 0 || u >= o.n || v < 0 || v >= o.n {
		return fmt.Errorf("%w: edge {%d,%d} in overlay on %d vertices", ErrVertexRange, u, v, o.n)
	}
	if u == v {
		return fmt.Errorf("%w: {%d,%d}", ErrSelfLoop, u, v)
	}
	if o.HasEdge(u, v) {
		return fmt.Errorf("%w: {%d,%d}", ErrParallelEdge, u, v)
	}
	o.insert(u, v)
	o.insert(v, u)
	o.arcs += 2
	return nil
}

// RemoveEdge deletes the undirected edge {u, v}; it reports whether
// the edge was present.
func (o *Overlay) RemoveEdge(u, v int) bool {
	if !o.HasEdge(u, v) {
		return false
	}
	o.remove(u, v)
	o.remove(v, u)
	o.arcs -= 2
	return true
}

// RemoveNode detaches every edge incident to v, leaving v as an
// isolated tombstone (ids never shift). It returns v's former
// neighbors — the churn dirty set the caller reclassifies — or nil
// when v is out of range or already isolated.
func (o *Overlay) RemoveNode(v int) []int {
	if v < 0 || v >= o.n {
		return nil
	}
	old := o.Neighbors(v)
	if len(old) == 0 {
		return nil
	}
	former := append([]int(nil), old...)
	for _, w := range former {
		o.remove(w, v)
	}
	if cur := o.rows[v].Load(); cur != nil && cur.gen == o.gen {
		cur.adj = nil
	} else {
		o.link(v, cur, nil)
	}
	o.arcs -= 2 * int64(len(former))
	return former
}

// insert places w into v's private row, keeping it sorted.
func (o *Overlay) insert(v, w int) {
	ver := o.row(v)
	row := ver.adj
	i := searchInts(row, w)
	if len(row) == cap(row) {
		row = append(newRow(2*len(row)+1), row...)
	}
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = w
	ver.adj = row
}

// remove deletes w from v's private row.
func (o *Overlay) remove(v, w int) {
	ver := o.row(v)
	i := searchInts(ver.adj, w)
	if i < len(ver.adj) && ver.adj[i] == w {
		ver.adj = append(ver.adj[:i], ver.adj[i+1:]...)
	}
}

// Publish seals the current generation and returns the immutable
// TopoView of the current state, or the previous view itself when
// nothing changed. The view shares the row array and reads only
// versions of sealed generations; the next mutation of a sealed row
// makes a new version first, so the view stays valid while the overlay
// keeps mutating. When superseded versions outnumber
// max(Patched, n/16), the view gets a fresh array holding only the
// newest versions, which bounds the history the array keeps reachable.
func (o *Overlay) Publish() *TopoView {
	if !o.changed {
		return o.view
	}
	if o.superseded > max(o.patched, o.n/16) {
		rows := make([]atomic.Pointer[rowVersion], o.n, cap(o.rows))
		for v := range rows {
			if ver := o.rows[v].Load(); ver != nil {
				if ver.prev != nil {
					ver = &rowVersion{adj: ver.adj, gen: ver.gen}
				}
				rows[v].Store(ver)
			}
		}
		o.rows, o.superseded = rows, 0
	}
	o.view = &TopoView{base: o.base, rows: o.rows[:o.n:o.n], gen: o.gen, patched: o.patched, n: o.n, arcs: o.arcs}
	o.gen++
	o.changed = false
	return o.view
}

// Graph materializes an adjacency-list copy of the overlay's current
// state — validation and differential-test paths only (it allocates
// per-node slices).
func (o *Overlay) Graph() *Graph {
	g := New(o.n)
	for v := 0; v < o.n; v++ {
		for _, w := range o.Neighbors(v) {
			if w > v {
				g.MustAddEdge(v, w)
			}
		}
	}
	g.Normalize()
	return g
}

// String returns a short human-readable summary.
func (o *Overlay) String() string {
	return fmt.Sprintf("Overlay(n=%d, m=%d, patched=%d)", o.n, o.M(), o.patched)
}
