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
// The private rows live in one dense slice, found through a
// per-vertex slot index, so a read or a mutation costs one array
// probe rather than a hash lookup. Rows are generational
// copy-on-write: Publish seals every row mutated since the previous
// Publish into an immutable TopoView for lock-free readers, and the
// first later mutation of a sealed row clones it first, into a buffer
// with spare capacity so growth within a batch rarely reallocates.
//
// The row slice grows with the touched-vertex count, not the update
// count. A long-running service bounds it by compacting periodically:
// TopoView.Compact folds a published view into a fresh CSR off the
// write path — a run-copy merge of the base rows and the patched rows —
// and NewOverlay over that CSR starts again with no private rows.
//
// An Overlay is not safe for concurrent use; the service layer
// serializes writers and hands readers immutable snapshots instead.

import (
	"fmt"
)

// Overlay layers per-vertex insert/delete patches over a base CSR.
type Overlay struct {
	base *CSR
	// slot[v] is 1 + the index of v's private row in rows, or 0 when
	// v reads through to the base row. Every vertex ≥ base.N() has a
	// private row. A private row fully replaces the base row
	// (copy-on-write semantics).
	slot []int32
	rows []ownedRow
	n    int
	arcs int64

	// Copy-on-write state: gen counts publications (starting at 1),
	// touched lists the rows mutated since the last Publish, and view
	// is the last published view.
	gen     int
	touched []int
	view    *TopoView
}

// ownedRow is a patched vertex's private adjacency and the generation
// that owns its buffer: a row whose gen is older than the overlay's
// was sealed by a Publish and is cloned before its next mutation.
type ownedRow struct {
	adj []int
	gen int
}

// NewOverlay returns an overlay with no patches over base.
func NewOverlay(base *CSR) *Overlay {
	return &Overlay{
		base: base, slot: make([]int32, base.N()), n: base.N(), arcs: base.Arcs(),
		gen: 1, view: NewTopoView(base),
	}
}

// N returns the current vertex count (base plus appended vertices).
func (o *Overlay) N() int { return o.n }

// M returns the current undirected edge count.
func (o *Overlay) M() int64 { return o.arcs / 2 }

// Patched returns the number of vertices with a private row — the
// overlay memory the next compaction reclaims.
func (o *Overlay) Patched() int { return len(o.rows) }

// Base returns the immutable CSR under the patches.
func (o *Overlay) Base() *CSR { return o.base }

// Neighbors returns v's sorted neighbor list: a zero-copy view into
// the base CSR for unpatched vertices, the private patch row
// otherwise. The slice is owned by the overlay and must not be
// modified; it is valid until the next mutation of v.
func (o *Overlay) Neighbors(v int) []int {
	if s := o.slot[v]; s != 0 {
		return o.rows[s-1].adj
	}
	return o.base.Row(v)
}

// Degree returns the degree of v.
func (o *Overlay) Degree(v int) int {
	if s := o.slot[v]; s != 0 {
		return len(o.rows[s-1].adj)
	}
	return o.base.Degree(v)
}

// HasEdge reports whether the edge {u, v} is present, by binary search
// on u's current row.
func (o *Overlay) HasEdge(u, v int) bool {
	if u < 0 || u >= o.n || v < 0 || v >= o.n || u == v {
		return false
	}
	row := o.Neighbors(u)
	i := searchInts(row, v)
	return i < len(row) && row[i] == v
}

// setRow installs adj as v's private row, owned by the current
// generation, and records v as touched the first time this generation
// owns it.
func (o *Overlay) setRow(v int, adj []int) {
	s := o.slot[v]
	if s == 0 {
		o.rows = append(o.rows, ownedRow{})
		s = int32(len(o.rows))
		o.slot[v] = s
	}
	r := &o.rows[s-1]
	r.adj = adj
	if r.gen != o.gen {
		r.gen = o.gen
		o.touched = append(o.touched, v)
	}
}

// newRow returns an empty private row buffer with room for want
// entries plus spare capacity.
func newRow(want int) []int { return make([]int, 0, want+4) }

// cloneRow copies src into a fresh private buffer with room to grow.
func cloneRow(src []int) []int {
	return append(newRow(len(src)+1), src...)
}

// row returns v's private patch row, creating it as a copy of the base
// row on first mutation, and re-cloning a row sealed by a published
// snapshot (copy-on-write across batch generations).
func (o *Overlay) row(v int) []int {
	var r []int
	if s := o.slot[v]; s != 0 {
		owned := o.rows[s-1]
		if owned.gen == o.gen {
			return owned.adj
		}
		r = cloneRow(owned.adj)
	} else if v < o.base.N() {
		r = cloneRow(o.base.Row(v))
	}
	o.setRow(v, r)
	return r
}

// AddNode appends an isolated vertex and returns its id.
func (o *Overlay) AddNode() int {
	v := o.n
	o.n++
	o.slot = append(o.slot, 0)
	o.setRow(v, nil)
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
	o.setRow(v, nil)
	o.arcs -= 2 * int64(len(former))
	return former
}

// insert places w into v's private row, keeping it sorted.
func (o *Overlay) insert(v, w int) {
	row := o.row(v)
	i := searchInts(row, w)
	if len(row) == cap(row) {
		row = append(newRow(2*len(row)+1), row...)
	}
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = w
	o.rows[o.slot[v]-1].adj = row
}

// remove deletes w from v's private row.
func (o *Overlay) remove(v, w int) {
	row := o.row(v)
	i := searchInts(row, w)
	if i < len(row) && row[i] == w {
		o.rows[o.slot[v]-1].adj = append(row[:i], row[i+1:]...)
	}
}

// Publish seals the rows mutated since the last Publish and returns
// the immutable TopoView of the current state: the previous view
// extended by those rows, or the previous view itself when nothing
// changed. The sealed rows are copy-on-write from then on — the next
// mutation of any of them clones first — so the view stays valid while
// the overlay keeps mutating.
func (o *Overlay) Publish() *TopoView {
	var delta map[int][]int
	if len(o.touched) > 0 {
		delta = make(map[int][]int, len(o.touched))
		for _, v := range o.touched {
			delta[v] = o.rows[o.slot[v]-1].adj
		}
	}
	o.touched = o.touched[:0]
	o.gen++
	o.view = o.view.extend(delta, o.n, o.arcs)
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
	return fmt.Sprintf("Overlay(n=%d, m=%d, patched=%d)", o.n, o.M(), len(o.rows))
}
