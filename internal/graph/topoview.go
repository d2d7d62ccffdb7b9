package graph

// TopoView is the immutable, lock-free topology snapshot an Overlay
// publishes (Overlay.Publish) and the incremental coloring service
// serves next to each color snapshot: a base CSR plus a chain of
// per-publication delta maps (the rows each batch mutated). Readers
// resolve a row by walking the chain newest-first and falling back to
// the base — no locks, no copies — while the writer keeps mutating its
// overlay, because overlay rows become copy-on-write the moment they
// are published into a view.
//
// The chain depth is bounded: it grows by one per publication, starts
// over on a fresh overlay over a newly compacted CSR, and collapses
// eagerly to a single delta map once it exceeds collapseDepth (so a
// service configured never to compact still reads in O(1) map probes).
type TopoView struct {
	base   *CSR
	parent *TopoView
	// delta holds the rows the producing batch mutated. A present
	// entry fully replaces deeper rows (nil means isolated). The map
	// and its row slices are immutable once the view is constructed.
	delta map[int][]int
	n     int
	arcs  int64
	depth int
}

// collapseDepth caps the delta-chain length; beyond it extend merges
// the chain into one map so read cost stays bounded between
// compactions. Every snapshot read of a patched-or-not row probes up
// to depth maps before falling through to the CSR, so the cap is kept
// small: collapsing merges only the accumulated patch union (cheap,
// amortized over the window) while each extra level taxes every read.
const collapseDepth = 8

// NewTopoView returns a view of the bare CSR (no deltas).
func NewTopoView(base *CSR) *TopoView {
	return &TopoView{base: base, n: base.N(), arcs: base.Arcs()}
}

// extend layers one publication's mutated rows over the view. The
// delta map and its row slices transfer ownership to the view and must
// not be mutated afterwards. An empty delta with unchanged counts
// returns the receiver unchanged.
func (t *TopoView) extend(delta map[int][]int, n int, arcs int64) *TopoView {
	if len(delta) == 0 && n == t.n && arcs == t.arcs {
		return t
	}
	nt := &TopoView{base: t.base, parent: t, delta: delta, n: n, arcs: arcs, depth: t.depth + 1}
	if nt.depth > collapseDepth {
		return nt.collapse()
	}
	return nt
}

// collapse merges the delta chain into a single-level view (newest
// entry wins per row). The receiver is unchanged.
func (t *TopoView) collapse() *TopoView {
	merged := make(map[int][]int)
	for v := t; v != nil; v = v.parent {
		for id, row := range v.delta {
			if _, ok := merged[id]; !ok {
				merged[id] = row
			}
		}
	}
	return &TopoView{base: t.base, delta: merged, n: t.n, arcs: t.arcs}
}

// N returns the vertex count at the view's version.
func (t *TopoView) N() int { return t.n }

// M returns the undirected edge count at the view's version.
func (t *TopoView) M() int64 { return t.arcs / 2 }

// Arcs returns the directed-edge count 2·M.
func (t *TopoView) Arcs() int64 { return t.arcs }

// Depth returns the delta-chain length (diagnostics).
func (t *TopoView) Depth() int { return t.depth }

// Row returns v's sorted neighbor list at the view's version: the
// newest delta entry covering v, else the base row. The slice is
// owned by the view and must not be modified. Out-of-range vertices
// yield nil.
func (t *TopoView) Row(v int) []int {
	if v < 0 || v >= t.n {
		return nil
	}
	for view := t; view != nil; view = view.parent {
		if row, ok := view.delta[v]; ok {
			return row
		}
	}
	if v < t.base.N() {
		return t.base.Row(v)
	}
	return nil
}

// Neighbors is Row under the repair.Topology method name.
func (t *TopoView) Neighbors(v int) []int { return t.Row(v) }

// Degree returns the degree of v at the view's version (0 when out of
// range).
func (t *TopoView) Degree(v int) int { return len(t.Row(v)) }

// HasEdge reports whether {u, v} is present at the view's version, by
// binary search on u's row.
func (t *TopoView) HasEdge(u, v int) bool {
	if u < 0 || u >= t.n || v < 0 || v >= t.n || u == v {
		return false
	}
	row := t.Row(u)
	i := searchInts(row, v)
	return i < len(row) && row[i] == v
}

// Compact folds the view into a fresh CSR with the two-pass StreamCSR
// build. The delta chain is collapsed first, so each row costs one map
// probe. The view is immutable, so Compact may run on any goroutine
// while the overlay that published it keeps mutating.
func (t *TopoView) Compact() (*CSR, error) {
	flat := t.collapse()
	return StreamCSR(t.n, func(emit func(u, v int)) {
		for u := 0; u < t.n; u++ {
			for _, v := range flat.Row(u) {
				if v > u {
					emit(u, v)
				}
			}
		}
	})
}

// Fingerprint returns the structure hash of the topology at the
// view's version — the same value CSR.Fingerprint gives for the same
// labeled graph, whatever the delta chain looks like.
func (t *TopoView) Fingerprint() uint64 {
	return fingerprint(t.n, t.Row)
}

// searchInts is sort.SearchInts without the interface indirection —
// the view read path stays allocation-free and inlinable.
func searchInts(row []int, x int) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
