package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// Validate checks the overlay invariants: sorted duplicate-free rows,
// no self-loops, in-range neighbors, symmetry, and an arc count
// matching the rows.
func (o *Overlay) Validate() error {
	var arcs int64
	for v := 0; v < o.n; v++ {
		row := o.Neighbors(v)
		arcs += int64(len(row))
		if err := checkRow(v, row, o.n); err != nil {
			return err
		}
		for _, w := range row {
			if !o.HasEdge(w, v) {
				return fmt.Errorf("graph: asymmetric overlay adjacency %d->%d", v, w)
			}
		}
	}
	if arcs != o.arcs {
		return fmt.Errorf("graph: overlay arc count %d, rows sum to %d", o.arcs, arcs)
	}
	return nil
}

// TestOverlayZeroCopyReads pins the overlay's core memory contract:
// reading an untouched vertex returns the base CSR's row (same backing
// array), and only mutated vertices acquire patch rows.
func TestOverlayZeroCopyReads(t *testing.T) {
	c := StreamedRing(16)
	o := NewOverlay(c)
	base := c.Row(3)
	got := o.Neighbors(3)
	if &got[0] != &base[0] {
		t.Fatal("unpatched read is not a zero-copy view into the base CSR")
	}
	if err := o.AddEdge(3, 8); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if o.Patched() != 2 {
		t.Fatalf("Patched = %d after one insert, want 2", o.Patched())
	}
	if &o.Neighbors(5)[0] != &c.Row(5)[0] {
		t.Fatal("vertex 5 lost its zero-copy view")
	}
}

// TestOverlayMutations drives inserts, deletes, node appends and node
// removals and checks the overlay against a map-built reference graph
// after every operation.
func TestOverlayMutations(t *testing.T) {
	c := StreamedRing(10)
	o := NewOverlay(c)
	ref := c.Graph()

	check := func(step string) {
		t.Helper()
		if err := o.Validate(); err != nil {
			t.Fatalf("%s: overlay invalid: %v", step, err)
		}
		if o.N() != ref.N() {
			t.Fatalf("%s: n = %d, want %d", step, o.N(), ref.N())
		}
		if o.M() != int64(ref.M()) {
			t.Fatalf("%s: m = %d, want %d", step, o.M(), ref.M())
		}
		if o.Graph().Fingerprint() != ref.Fingerprint() {
			t.Fatalf("%s: structure diverged from reference", step)
		}
	}

	if err := o.AddEdge(0, 5); err != nil {
		t.Fatalf("AddEdge(0,5): %v", err)
	}
	ref.MustAddEdge(0, 5)
	check("insert chord")

	if !o.RemoveEdge(2, 3) {
		t.Fatal("RemoveEdge(2,3) reported absent")
	}
	ref.RemoveEdge(2, 3)
	check("delete ring edge")

	if o.RemoveEdge(2, 3) {
		t.Fatal("double RemoveEdge(2,3) reported present")
	}

	v := o.AddNode()
	if v != 10 {
		t.Fatalf("AddNode id = %d, want 10", v)
	}
	ref2 := New(11)
	for _, e := range ref.Edges() {
		ref2.MustAddEdge(e[0], e[1])
	}
	ref = ref2
	check("append node")

	if err := o.AddEdge(v, 4); err != nil {
		t.Fatalf("AddEdge(new,4): %v", err)
	}
	ref.MustAddEdge(v, 4)
	check("attach new node")

	former := o.RemoveNode(1)
	if len(former) != 2 {
		t.Fatalf("RemoveNode(1) former neighbors = %v, want 2 entries", former)
	}
	for _, w := range former {
		ref.RemoveEdge(1, w)
	}
	check("remove node")
	if o.Degree(1) != 0 {
		t.Fatalf("tombstone degree = %d", o.Degree(1))
	}
	if got := o.RemoveNode(1); got != nil {
		t.Fatalf("second RemoveNode(1) = %v, want nil", got)
	}
}

// TestOverlayRejects pins the error cases: self-loops, out-of-range
// endpoints, duplicate edges.
func TestOverlayRejects(t *testing.T) {
	o := NewOverlay(StreamedRing(6))
	if err := o.AddEdge(2, 2); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self-loop: %v", err)
	}
	if err := o.AddEdge(0, 6); !errors.Is(err, ErrVertexRange) {
		t.Errorf("out of range: %v", err)
	}
	if err := o.AddEdge(0, 1); !errors.Is(err, ErrParallelEdge) {
		t.Errorf("duplicate ring edge: %v", err)
	}
	if o.HasEdge(-1, 0) || o.HasEdge(0, 0) {
		t.Error("HasEdge accepted junk endpoints")
	}
}

// TestOverlayCompact checks that compacting a published view folds the
// patches into a fresh CSR with the structure at publication — even
// after the overlay mutated further — and that a fresh overlay over
// that CSR starts with no patches and stays usable.
func TestOverlayCompact(t *testing.T) {
	o := NewOverlay(StreamedRing(12))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		u, v := rng.Intn(12), rng.Intn(12)
		if u != v && !o.HasEdge(u, v) {
			if err := o.AddEdge(u, v); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
		}
	}
	o.RemoveEdge(0, 1)
	nv := o.AddNode()
	if err := o.AddEdge(nv, 0); err != nil {
		t.Fatalf("AddEdge(new,0): %v", err)
	}
	want := o.Graph().Fingerprint()
	wantM := o.M()
	view := o.Publish()

	// Churn after publication must not reach the view's compaction.
	if len(o.RemoveNode(nv)) == 0 {
		t.Fatal("post-publish RemoveNode changed nothing")
	}
	if err := o.AddEdge(3, 9); err != nil && !errors.Is(err, ErrParallelEdge) {
		t.Fatalf("post-publish AddEdge: %v", err)
	}

	c, err := view.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if c.Graph().Fingerprint() != want || c.M() != wantM {
		t.Fatalf("compacted CSR m=%d does not match the published state (m=%d)", c.M(), wantM)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("compacted CSR invalid: %v", err)
	}
	o = NewOverlay(c)
	if o.Patched() != 0 || o.Graph().Fingerprint() != want {
		t.Fatalf("fresh overlay over the compacted CSR: patched=%d, structure changed", o.Patched())
	}
	// The fresh overlay keeps working on the new base.
	if err := o.AddEdge(2, 7); err != nil && !errors.Is(err, ErrParallelEdge) {
		t.Fatalf("post-compact AddEdge: %v", err)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("post-compact overlay invalid: %v", err)
	}
}

// TestOverlayRandomChurnDifferential runs a long random op stream on
// the overlay and a map-built reference in parallel, with periodic
// compaction onto a fresh overlay, and demands identical structure
// throughout.
func TestOverlayRandomChurnDifferential(t *testing.T) {
	const n = 40
	o := NewOverlay(StreamedGNP(n, 0.1, 7))
	ref := o.Graph()
	rng := rand.New(rand.NewSource(8))
	for step := 0; step < 2000; step++ {
		switch k := rng.Intn(100); {
		case k < 45:
			u, v := rng.Intn(o.N()), rng.Intn(o.N())
			if u == v || o.HasEdge(u, v) {
				continue
			}
			if err := o.AddEdge(u, v); err != nil {
				t.Fatalf("step %d AddEdge: %v", step, err)
			}
			ref.MustAddEdge(u, v)
		case k < 85:
			u, v := rng.Intn(o.N()), rng.Intn(o.N())
			got := o.RemoveEdge(u, v)
			want := ref.RemoveEdge(u, v)
			if got != want {
				t.Fatalf("step %d RemoveEdge(%d,%d) = %v, reference %v", step, u, v, got, want)
			}
		case k < 92:
			v := rng.Intn(o.N())
			former := o.RemoveNode(v)
			for _, w := range former {
				ref.RemoveEdge(v, w)
			}
		case k < 97:
			o.AddNode()
			g2 := New(ref.N() + 1)
			for _, e := range ref.Edges() {
				g2.MustAddEdge(e[0], e[1])
			}
			ref = g2
		default:
			c, err := o.Publish().Compact()
			if err != nil {
				t.Fatalf("step %d Compact: %v", step, err)
			}
			o = NewOverlay(c)
		}
		if step%250 == 0 {
			if err := o.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if o.Graph().Fingerprint() != ref.Fingerprint() {
				t.Fatalf("step %d: structure diverged", step)
			}
		}
	}
	if o.Graph().Fingerprint() != ref.Fingerprint() {
		t.Fatal("final structure diverged")
	}
}
