package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInduceDigraphBasics(t *testing.T) {
	g := Complete(5)
	d := OrientByID(g)
	keep := []int{1, 3, 4}
	sub := d.Induce(keep, new(Index), nil)
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("sub n=%d m=%d", sub.N(), sub.M())
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// Arc directions preserved: in the original, higher id → lower id.
	for i := 0; i < 3; i++ {
		for _, j := range sub.Out(i) {
			if keep[i] < keep[j] {
				t.Errorf("arc (%d,%d) flipped: orig %d → %d", i, j, keep[i], keep[j])
			}
		}
	}
	ref, _ := induceDigraphRef(orientByIDRef(g), keep)
	sameOrientation(t, "K5[1,3,4]", sub, ref)
	if !sub.byID {
		t.Error("an induced id orientation left the zero-copy form")
	}
}

func TestInduceDigraphQuick(t *testing.T) {
	// Property: the induced orientation has exactly the arcs between
	// kept vertices, in the original direction — for a random
	// orientation, which takes the non-id path.
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%20) + 5
		rng := rand.New(rand.NewSource(seed))
		g := GNP(n, 0.4, rng)
		d := OrientRandom(g, rng)
		keep := make([]int, 0, n/2)
		for v := 0; v < n; v += 2 {
			keep = append(keep, v)
		}
		sub := d.Oriented.Induce(keep, new(Index), nil)
		if sub.Validate() != nil {
			return false
		}
		// Every sub arc exists in the original, and every original arc
		// between kept vertices appears.
		arcs := 0
		for i := 0; i < sub.N(); i++ {
			for _, j := range sub.Out(i) {
				if !d.HasArc(keep[i], keep[j]) {
					return false
				}
				arcs++
			}
		}
		want := 0
		for _, v := range keep {
			for _, w := range d.Out(v) {
				if w%2 == 0 {
					want++
				}
			}
		}
		return arcs == want && int64(arcs) == sub.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInduceDigraphEmpty(t *testing.T) {
	d := OrientByID(Ring(4))
	if sub := d.Induce(nil, new(Index), nil); sub.N() != 0 || sub.M() != 0 {
		t.Error("empty induce not empty")
	}
}

// TestInduceRefusesUnsortedKeep: the dense index needs an ascending
// keep set; a descending pair, a repeat or an out-of-range vertex is
// refused, and the index is left clean for the next induce.
func TestInduceRefusesUnsortedKeep(t *testing.T) {
	c := CSRFromGraph(Complete(5))
	ix := new(Index)
	for _, keep := range [][]int{{3, 1}, {1, 1}, {0, 5}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("keep %v accepted", keep)
				}
			}()
			c.Induce(keep, ix, nil)
		}()
	}
	for v, p := range ix.pos {
		if p != 0 {
			t.Fatalf("index left pos[%d] = %d after a refusal", v, p)
		}
	}
}

func TestRemoveEdge(t *testing.T) {
	g := Ring(5)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("existing edge not removed")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("double removal reported success")
	}
	if g.M() != 4 || g.HasEdge(0, 1) {
		t.Errorf("after removal: m=%d", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
