package graph

import (
	"math/rand"
	"testing"
)

// FuzzInduceCSR differentially checks the solve path's builders
// against the per-vertex-list references in induce_ref_test.go. For a
// random graph and a keep set (empty, one vertex, an ascending subset,
// every vertex), CSR.Induce must give the reference's rows and orig
// map; OrientCSRByID, OrientByID, OrientRandom and OrientArbitraryFrom
// must give the reference's Out and In on every row; Oriented.Induce
// must match the reference Digraph induce for the id orientation and
// for a random one; and Oriented.Filter must match the reference edge
// filter plus the reference arc-list orientation. A keep set out of ascending order
// must be refused without leaving the shared index dirty.
func FuzzInduceCSR(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(40), uint8(0))
	f.Add(int64(2), uint8(1), uint8(0), uint8(1))
	f.Add(int64(3), uint8(30), uint8(90), uint8(2))
	f.Add(int64(4), uint8(20), uint8(25), uint8(3))
	f.Add(int64(5), uint8(0), uint8(50), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rawN, rawP, mode uint8) {
		n := int(rawN % 48)
		rng := rand.New(rand.NewSource(seed))
		g := GNP(n, float64(rawP%101)/100, rng)
		var keep []int
		switch mode % 4 {
		case 0: // empty
		case 1:
			if n > 0 {
				keep = []int{rng.Intn(n)}
			}
		case 2:
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					keep = append(keep, v)
				}
			}
		case 3:
			keep = make([]int, n)
			for v := range keep {
				keep[v] = v
			}
		}
		c, ix := CSRFromGraph(g), new(Index)

		ref, orig := inducedSubgraphRef(g, keep)
		sub := c.Induce(keep, ix)
		if err := sub.Validate(); err != nil {
			t.Fatal(err)
		}
		if !equalInts(orig, keep) && len(keep) > 0 {
			t.Fatalf("reference orig %v != keep %v", orig, keep)
		}
		if sub.N() != ref.N() || sub.M() != int64(ref.M()) {
			t.Fatalf("induce: n=%d m=%d, reference n=%d m=%d", sub.N(), sub.M(), ref.N(), ref.M())
		}
		for i := 0; i < ref.N(); i++ {
			if !equalInts(sub.Row(i), ref.Neighbors(i)) {
				t.Fatalf("induce: row %d = %v, reference %v", i, sub.Row(i), ref.Neighbors(i))
			}
		}

		seed2 := rng.Int63()
		random := OrientRandom(g, rand.New(rand.NewSource(seed2)))
		var randomArcs [][2]int
		for u := 0; u < n; u++ {
			for _, v := range random.Out(u) {
				randomArcs = append(randomArcs, [2]int{u, v})
			}
		}
		fromArcs, err := OrientArbitraryFrom(g, randomArcs)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			o    *Oriented
			ref  *refDigraph
		}{
			{"id split", OrientCSRByID(c), orientByIDRef(g)},
			{"OrientByID", OrientByID(g).Oriented, orientByIDRef(g)},
			{"random", random.Oriented, orientRandomRef(g, rand.New(rand.NewSource(seed2)))},
			{"arcs", fromArcs.Oriented, orientRandomRef(g, rand.New(rand.NewSource(seed2)))},
		} {
			sameOrientation(t, tc.name, tc.o, tc.ref)
			refSub, _ := induceDigraphRef(tc.ref, keep)
			sameOrientation(t, tc.name+" induce", tc.o.Induce(keep, ix), refSub)

			third := func(u, v int) bool { return (u+v)%3 != 0 }
			var arcs [][2]int
			for u := 0; u < n; u++ {
				for _, v := range tc.ref.out[u] {
					if third(u, v) {
						arcs = append(arcs, [2]int{u, v})
					}
				}
			}
			refFilter, err := orientArbitraryFromRef(filterEdgesRef(g, third), arcs)
			if err != nil {
				t.Fatal(err)
			}
			sameOrientation(t, tc.name+" filter", tc.o.Filter(third), refFilter)
		}

		if len(keep) >= 2 {
			bad := append([]int{keep[1], keep[0]}, keep[2:]...)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("unsorted keep %v accepted", bad)
					}
				}()
				c.Induce(bad, ix)
			}()
			for v, p := range ix.pos {
				if p != 0 {
					t.Fatalf("refused induce left pos[%d] = %d", v, p)
				}
			}
		}
	})
}
