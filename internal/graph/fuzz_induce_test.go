package graph

import (
	"fmt"
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
// must be refused without leaving the shared index dirty. Finally the
// builders write a run of keep sets, larger then smaller and the
// reverse, into one destination each (reusedDestinations).
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
		sub := c.Induce(keep, ix, nil)
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
			{"id split", OrientCSRByID(c, nil), orientByIDRef(g)},
			{"OrientByID", OrientByID(g).Oriented, orientByIDRef(g)},
			{"random", random.Oriented, orientRandomRef(g, rand.New(rand.NewSource(seed2)))},
			{"arcs", fromArcs.Oriented, orientRandomRef(g, rand.New(rand.NewSource(seed2)))},
		} {
			sameOrientation(t, tc.name, tc.o, tc.ref)
			refSub, _ := induceDigraphRef(tc.ref, keep)
			sameOrientation(t, tc.name+" induce", tc.o.Induce(keep, ix, nil), refSub)

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

		reusedDestinations(t, c, random.Oriented, keep, rng)

		if len(keep) >= 2 {
			bad := append([]int{keep[1], keep[0]}, keep[2:]...)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("unsorted keep %v accepted", bad)
					}
				}()
				c.Induce(bad, ix, nil)
			}()
			for v, p := range ix.pos {
				if p != 0 {
					t.Fatalf("refused induce left pos[%d] = %d", v, p)
				}
			}
		}
	})
}

// reusedDestinations induces a run of keep sets into one destination
// per builder: keep, a larger superset, a smaller subset, the superset
// again and keep again, so each destination is written larger then
// smaller and the reverse. Every result must pass Validate and equal a
// fresh build (a nil destination) row for row: CSR.Induce,
// OrientCSRByID of the induced graph, Oriented.Induce of the id and of
// the random orientation (both into one destination, alternating, so
// a random induce follows a by-id one that shared its CSR's columns),
// and Restrict.
func reusedDestinations(t *testing.T, c *CSR, random *Oriented, keep []int, rng *rand.Rand) {
	t.Helper()
	var larger, smaller []int
	for v, i := 0, 0; v < c.N(); v++ {
		in := i < len(keep) && keep[i] == v
		if in {
			i++
		}
		if in || rng.Intn(4) > 0 {
			larger = append(larger, v)
		}
		if in && rng.Intn(2) == 0 {
			smaller = append(smaller, v)
		}
	}
	byID, ix := OrientCSRByID(c, nil), new(Index)
	vals := make([]int, c.N())
	for v := range vals {
		vals[v] = rng.Intn(100)
	}
	var (
		induced    CSR
		idDst, dst Oriented
		restricted []int
	)
	for step, k := range [][]int{keep, larger, smaller, larger, keep} {
		what := fmt.Sprintf("step %d (%d of %d kept)", step, len(k), c.N())
		fresh := c.Induce(k, ix, nil)
		got := c.Induce(k, ix, &induced)
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: induce into a reused CSR: %v", what, err)
		}
		sameCSR(t, what+" induce", got, fresh)
		sameOriented(t, what+" OrientCSRByID", OrientCSRByID(got, &idDst), OrientCSRByID(fresh, nil))
		for _, o := range []struct {
			name string
			o    *Oriented
		}{{"id", byID}, {"random", random}} {
			got := o.o.Induce(k, ix, &dst)
			if err := got.CSR.Validate(); err != nil {
				t.Fatalf("%s: %s induce into a reused orientation: %v", what, o.name, err)
			}
			sameOriented(t, what+" "+o.name+" induce", got, o.o.Induce(k, ix, nil))
		}
		restricted = Restrict(vals, k, restricted)
		if want := Restrict(vals, k, nil); !equalInts(restricted, want) {
			t.Fatalf("%s: Restrict into a reused slice = %v, fresh %v", what, restricted, want)
		}
	}
}

// sameCSR fails t unless a and b have the same rows.
func sameCSR(t *testing.T, what string, a, b *CSR) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("%s: n=%d m=%d, fresh n=%d m=%d", what, a.N(), a.M(), b.N(), b.M())
	}
	for v := 0; v < b.N(); v++ {
		if !equalInts(a.Row(v), b.Row(v)) {
			t.Fatalf("%s: row %d = %v, fresh %v", what, v, a.Row(v), b.Row(v))
		}
	}
}

// sameOriented fails t unless a and b have the same rows, Out and In.
func sameOriented(t *testing.T, what string, a, b *Oriented) {
	t.Helper()
	sameCSR(t, what, a.CSR, b.CSR)
	for v := 0; v < b.N(); v++ {
		if !equalInts(a.Out(v), b.Out(v)) || !equalInts(a.In(v), b.In(v)) {
			t.Fatalf("%s: vertex %d out/in %v/%v, fresh %v/%v", what, v, a.Out(v), a.In(v), b.Out(v), b.In(v))
		}
	}
}
