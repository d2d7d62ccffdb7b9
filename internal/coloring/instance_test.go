package coloring

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"listcolor/internal/graph"
)

func TestDefectOf(t *testing.T) {
	in := &Instance{
		Lists:   [][]int{{1, 3, 5}},
		Defects: [][]int{{0, 2, 1}},
		Space:   6,
	}
	if d, ok := in.DefectOf(0, 3); !ok || d != 2 {
		t.Errorf("DefectOf(0,3) = %d,%v; want 2,true", d, ok)
	}
	if _, ok := in.DefectOf(0, 2); ok {
		t.Error("DefectOf reported membership for absent color")
	}
	if in.SlackSum(0) != 6 {
		t.Errorf("SlackSum = %d, want 6", in.SlackSum(0))
	}
}

func TestValidateStructure(t *testing.T) {
	good := &Instance{Lists: [][]int{{0, 1}}, Defects: [][]int{{0, 0}}, Space: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	bad := []*Instance{
		{Lists: [][]int{{0, 1}}, Defects: [][]int{{0}}, Space: 2},     // misaligned
		{Lists: [][]int{{1, 0}}, Defects: [][]int{{0, 0}}, Space: 2},  // unsorted
		{Lists: [][]int{{0, 0}}, Defects: [][]int{{0, 0}}, Space: 2},  // duplicate
		{Lists: [][]int{{0, 2}}, Defects: [][]int{{0, 0}}, Space: 2},  // out of space
		{Lists: [][]int{{0, 1}}, Defects: [][]int{{0, -1}}, Space: 2}, // negative defect
		{Lists: [][]int{{0}}, Defects: [][]int{{0}, {1}}, Space: 2},   // row count
	}
	for i, in := range bad {
		if err := in.Validate(); !errors.Is(err, ErrInvalidInstance) {
			t.Errorf("bad instance %d: err = %v, want ErrInvalidInstance", i, err)
		}
	}
}

func TestSlackComputation(t *testing.T) {
	g := graph.Ring(4) // every degree 2
	in := &Instance{
		Lists:   [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}},
		Defects: [][]int{{1, 1, 1}, {0, 0, 0}, {2, 2, 2}, {1, 0, 0}},
		Space:   3,
	}
	// SlackSums: 6, 3, 9, 4 → slacks 3, 1.5, 4.5, 2.
	if s := in.Slack(g, 0); s != 3 {
		t.Errorf("Slack(0) = %v, want 3", s)
	}
	if s := in.MinSlack(g); s != 1.5 {
		t.Errorf("MinSlack = %v, want 1.5", s)
	}
}

func TestCloneDeep(t *testing.T) {
	in := Uniform(3, 10, 4, 1, rand.New(rand.NewSource(1)))
	c := in.Clone()
	c.Lists[0][0] = 99
	c.Defects[1][1] = 99
	if in.Lists[0][0] == 99 || in.Defects[1][1] == 99 {
		t.Error("Clone shares storage")
	}
}

func TestOrientedSlackOK(t *testing.T) {
	g := graph.Ring(6)
	d := graph.OrientByID(g)
	rng := rand.New(rand.NewSource(2))
	p := 2
	in := MinSlackOriented(d, 50, p, 0, rng)
	if !in.OrientedSlackOK(d, p, 0) {
		t.Error("MinSlackOriented instance does not satisfy its own slack condition")
	}
	// Shrinking every defect by the full budget must break the condition.
	smaller := in.MapDefects(func(v, x, dd int) int { return -1 })
	_ = smaller
	zero := in.MapDefects(func(v, x, dd int) int { return 0 })
	// With all-zero defects Σ(d+1) = p² = 4 which is ≤ p·β_v = 4 for β_v=2.
	if zero.OrientedSlackOK(d, p, 0) {
		t.Error("zero-defect instance should fail the strict slack condition")
	}
}

func TestRestrictAndMapDefects(t *testing.T) {
	in := &Instance{
		Lists:   [][]int{{0, 2, 4}, {1, 3}},
		Defects: [][]int{{1, 2, 3}, {0, 5}},
		Space:   6,
	}
	evens := in.Restrict(func(v, i, x, d int) bool { return x%2 == 0 })
	if evens.ListSize(0) != 3 || evens.ListSize(1) != 0 {
		t.Errorf("Restrict evens: sizes %d,%d", evens.ListSize(0), evens.ListSize(1))
	}
	dec := in.MapDefects(func(v, x, d int) int { return d - 2 })
	// Node 0: defects 1,2,3 → -1,0,1 → colors 2,4 survive.
	if dec.ListSize(0) != 2 {
		t.Errorf("MapDefects: node 0 size %d, want 2", dec.ListSize(0))
	}
	if d0, ok := dec.DefectOf(0, 2); !ok || d0 != 0 {
		t.Errorf("MapDefects: d(2) = %d,%v", d0, ok)
	}
	// Original untouched.
	if in.ListSize(0) != 3 {
		t.Error("MapDefects mutated receiver")
	}
}

func TestGeneratorsStructurallyValid(t *testing.T) {
	f := func(seed int64, rawN, rawC, rawK uint8) bool {
		n := int(rawN%20) + 2
		space := int(rawC%40) + 5
		k := int(rawK)%space + 1
		if k > space {
			k = space
		}
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.4, rng)
		instances := []*Instance{
			Uniform(n, space, k, 2, rng),
			DegreePlusOne(g, n+space, rng),
			WithSlack(g, space+n, 2.5, rng),
			ThreeColor(n, 4),
			FullPalette(n, space, 2),
		}
		for _, in := range instances {
			if in.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWithSlackMeetsSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomRegular(20, 4, rng)
	in := WithSlack(g, 200, 3, rng)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := in.MinSlack(g); s <= 3 {
		t.Errorf("MinSlack = %v, want > 3", s)
	}
}

// TestFullPalette: every node gets [0, space) at the uniform defect,
// through one shared list and one shared defect slice.
func TestFullPalette(t *testing.T) {
	in := FullPalette(10, 5, 1)
	if in.N() != 10 || in.Space != 5 {
		t.Fatalf("instance = n %d, space %d", in.N(), in.Space)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if d, ok := in.DefectOf(3, 4); !ok || d != 1 {
		t.Fatalf("DefectOf = (%d, %v)", d, ok)
	}
	if &in.Lists[0][0] != &in.Lists[9][0] || &in.Defects[0][0] != &in.Defects[9][0] {
		t.Fatal("nodes do not share one list and one defect slice")
	}
}

func TestDegreePlusOneShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Grid(4, 4)
	in := DegreePlusOne(g, 3*g.MaxDegree(), rng)
	for v := 0; v < g.N(); v++ {
		if in.ListSize(v) != g.Degree(v)+1 {
			t.Errorf("node %d list size %d, want deg+1=%d", v, in.ListSize(v), g.Degree(v)+1)
		}
		for _, d := range in.Defects[v] {
			if d != 0 {
				t.Error("DegreePlusOne must have zero defects")
			}
		}
	}
}

func TestSampleColorsDistinctSorted(t *testing.T) {
	f := func(seed int64, rawC, rawK uint8) bool {
		space := int(rawC%100) + 1
		k := int(rawK) % (space + 1)
		rng := rand.New(rand.NewSource(seed))
		got := SampleColors(space, k, rng)
		if len(got) != k {
			return false
		}
		for i := range got {
			if got[i] < 0 || got[i] >= space {
				return false
			}
			if i > 0 && got[i] <= got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestSampleColorsHoldsOnlyItsList: a list drawn from a dense space
// (k ≥ space/4, the permutation path) must not pin the space-sized
// permutation it came from. (perfbench solve-deep keeps 24 instances
// of 500 such lists alive for a whole run.) The same seed must still
// draw the same colors as the permutation's first k entries.
func TestSampleColorsHoldsOnlyItsList(t *testing.T) {
	const space, k = 33, 17
	got := SampleColors(space, k, rand.New(rand.NewSource(5)))
	if cap(got) >= space {
		t.Errorf("cap %d for a %d-color list: the %d-entry permutation is retained", cap(got), k, space)
	}
	want := rand.New(rand.NewSource(5)).Perm(space)[:k]
	sort.Ints(want)
	if !slices.Equal(got, want) {
		t.Errorf("colors %v, want %v", got, want)
	}
}

func TestSampleColorsPanicsWhenInfeasible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SampleColors(3, 5) did not panic")
		}
	}()
	SampleColors(3, 5, rand.New(rand.NewSource(1)))
}

func TestMaxListSize(t *testing.T) {
	in := &Instance{Lists: [][]int{{0}, {0, 1, 2}, {0, 1}}, Defects: [][]int{{0}, {0, 0, 0}, {0, 0}}, Space: 3}
	if got := in.MaxListSize(); got != 3 {
		t.Errorf("MaxListSize = %d, want 3", got)
	}
}

// TestCloneSharesIdenticalRuns: Clone copies each run of adjacent
// nodes with identical lists and defects once and shares that copy
// across the run; distinct lists, and equal lists with different
// budgets, get their own copies. Nothing the source does afterwards —
// replacing an outer entry or writing into a list — reaches the clone.
func TestCloneSharesIdenticalRuns(t *testing.T) {
	a, za := []int{0, 1, 2}, []int{0, 0, 0}
	in := &Instance{
		Space:   4,
		Lists:   [][]int{a, a, {0, 1, 2}, {1, 3}, {0, 1, 2}, {0, 1, 2}},
		Defects: [][]int{za, za, {0, 0, 0}, {0, 1}, {0, 0, 0}, {1, 0, 0}},
	}
	c := in.Clone()
	if !reflect.DeepEqual(c, in) {
		t.Fatalf("clone %+v differs from source %+v", c, in)
	}
	same := func(x, y []int) bool { return &x[0] == &y[0] }
	if !same(c.Lists[0], c.Lists[1]) || !same(c.Lists[1], c.Lists[2]) || !same(c.Defects[0], c.Defects[2]) {
		t.Fatal("run 0..2 of identical lists does not share one copy")
	}
	if same(c.Lists[0], a) || same(c.Defects[0], za) {
		t.Fatal("clone shares storage with the source")
	}
	if same(c.Lists[3], c.Lists[2]) || same(c.Lists[4], c.Lists[0]) || same(c.Lists[4], c.Lists[3]) {
		t.Fatal("distinct or non-adjacent lists share a copy")
	}
	if same(c.Lists[5], c.Lists[4]) || same(c.Defects[5], c.Defects[4]) {
		t.Fatal("equal lists with different budgets share a copy")
	}

	want := &Instance{Space: 4,
		Lists:   [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {1, 3}, {0, 1, 2}, {0, 1, 2}},
		Defects: [][]int{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}, {0, 1}, {0, 0, 0}, {1, 0, 0}},
	}
	a[0], za[1] = 3, 7
	in.Lists[2][1] = 3
	in.Lists[3] = []int{2}
	in.Defects[4] = []int{9, 9, 9}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("source mutations reached the clone: %+v", c)
	}

	// All nodes on one shared palette: one shared copy, no alias of
	// the source's list or defects.
	full := FullPalette(5, 3, 1)
	fc := full.Clone()
	if !reflect.DeepEqual(fc, full) {
		t.Fatalf("clone %+v differs from source %+v", fc, full)
	}
	for v := 1; v < fc.N(); v++ {
		if !same(fc.Lists[v], fc.Lists[0]) || !same(fc.Defects[v], fc.Defects[0]) {
			t.Fatalf("node %d of an all-shared instance has its own copy", v)
		}
	}
	if same(fc.Lists[0], full.Lists[0]) || same(fc.Defects[0], full.Defects[0]) {
		t.Fatal("clone of an all-shared instance aliases the source")
	}
}
