package coloring

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"listcolor/internal/graph"
)

// SampleColors returns k distinct colors from [0, space), sorted.
func SampleColors(space, k int, rng *rand.Rand) []int {
	if k > space {
		panic(fmt.Sprintf("coloring: cannot sample %d distinct colors from space %d", k, space))
	}
	if space <= 4*k {
		// Copy the k kept colors out, so the list does not pin the
		// whole space-sized permutation for as long as it lives.
		out := append([]int(nil), rng.Perm(space)[:k]...)
		sort.Ints(out)
		return out
	}
	seen := make(map[int]struct{}, k)
	for len(seen) < k {
		seen[rng.Intn(space)] = struct{}{}
	}
	out := make([]int, 0, k)
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// distributeBudget fills defects (aligned with a list of length k) so
// that Σ(d+1) = budget exactly, distributing the excess budget-k
// uniformly at random. budget must be ≥ k.
func distributeBudget(k, budget int, rng *rand.Rand) []int {
	if budget < k {
		panic(fmt.Sprintf("coloring: budget %d below list size %d", budget, k))
	}
	d := make([]int, k)
	for extra := budget - k; extra > 0; extra-- {
		d[rng.Intn(k)]++
	}
	return d
}

// Uniform returns an instance where every node gets listSize random
// distinct colors from [0, space), all with the same defect.
func Uniform(n, space, listSize, defect int, rng *rand.Rand) *Instance {
	in := &Instance{
		Lists:   make([][]int, n),
		Defects: make([][]int, n),
		Space:   space,
	}
	for v := 0; v < n; v++ {
		in.Lists[v] = SampleColors(space, listSize, rng)
		in.Defects[v] = make([]int, listSize)
		for i := range in.Defects[v] {
			in.Defects[v][i] = defect
		}
	}
	return in
}

// DegreePlusOne returns the (deg+1)-list coloring instance of
// Theorem 1.3: node v gets deg(v)+1 random distinct colors from
// [0, space) and all defects are zero. space must be > Δ(G). Every
// node's defects are a prefix of one shared zero array, as in
// FullPalette; nothing writes into it, and each prefix's capacity is
// its length, so an append copies instead of writing into the array.
func DegreePlusOne(g *graph.Graph, space int, rng *rand.Rand) *Instance {
	maxDeg := g.RawMaxDegree()
	if space <= maxDeg {
		panic(fmt.Sprintf("coloring: space %d too small for Δ=%d", space, maxDeg))
	}
	n := g.N()
	in := &Instance{Lists: make([][]int, n), Defects: make([][]int, n), Space: space}
	zero := make([]int, maxDeg+1)
	for v := 0; v < n; v++ {
		k := g.Degree(v) + 1
		in.Lists[v] = SampleColors(space, k, rng)
		in.Defects[v] = zero[:k:k]
	}
	return in
}

// MinSlackOriented returns an adversarially tight OLDC instance for
// Theorem 1.1 with parameter p and ε: every node gets a list of size
// p² and a defect budget of exactly
// max(p², ⌊(1+ε)·p·β_v⌋ + 1), the smallest value satisfying the
// theorem's condition, distributed randomly over the colors.
func MinSlackOriented(d *graph.Digraph, space, p int, eps float64, rng *rand.Rand) *Instance {
	n := d.N()
	listSize := p * p
	if listSize > space {
		panic(fmt.Sprintf("coloring: p²=%d exceeds color space %d", listSize, space))
	}
	in := &Instance{Lists: make([][]int, n), Defects: make([][]int, n), Space: space}
	for v := 0; v < n; v++ {
		budget := int((1+eps)*float64(p)*float64(d.Beta(v))) + 1
		if budget < listSize {
			budget = listSize
		}
		in.Lists[v] = SampleColors(space, listSize, rng)
		in.Defects[v] = distributeBudget(listSize, budget, rng)
	}
	return in
}

// WithSlack returns a list defective coloring instance with slack
// (just above) S at every node: list sizes are chosen as
// min(space, max(1, ⌈S·deg(v)⌉+1)) capped at space, and the defect
// budget is ⌊S·deg(v)⌋ + 1 (at least the list size).
func WithSlack(g *graph.Graph, space int, s float64, rng *rand.Rand) *Instance {
	return withBudgets(g.N(), space, rng, func(v int) int {
		return int(s*float64(g.Degree(v))) + 1
	})
}

// WithOrientedSlack returns an OLDC instance whose slack mass at every
// node is just above S·outdeg(v): the defect budget is
// ⌈S·outdeg(v)⌉ + 1 distributed over a list of min(space, budget)
// random colors. This is the workload shape for Theorem 1.2
// (S = 3√C).
func WithOrientedSlack(d *graph.Digraph, space int, s float64, rng *rand.Rand) *Instance {
	return withBudgets(d.N(), space, rng, func(v int) int {
		return int(math.Ceil(s*float64(d.Outdeg(v)))) + 1
	})
}

// withBudgets returns an instance over n nodes in which node v, in id
// order, samples a list of budget(v) colors, clamped to [1, space], and
// spreads max(budget(v), list size) defect over it.
func withBudgets(n, space int, rng *rand.Rand, budget func(v int) int) *Instance {
	in := &Instance{Lists: make([][]int, n), Defects: make([][]int, n), Space: space}
	for v := 0; v < n; v++ {
		b := budget(v)
		k := max(min(b, space), 1)
		in.Lists[v] = SampleColors(space, k, rng)
		in.Defects[v] = distributeBudget(k, max(b, k), rng)
	}
	return in
}

// ThreeColor returns the list d-defective 3-coloring instance from the
// paper's discussion of [BHL+19]: every node has list {0,1,2} with
// uniform defect d. Feasible for the Two-Sweep algorithm whenever
// d > (2Δ-3)/3.
func ThreeColor(n, defect int) *Instance {
	in := &Instance{Lists: make([][]int, n), Defects: make([][]int, n), Space: 3}
	for v := 0; v < n; v++ {
		in.Lists[v] = []int{0, 1, 2}
		in.Defects[v] = []int{defect, defect, defect}
	}
	return in
}

// FullPalette returns the instance where every node has the whole
// palette [0, space) with uniform defect d: the coloring service's
// maintenance shape (feasible under any churn that keeps degrees below
// space·(d+1)) and, at d = 0, the proper-coloring instance of edge
// coloring and Luby. All nodes share one list slice and one defect
// slice; nothing writes into either.
func FullPalette(n, space, defect int) *Instance {
	list := make([]int, space)
	defects := make([]int, space)
	for c := range list {
		list[c], defects[c] = c, defect
	}
	in := &Instance{Lists: make([][]int, n), Defects: make([][]int, n), Space: space}
	for v := range in.Lists {
		in.Lists[v], in.Defects[v] = list, defects
	}
	return in
}

// Restrict returns a copy of the instance where node v's list is
// filtered by keep(v, i, x, d): color x at index i with defect d is
// retained iff keep returns true. Used by the recursive algorithms
// when shrinking lists (color space reduction, defect reduction).
func (in *Instance) Restrict(keep func(v, i, x, d int) bool) *Instance {
	out := &Instance{
		Lists:   make([][]int, in.N()),
		Defects: make([][]int, in.N()),
		Space:   in.Space,
	}
	for v := range in.Lists {
		for i, x := range in.Lists[v] {
			if keep(v, i, x, in.Defects[v][i]) {
				out.Lists[v] = append(out.Lists[v], x)
				out.Defects[v] = append(out.Defects[v], in.Defects[v][i])
			}
		}
	}
	return out
}

// MapDefects returns a copy of the instance with every defect d_v(x)
// replaced by f(v, x, d_v(x)); colors whose new defect is negative are
// dropped from the list (the paper's L'_v construction).
//
// The lists and defects are slices of two flat arrays, each capped at
// its length, so an append to one node's list copies it.
func (in *Instance) MapDefects(f func(v, x, d int) int) *Instance {
	out := &Instance{
		Lists:   make([][]int, in.N()),
		Defects: make([][]int, in.N()),
		Space:   in.Space,
	}
	size := 0
	for _, l := range in.Lists {
		size += len(l)
	}
	lists, defects := make([]int, 0, size), make([]int, 0, size)
	for v := range in.Lists {
		lo := len(lists)
		for i, x := range in.Lists[v] {
			if nd := f(v, x, in.Defects[v][i]); nd >= 0 {
				lists = append(lists, x)
				defects = append(defects, nd)
			}
		}
		hi := len(lists)
		out.Lists[v], out.Defects[v] = lists[lo:hi:hi], defects[lo:hi:hi]
	}
	return out
}
