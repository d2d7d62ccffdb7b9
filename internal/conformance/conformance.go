// Package conformance is the repo's correctness net: one harness that
// runs every solver over a shared seeded workload matrix (graph family
// × orientation × instance generator × size) and asserts, per cell:
//
//   - driver equivalence — the lockstep and worker-pool simulator
//     drivers, the latter also routing through two receiver shards,
//     produce byte-identical colors, rounds and message-bit counts,
//     with and without fault injection;
//   - validator pass — the output satisfies the matching
//     internal/coloring validator AND the theorem's defect/round
//     guarantee, with the constant-factor headroom recorded
//     (internal/quality.GuaranteeCheck);
//   - metamorphic invariance — node-id relabeling and color-space
//     permutation preserve validity (and round counts / exact outputs,
//     where the algorithm pins them);
//   - differential agreement — on tiny instances the Two-Sweep
//     algorithms' feasibility matches the brute-force subset-search
//     baseline ([FK23a]/[MT20]-style exponential local computation).
//
// The same harness backs the `go test` suites (the heavy tier behind
// the `conformance` build tag) and the cmd/conform binary, so CI and
// humans share one matrix. See docs/TESTING.md.
package conformance

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/quality"
	"listcolor/internal/sim"
	"listcolor/internal/workload"
)

// Workload is one column of the matrix: a named, seeded graph family
// plus the orientation the oriented solvers run under.
type Workload struct {
	Name   string
	Family string          // internal/workload family name
	Params workload.Params // Seed is filled from Options at build time
	Orient string          // "id", "degeneracy" or "random"
	// Theta, when positive, is a known neighborhood-independence bound
	// of the family (line graphs, unit-disk graphs, rings); solvers
	// with NeedsTheta only run where it is set.
	Theta int
	// Tiny marks workloads small enough for the exponential
	// brute-force differential check.
	Tiny bool
	// Heavy marks workloads that only run in the heavy tier
	// (`go test -tags conformance` or cmd/conform -heavy).
	Heavy bool
}

// Env is a materialized workload: the generated graph and its
// orientation.
type Env struct {
	W     Workload
	G     *graph.Graph
	D     *graph.Digraph
	Theta int
	Seed  int64
}

// Materialize builds the workload's graph and orientation with the
// given base seed. The returned Env is shared read-only across the
// workload's solver cells (concurrently, under RunMatrix's parallel
// mode), so the graph is normalized here — later lazy Normalize calls
// become pure reads of the sorted flag.
func Materialize(w Workload, seed int64) (*Env, error) {
	p := w.Params
	p.Seed = seed ^ int64(hashString(w.Name))
	g, err := workload.Build(w.Family, p)
	if err != nil {
		return nil, fmt.Errorf("conformance: workload %s: %w", w.Name, err)
	}
	g.Normalize()
	var d *graph.Digraph
	switch w.Orient {
	case "", "id":
		d = graph.OrientByID(g)
	case "degeneracy":
		d = graph.OrientByDegeneracy(g)
	case "random":
		d = graph.OrientRandom(g, rand.New(rand.NewSource(p.Seed+1)))
	default:
		return nil, fmt.Errorf("conformance: workload %s: unknown orientation %q", w.Name, w.Orient)
	}
	return &Env{W: w, G: g, D: d, Theta: w.Theta, Seed: p.Seed}, nil
}

// Case is a fully prepared solver input on an Env. The harness owns
// every field, which is what lets it apply the metamorphic transforms
// (node relabeling, color-space permutation) generically.
type Case struct {
	G    *graph.Graph
	D    *graph.Digraph
	Inst *coloring.Instance
	// Base is a proper Q-coloring handed to solvers that take one
	// (bootstrapped once in Prepare, so reruns and transforms reuse
	// it); nil for solvers that bootstrap internally from ids.
	Base []int
	Q    int
	// P, Eps, Theta are solver parameters (sublist size, slack
	// parameter / defect fraction, neighborhood independence).
	P     int
	Eps   float64
	Theta int
	// Seed is a per-cell deterministic seed for solvers that need one
	// (Luby).
	Seed int64
}

// Output is what a solver run produced. Err is recorded, not fatal:
// driver equivalence compares outcomes including failures.
type Output struct {
	Colors []int
	Arcs   [][2]int // arbdefective solvers; nil otherwise
	Stats  sim.Result
	// Palette and Depth carry solver-specific extras the guarantee
	// checks need (final palette; recursion levels / scales).
	Palette int
	Depth   int
	Err     error
}

// Solver is one row of the matrix.
type Solver struct {
	Name string
	// Sequential solvers never touch the simulator: driver and fault
	// equivalence are skipped.
	Sequential bool
	// NeedsTheta restricts the solver to workloads with a known θ.
	NeedsTheta bool
	// MaxN skips workloads with more vertices (0 = unlimited), for
	// solvers whose round complexity makes big cells too slow.
	MaxN int
	// RelabelRounds / PermuteRounds assert that round counts are
	// invariant under node relabeling / color-space permutation.
	RelabelRounds bool
	PermuteRounds bool
	// Equivariant asserts colors map exactly under node relabeling.
	Equivariant bool
	// ColorPerm enables the color-space-permutation metamorphic check
	// (instance-driven solvers only).
	ColorPerm bool
	// Differential enables the brute-force cross-check on Tiny cells.
	Differential bool

	// Prepare builds the solver's instance and base coloring on the
	// env; rng is deterministic per cell.
	Prepare func(env *Env, rng *rand.Rand) (*Case, error)
	// Run executes the full pipeline under cfg.
	Run func(c *Case, cfg sim.Config) Output
	// Validate checks pure output validity (the matching
	// internal/coloring validator); used on reference and transformed
	// runs alike.
	Validate func(c *Case, out Output) error
	// Check returns the theorem-guarantee checks (bounds with
	// headroom) for a reference run.
	Check func(c *Case, out Output) []quality.GuaranteeCheck
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Fingerprint encodes an output as bytes: colors, arcs, the
// simulator's round/message/bit counters, and the error text. Two
// runs are considered equivalent exactly when their fingerprints are
// byte-identical.
func Fingerprint(out Output) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "colors=%v\narcs=%v\nrounds=%d messages=%d bits=%d maxmsg=%d\npalette=%d depth=%d\n",
		out.Colors, out.Arcs, out.Stats.Rounds, out.Stats.Messages, out.Stats.TotalBits,
		out.Stats.MaxMessageBits, out.Palette, out.Depth)
	if out.Err != nil {
		fmt.Fprintf(&b, "err=%v\n", out.Err)
	}
	return b.Bytes()
}

// relabelCase returns the case under the node relabeling v → perm[v]:
// the isomorphic graph, the arc-for-arc relabeled orientation, and
// row-permuted instance and base coloring.
func relabelCase(c *Case, perm []int) (*Case, error) {
	g2 := graph.Relabel(c.G, perm)
	var arcs [][2]int
	for v := 0; v < c.D.N(); v++ {
		for _, u := range c.D.Out(v) {
			arcs = append(arcs, [2]int{perm[v], perm[u]})
		}
	}
	d2, err := graph.OrientArbitraryFrom(g2, arcs)
	if err != nil {
		return nil, fmt.Errorf("conformance: relabeling orientation: %w", err)
	}
	out := &Case{G: g2, D: d2, Q: c.Q, P: c.P, Eps: c.Eps, Theta: c.Theta, Seed: c.Seed}
	if c.Inst != nil {
		in2 := &coloring.Instance{
			Lists:   make([][]int, c.Inst.N()),
			Defects: make([][]int, c.Inst.N()),
			Space:   c.Inst.Space,
		}
		for v := range c.Inst.Lists {
			in2.Lists[perm[v]] = append([]int(nil), c.Inst.Lists[v]...)
			in2.Defects[perm[v]] = append([]int(nil), c.Inst.Defects[v]...)
		}
		out.Inst = in2
	}
	if c.Base != nil {
		base2 := make([]int, len(c.Base))
		for v, col := range c.Base {
			base2[perm[v]] = col
		}
		out.Base = base2
	}
	return out, nil
}

// permuteColorsCase returns the case with the color space permuted by
// x → pi[x]: every list is mapped and re-sorted with its defects kept
// aligned. The graph, orientation and base coloring are untouched.
func permuteColorsCase(c *Case, pi []int) *Case {
	in2 := &coloring.Instance{
		Lists:   make([][]int, c.Inst.N()),
		Defects: make([][]int, c.Inst.N()),
		Space:   c.Inst.Space,
	}
	for v := range c.Inst.Lists {
		type pair struct{ x, d int }
		pairs := make([]pair, len(c.Inst.Lists[v]))
		for i, x := range c.Inst.Lists[v] {
			pairs[i] = pair{pi[x], c.Inst.Defects[v][i]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].x < pairs[b].x })
		for _, p := range pairs {
			in2.Lists[v] = append(in2.Lists[v], p.x)
			in2.Defects[v] = append(in2.Defects[v], p.d)
		}
	}
	return &Case{
		G: c.G, D: c.D, Inst: in2, Base: c.Base,
		Q: c.Q, P: c.P, Eps: c.Eps, Theta: c.Theta, Seed: c.Seed,
	}
}

// mapColors applies the color permutation to a coloring.
func mapColors(pi, colors []int) []int {
	out := make([]int, len(colors))
	for v, x := range colors {
		out[v] = pi[x]
	}
	return out
}
