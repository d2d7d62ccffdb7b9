// Package coloring defines the list defective coloring problem family
// from the paper and validators for every variant:
//
//   - List defective coloring (LDC): node v gets list L_v ⊆ [0,C) and
//     defect function d_v; it must pick x ∈ L_v with at most d_v(x)
//     NEIGHBORS of the same color.
//   - Oriented list defective coloring (OLDC): edge orientation is
//     input; at most d_v(x) OUT-neighbors of the same color.
//   - List arbdefective coloring: the orientation of monochromatic
//     edges is part of the OUTPUT; at most d_v(x) out-neighbors of the
//     same color under the produced orientation.
//
// Instances carry per-node sorted color lists with aligned defect
// slices. The package also provides the slack notion of Definition 1.1
// and instance generators used by tests and benchmarks.
package coloring

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"listcolor/internal/graph"
)

// ErrInvalidInstance wraps structural problems with an instance.
var ErrInvalidInstance = errors.New("coloring: invalid instance")

// ErrViolation wraps violations of a coloring's guarantee.
var ErrViolation = errors.New("coloring: constraint violated")

// Instance is a list defective coloring instance: for each node v,
// a sorted color list Lists[v] with Defects[v][i] = d_v(Lists[v][i]).
type Instance struct {
	// Lists[v] is v's color list, sorted ascending, colors in [0, Space).
	Lists [][]int
	// Defects[v] is aligned with Lists[v]; entries are ≥ 0.
	Defects [][]int
	// Space is the size C of the global color space.
	Space int
}

// N returns the number of nodes the instance covers.
func (in *Instance) N() int { return len(in.Lists) }

// ListSize returns |L_v|.
func (in *Instance) ListSize(v int) int { return len(in.Lists[v]) }

// MaxListSize returns Λ := max_v |L_v|.
func (in *Instance) MaxListSize() int {
	m := 0
	for _, l := range in.Lists {
		if len(l) > m {
			m = len(l)
		}
	}
	return m
}

// DefectOf returns d_v(x) and whether x ∈ L_v.
func (in *Instance) DefectOf(v, x int) (int, bool) {
	l := in.Lists[v]
	i := sort.SearchInts(l, x)
	if i < len(l) && l[i] == x {
		return in.Defects[v][i], true
	}
	return 0, false
}

// SlackSum returns Σ_{x∈L_v} (d_v(x)+1), the quantity all of the
// paper's slack conditions are stated in.
func (in *Instance) SlackSum(v int) int {
	s := 0
	for _, d := range in.Defects[v] {
		s += d + 1
	}
	return s
}

// BlockWeights sets w[i] = W_{v,i} = Σ_{x ∈ L_v ∩ [lo+i·size, lo+(i+1)·size)} (d_v(x)+1)
// for every block i < len(w): the slack masses of v's colors in the
// blocks of a color-space split (Lemmas 3.5 and 4.5), filled in one
// pass over v's list.
func (in *Instance) BlockWeights(v, lo, size int, w []int) {
	clear(w)
	for i, x := range in.Lists[v] {
		if x < lo {
			continue
		}
		blk := (x - lo) / size
		if blk >= len(w) {
			break // the list is sorted: every later color is past the last block
		}
		w[blk] += in.Defects[v][i] + 1
	}
}

// Slack returns the instance slack at v per Definition 1.1:
// SlackSum(v) / deg(v). For isolated nodes it returns SlackSum(v)
// (treating deg as 1) so the value stays meaningful.
func (in *Instance) Slack(g *graph.Graph, v int) float64 {
	deg := g.Degree(v)
	if deg == 0 {
		deg = 1
	}
	return float64(in.SlackSum(v)) / float64(deg)
}

// MinSlack returns min_v Slack(v), the S for which the instance is a
// P(S, C) member.
func (in *Instance) MinSlack(g *graph.Graph) float64 {
	if in.N() == 0 {
		return 0
	}
	minS := in.Slack(g, 0)
	for v := 1; v < in.N(); v++ {
		if s := in.Slack(g, v); s < minS {
			minS = s
		}
	}
	return minS
}

// Clone returns a copy that shares no storage with the receiver. A
// run of adjacent nodes with identical lists and defects — the shared
// full palette every node of a service instance starts with — is
// copied once, and the run's nodes share that copy, the same
// same-as-previous rule the service checkpoint uses. Writing through
// one node's list in the clone therefore reaches the rest of its run;
// callers replace a node's list instead of mutating it in place.
func (in *Instance) Clone() *Instance {
	out := &Instance{
		Lists:   make([][]int, len(in.Lists)),
		Defects: make([][]int, len(in.Defects)),
		Space:   in.Space,
	}
	for v := range in.Lists {
		if v > 0 && sameInts(in.Lists[v], in.Lists[v-1]) && sameInts(in.Defects[v], in.Defects[v-1]) {
			out.Lists[v], out.Defects[v] = out.Lists[v-1], out.Defects[v-1]
			continue
		}
		out.Lists[v] = append([]int(nil), in.Lists[v]...)
		out.Defects[v] = append([]int(nil), in.Defects[v]...)
	}
	return out
}

// sameInts is slices.Equal that answers in O(1) for two lists sharing
// one backing array and length, as a shared full palette's nodes do.
func sameInts(a, b []int) bool {
	if len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) {
		return true
	}
	return slices.Equal(a, b)
}

// Validate checks structural invariants: aligned slices, sorted
// duplicate-free lists, colors within [0, Space), non-negative defects.
func (in *Instance) Validate() error {
	if len(in.Lists) != len(in.Defects) {
		return fmt.Errorf("%w: %d lists vs %d defect rows", ErrInvalidInstance, len(in.Lists), len(in.Defects))
	}
	for v := range in.Lists {
		if len(in.Lists[v]) != len(in.Defects[v]) {
			return fmt.Errorf("%w: node %d has %d colors vs %d defects", ErrInvalidInstance, v, len(in.Lists[v]), len(in.Defects[v]))
		}
		prev := -1
		for i, x := range in.Lists[v] {
			if x < 0 || x >= in.Space {
				return fmt.Errorf("%w: node %d color %d outside [0,%d)", ErrInvalidInstance, v, x, in.Space)
			}
			if x <= prev {
				return fmt.Errorf("%w: node %d list not sorted/duplicate at %d", ErrInvalidInstance, v, x)
			}
			prev = x
			if in.Defects[v][i] < 0 {
				return fmt.Errorf("%w: node %d negative defect for color %d", ErrInvalidInstance, v, x)
			}
		}
	}
	return nil
}

// OrientedSlackOK reports whether the instance satisfies Theorem 1.1's
// condition Σ(d_v(x)+1) > (1+ε)·max{p, |L_v|/p}·β_v at every node of
// the oriented graph.
func (in *Instance) OrientedSlackOK(d *graph.Digraph, p int, eps float64) bool {
	for v := 0; v < in.N(); v++ {
		lOverP := float64(in.ListSize(v)) / float64(p)
		factor := float64(p)
		if lOverP > factor {
			factor = lOverP
		}
		need := (1 + eps) * factor * float64(d.Beta(v))
		if float64(in.SlackSum(v)) <= need {
			return false
		}
	}
	return true
}
