package deltaplus1

import (
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// pinned is everything a refactor of the pipeline must keep: the run's
// statistics, scale and Theorem 1.2 call counts, a digest of the
// colors, and the span tree's rounds summed per step the way
// perfbench's spanRounds sums them (bootstrap children of the root;
// split and class children of each scale).
type pinned struct {
	stats                    sim.Result
	scales, calls            int
	digest                   uint64
	boot, split, class       int
	scaleSpans, classSpans   int
	rootChildren, otherSpans int
}

func pinOf(res Result, root *sim.Span) pinned {
	h := fnv.New64a()
	for _, c := range res.Colors {
		h.Write(strconv.AppendInt(nil, int64(c), 10))
		h.Write([]byte{','})
	}
	p := pinned{stats: res.Stats, scales: res.Scales, calls: res.OLDCCalls, digest: h.Sum64(), rootChildren: len(root.Children)}
	for _, c := range root.Children {
		switch {
		case strings.HasPrefix(c.Label, "Linial bootstrap"):
			p.boot += c.Stats.Rounds
		case strings.HasPrefix(c.Label, "scale "):
			p.scaleSpans++
			for _, s := range c.Children {
				switch {
				case strings.HasPrefix(s.Label, "defective split"):
					p.split += s.Stats.Rounds
				case strings.HasPrefix(s.Label, "class "):
					p.class += s.Stats.Rounds
					p.classSpans++
				default:
					p.otherSpans++
				}
				p.otherSpans += s.Count() - 1
			}
		default:
			p.otherSpans++
		}
	}
	return p
}

// TestSolvePinned pins the pipeline's exact output and span tree on
// four fixed shapes: perfbench solve-deep's (every class a singleton),
// a long ring whose classes hold many nodes, a CONGEST-capped run, and
// an edgeless graph (which the pipeline solves through the general
// class step, not a one-round shortcut).
func TestSolvePinned(t *testing.T) {
	cases := []struct {
		name  string
		build func(rng *rand.Rand) (*graph.Graph, *coloring.Instance)
		cfg   func(g *graph.Graph, inst *coloring.Instance) sim.Config
		want  pinned
	}{
		{
			name: "regular500x16-C33",
			build: func(rng *rand.Rand) (*graph.Graph, *coloring.Instance) {
				g := graph.RandomRegular(500, 16, rng)
				return g, coloring.DegreePlusOne(g, 33, rng)
			},
			want: pinned{stats: sim.Result{Rounds: 3005, Messages: 8000, TotalBits: 48000, MaxMessageBits: 9}, scales: 4, calls: 500, digest: 12693002117720470481,
				boot: 1, split: 4, class: 2500, scaleSpans: 4, classSpans: 500, rootChildren: 5},
		},
		{
			name: "ring4000-C3",
			build: func(rng *rand.Rand) (*graph.Graph, *coloring.Instance) {
				g := graph.Ring(4000)
				return g, coloring.DegreePlusOne(g, 3, rng)
			},
			want: pinned{stats: sim.Result{Rounds: 31, Messages: 24000, TotalBits: 168000, MaxMessageBits: 12}, scales: 2, calls: 9, digest: 13593342436371815189,
				boot: 2, split: 2, class: 18, scaleSpans: 2, classSpans: 9, rootChildren: 3},
		},
		{
			name: "regular120x6-congest",
			build: func(rng *rand.Rand) (*graph.Graph, *coloring.Instance) {
				g := graph.RandomRegular(120, 6, rng)
				return g, coloring.DegreePlusOne(g, 7, rng)
			},
			cfg: func(g *graph.Graph, inst *coloring.Instance) sim.Config {
				return sim.Config{BandwidthBits: 8 * (sim.BitsFor(g.N()*g.N()) + sim.BitsFor(inst.Space))}
			},
			want: pinned{stats: sim.Result{Rounds: 484, Messages: 720, TotalBits: 2160, MaxMessageBits: 7}, scales: 3, calls: 120, digest: 1127610523259068814,
				boot: 1, split: 3, class: 360, scaleSpans: 3, classSpans: 120, rootChildren: 4},
		},
		{
			name: "edgeless50-C3",
			build: func(rng *rand.Rand) (*graph.Graph, *coloring.Instance) {
				g := graph.New(50)
				return g, coloring.DegreePlusOne(g, 3, rng)
			},
			want: pinned{stats: sim.Result{Rounds: 17, Messages: 0, TotalBits: 0, MaxMessageBits: 6}, scales: 1, calls: 5, digest: 12041818781955772286,
				boot: 1, split: 1, class: 10, scaleSpans: 1, classSpans: 5, rootChildren: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, inst := tc.build(rand.New(rand.NewSource(1)))
			var cfg sim.Config
			if tc.cfg != nil {
				cfg = tc.cfg(g, inst)
			}
			cfg.Span = sim.NewSpan("deltaplus1")
			res, err := Solve(g, inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := coloring.ValidateProperList(g, inst, res.Colors); err != nil {
				t.Fatal(err)
			}
			if got := pinOf(res, cfg.Span); got != tc.want {
				t.Errorf("pinned values moved:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
