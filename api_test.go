package listcolor

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// These tests exercise the public façade end to end — they are the
// library's integration tests, touching every exported entry point on
// small but non-trivial inputs.

func TestPublicTwoSweepPipeline(t *testing.T) {
	g := NewRandomRegular(60, 6, 1)
	d := OrientByID(g)
	base, err := LinialColor(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := 3
	inst := NewMinSlackInstance(d, 100, p, 0, 2)
	res, err := TwoSweep(d, inst, base.Colors, base.Palette, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateOLDC(d, inst, res.Colors); err != nil {
		t.Error(err)
	}
	if res.Stats.Rounds != 2*base.Palette+1 {
		t.Errorf("Rounds = %d, want 2q+1 = %d", res.Stats.Rounds, 2*base.Palette+1)
	}
}

func TestPublicTwoSweepFast(t *testing.T) {
	g := NewGNP(80, 0.1, 3)
	d := OrientRandom(g, 4)
	base, err := LinialColor(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	inst := NewMinSlackInstance(d, 60, 2, 1.0, 5)
	res, err := TwoSweepFast(d, inst, base.Colors, base.Palette, 2, 1.0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateOLDC(d, inst, res.Colors); err != nil {
		t.Error(err)
	}
}

func TestPublicReduceColorSpace(t *testing.T) {
	g := NewGrid(6, 6)
	d := OrientByDegeneracy(g)
	base, err := LinialColor(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	space := 64
	inst := NewSlackInstance(g, space, 3*8.0*2, 6) // ample slack ≥ 3√64·β-ish
	res, err := ReduceColorSpace(d, inst, base.Colors, base.Palette, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateOLDC(d, inst, res.Colors); err != nil {
		t.Error(err)
	}
}

func TestPublicDegPlusOne(t *testing.T) {
	g := NewRandomRegular(50, 5, 7)
	inst := NewDegreePlusOneInstance(g, g.MaxDegree()+2, 8)
	res, err := ColorDegPlusOne(g, inst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateProperList(g, inst, res.Colors); err != nil {
		t.Error(err)
	}
	if res.Scales < 1 {
		t.Error("no scales recorded")
	}
}

func TestPublicNeighborhoodAndEdgeColor(t *testing.T) {
	g := NewRing(12)
	lg, edgeOf := LineGraph(g)
	if lg.N() != 12 || len(edgeOf) != 12 {
		t.Fatalf("line graph of C12 wrong: %v", lg)
	}
	inst := NewDegreePlusOneInstance(lg, lg.MaxDegree()+2, 9)
	res, err := SolveNeighborhood(lg, inst, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateProperList(lg, inst, res.Result.Colors); err != nil {
		t.Error(err)
	}

	edgeColors, palette, _, err := EdgeColor(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if palette != 2*g.MaxDegree()-1 {
		t.Errorf("palette = %d", palette)
	}
	if len(edgeColors) != g.M() {
		t.Errorf("%d edge colors for %d edges", len(edgeColors), g.M())
	}
}

func TestPublicBaselines(t *testing.T) {
	g := NewComplete(8)
	inst := NewDegreePlusOneInstance(g, 10, 10)
	greedy, err := GreedyList(g, inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateProperList(g, inst, greedy); err != nil {
		t.Error(err)
	}
	luby, _, err := LubyColor(g, 11, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(luby) != g.N() {
		t.Error("luby length wrong")
	}
}

func TestPublicDefectiveColor(t *testing.T) {
	g := NewHypercube(5)
	base, err := LinialColor(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DefectiveColor(g, base.Colors, base.Palette, 0.5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Palette <= 0 || len(res.Colors) != g.N() {
		t.Error("defective result malformed")
	}
}

func TestPublicHypergraphColoring(t *testing.T) {
	h := NewRandomHypergraph(12, 9, 3, 21)
	colors, palette, stats, err := HyperedgeColor(h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(colors) != h.M() || palette < 1 || stats.Rounds <= 0 {
		t.Errorf("malformed result: %d colors, palette %d, %d rounds", len(colors), palette, stats.Rounds)
	}
	// Manual hypergraph via the builder.
	h2 := NewHypergraph(4)
	if err := h2.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := h2.AddEdge(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	c2, _, _, err := HyperedgeColor(h2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c2[0] == c2[1] {
		t.Error("intersecting hyperedges share a color")
	}
}

func TestPublicGeneralAndBranch2(t *testing.T) {
	g := NewGNP(24, 0.3, 22)
	inst := NewDegreePlusOneInstance(g, g.MaxDegree()+2, 23)
	gen, err := SolveArbdefective(g, inst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateProperList(g, inst, gen.Result.Colors); err != nil {
		t.Error(err)
	}
	ring := NewRing(14)
	inst2 := NewSlackInstance(ring, 16, 1.4, 24)
	b2, err := SolveNeighborhoodBranch2(ring, inst2, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateListArbdefective(ring, inst2, b2.Result); err != nil {
		t.Error(err)
	}
}

func TestPublicWorkersDriver(t *testing.T) {
	g := NewRandomRegular(120, 6, 25)
	a, err := LinialColor(g, Config{Driver: Lockstep})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LinialColor(g, Config{Driver: Workers})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatal("Workers driver disagrees with Lockstep")
		}
	}
}

func TestPublicSerialization(t *testing.T) {
	g := NewGrid(3, 3)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Error("graph round trip changed shape")
	}
	inst := NewUniformInstance(5, 9, 3, 1, 26)
	buf.Reset()
	if err := WriteInstance(&buf, inst); err != nil {
		t.Fatal(err)
	}
	inst2, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if inst2.N() != inst.N() || inst2.Space != inst.Space {
		t.Error("instance round trip changed shape")
	}
}

func TestPublicGeometric(t *testing.T) {
	gg := NewRandomGeometric(50, 0.2, 27)
	if err := gg.Validate(); err != nil {
		t.Fatal(err)
	}
	if gg.Distance(0, 1) < 0 {
		t.Error("negative distance")
	}
	if theta := ThetaUpperBound(gg.Graph); theta < 1 && gg.M() > 0 {
		t.Errorf("theta bound %d", theta)
	}
}

func TestPublicInstanceHelpers(t *testing.T) {
	in := NewInstance(2, 5)
	in.Lists[0] = []int{0, 2}
	in.Defects[0] = []int{1, 0}
	in.Lists[1] = []int{1}
	in.Defects[1] = []int{0}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.SlackSum(0) != 3 {
		t.Errorf("SlackSum = %d", in.SlackSum(0))
	}
	u := NewUniformInstance(4, 10, 3, 1, 13)
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicQualityReport(t *testing.T) {
	g := NewRing(8)
	inst := NewDegreePlusOneInstance(g, 4, 30)
	colors, err := GreedyList(g, inst)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeColoring(g, inst, colors)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColorsUsed < 2 || rep.Space != 4 {
		t.Errorf("report malformed: %+v", rep)
	}
	if rep.Format() == "" {
		t.Error("empty report format")
	}
}

func TestPublicDurableService(t *testing.T) {
	dir := t.TempDir()
	base := NewStreamedRing(64)
	inst := NewInstance(64, 6)
	full := []int{0, 1, 2, 3, 4, 5}
	zeros := make([]int, 6)
	for v := 0; v < 64; v++ {
		inst.Lists[v] = full
		inst.Defects[v] = zeros
	}
	svc, err := NewColorService(base, inst, nil, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mode, err := ParseWALSyncMode("batch")
	if err != nil || mode != WALSyncBatch {
		t.Fatalf("ParseWALSyncMode = %v, %v", mode, err)
	}
	d, err := NewDurableColorService(svc, DurableServiceOptions{Dir: dir, Sync: mode})
	if err != nil {
		t.Fatal(err)
	}
	in := NewServiceIngest(d.ApplyBatch, 8)
	h := &ServiceHealth{}
	h.SetReady()
	handler := NewServiceHandlerWithOptions(svc, ServiceHandlerOptions{Ingest: in, Health: h, Durable: d})
	if handler == nil {
		t.Fatal("nil handler")
	}
	if _, err := in.Submit(context.Background(), []ServiceOp{{Action: OpAddEdge, U: 3, V: 30}}); err != nil {
		t.Fatal(err)
	}
	if err := in.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, info, err := OpenDurableColorService(ServiceOptions{}, DurableServiceOptions{Dir: dir, Sync: mode})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info.Version != 1 || info.ReplayedBatches != 0 {
		t.Fatalf("recovery info: %+v", info)
	}
	if !d2.Service().HasEdge(3, 30) {
		t.Fatal("recovered state lost the applied edge")
	}
	if err := d2.Service().ValidateState(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicServiceChaos(t *testing.T) {
	rep, err := RunServiceChaos(ServiceChaosConfig{Seed: 2, Points: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 || rep.Points != 4 {
		t.Fatalf("chaos report: %+v", rep)
	}
}

// TestSpanRootsRecordTotals pins the span contract of every solver
// that takes a Config: the caller's root carries the run's total.
// Composed solvers record their steps under the root and sub-solvers
// record nothing at the top level; the Lemma A.1 pipelines (Theorem
// 1.3's and Theorem 1.5's) put their bootstrap and one span per scale
// directly under the root. Leaf solvers record no children. A run
// without a span returns the same statistics.
func TestSpanRootsRecordTotals(t *testing.T) {
	g := NewRandomRegular(60, 4, 1)
	d := OrientByID(g)
	base, err := LinialColor(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	degInst := NewDegreePlusOneInstance(g, g.MaxDegree()+1, 2)
	// On a long ring the Lemma A.1 classes hold many nodes each.
	ring := NewRing(3000)
	ringInst := NewDegreePlusOneInstance(ring, 3, 6)
	arbInst := NewSlackInstance(ring, 5, 1, 3)
	const (
		leaf     = iota // no child spans
		composed        // child spans of its steps
		pipeline        // a Lemma A.1 pipeline: bootstrap, then scales
	)
	cases := []struct {
		name string
		kind int
		run  func(cfg Config) (Stats, error)
	}{
		{"linial", leaf, func(cfg Config) (Stats, error) {
			res, err := LinialColor(g, cfg)
			return res.Stats, err
		}},
		{"defective", leaf, func(cfg Config) (Stats, error) {
			res, err := DefectiveColor(g, base.Colors, base.Palette, 0.25, cfg)
			return res.Stats, err
		}},
		{"twosweep", leaf, func(cfg Config) (Stats, error) {
			res, err := TwoSweep(d, NewMinSlackInstance(d, 40, 2, 0, 4), base.Colors, base.Palette, 2, cfg)
			return res.Stats, err
		}},
		{"luby", leaf, func(cfg Config) (Stats, error) {
			_, stats, err := LubyColor(g, 1, cfg)
			return stats, err
		}},
		{"degplus1", pipeline, func(cfg Config) (Stats, error) {
			res, err := ColorDegPlusOne(g, degInst, cfg)
			return res.Stats, err
		}},
		{"nbhood", pipeline, func(cfg Config) (Stats, error) {
			res, err := SolveNeighborhood(ring, ringInst, 2, cfg)
			return res.Stats, err
		}},
		{"arbdefective", pipeline, func(cfg Config) (Stats, error) {
			res, err := SolveArbdefective(ring, arbInst, cfg)
			return res.Stats, err
		}},
		{"nbhood-branch2", pipeline, func(cfg Config) (Stats, error) {
			res, err := SolveNeighborhoodBranch2(ring, arbInst, 2, cfg)
			return res.Stats, err
		}},
		{"edgecolor", pipeline, func(cfg Config) (Stats, error) {
			_, _, stats, err := EdgeColor(NewRing(12), cfg)
			return stats, err
		}},
		{"twosweep-fast", composed, func(cfg Config) (Stats, error) {
			res, err := TwoSweepFast(d, NewMinSlackInstance(d, 40, 2, 1, 4), base.Colors, base.Palette, 2, 1, cfg)
			return res.Stats, err
		}},
		{"csr", composed, func(cfg Config) (Stats, error) {
			res, err := ReduceColorSpace(d, NewSlackInstance(g, 64, 3*8*2, 5), base.Colors, base.Palette, cfg)
			return res.Stats, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := NewSpan(tc.name)
			stats, err := tc.run(Config{Span: root})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Rounds == 0 || root.Stats != stats {
				t.Errorf("root span stats %+v, run returned %+v", root.Stats, stats)
			}
			// Labels are built only under a span; skipping them must
			// not skip any work.
			if bare, err := tc.run(Config{}); err != nil || bare != stats {
				t.Errorf("span-free run returned %+v (err %v), spanned run %+v", bare, err, stats)
			}
			switch {
			case tc.kind == leaf && len(root.Children) != 0:
				t.Fatalf("leaf solver recorded %d child spans", len(root.Children))
			case tc.kind != leaf && len(root.Children) == 0:
				t.Fatal("no child spans recorded")
			case tc.kind != pipeline:
				return
			}
			scales := 0
			for i, c := range root.Children {
				switch {
				case i == 0 && strings.HasPrefix(c.Label, "Linial bootstrap"):
				case strings.HasPrefix(c.Label, "scale "):
					scales++
				default:
					t.Errorf("unexpected top-level span %q", c.Label)
				}
			}
			if scales == 0 {
				t.Error("no scale spans under the root")
			}
		})
	}
}
