package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"listcolor/internal/bench"
	"listcolor/internal/coloring"
	"listcolor/internal/deltaplus1"
	"listcolor/internal/graph"
	"listcolor/internal/linial"
	"listcolor/internal/sim"
	"listcolor/internal/twosweep"
)

// solved is one solve's output and the exact counts it must repeat
// every time the same pool instance is solved.
type solved struct {
	colors []int
	counts map[string]int64
}

// solveSpec describes a solve workload: a pool of instances built in
// set-up and solved round-robin in the window.
type solveSpec struct {
	pool  int // instances in the pool
	nodes int // nodes colored per solve
	tailQ float64
	// solve runs one op on pool instance k; op is the op's span.
	solve func(k, op int, req int64) (solved, error)
	// corrupt turns a valid output of instance k into a wrong one.
	corrupt func(k int, colors []int)
	// validate is the solver's validator; audit the defect-audit kernel.
	validate func(k int, colors []int) error
	audit    func(k int, colors []int) coloring.AuditReport
}

func graphSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 + 17 }

// wideInstance is one solve-wide pool entry.
type wideInstance struct {
	g    *graph.Graph
	d    *graph.Digraph
	inst *coloring.Instance
}

// runSolveWide: Linial, then Fast-Two-Sweep (p = 2, ε = 1) on
// MinSlackOriented lists over random 4-regular graphs, round-robin over
// a pool of distinct-seed graphs.
func runSolveWide(o options, r *report) error {
	n, size := 1000, 24
	if o.toy {
		n, size = 300, 2
	}
	const p, eps, degree = 2, 1.0, 4
	space := 4*p*p + 24
	pool, err := setups(r, 3, func() ([]wideInstance, func(), error) {
		pool := make([]wideInstance, size)
		for i := range pool {
			rng := rand.New(rand.NewSource(graphSeed(o.seed, i)))
			g := graph.RandomRegular(n, degree, rng)
			d := graph.OrientByID(g)
			pool[i] = wideInstance{g, d, coloring.MinSlackOriented(d, space, p, eps, rng)}
		}
		return pool, nil, nil
	})
	if err != nil {
		return err
	}
	return solveLoop(o, r, solveSpec{
		pool: size, nodes: n, tailQ: 0.9,
		solve: func(k, op int, req int64) (solved, error) {
			in := pool[k]
			clk := newRoundClock(r.tr, req)
			cfg := sim.Config{OnRound: clk.hook()}
			sp := r.tr.begin("linial.ColorFromIDs", op, req)
			clk.parent = sp
			lin, err := linial.ColorFromIDs(in.g, cfg)
			r.tr.end(sp)
			if err != nil {
				return solved{}, fmt.Errorf("linial: %w", err)
			}
			sp = r.tr.begin("twosweep.SolveFast", op, req)
			clk.parent = sp
			tw, err := twosweep.SolveFast(in.d, in.inst, lin.Colors, lin.Palette, p, eps, cfg)
			r.tr.end(sp)
			if err != nil {
				return solved{}, fmt.Errorf("twosweep: %w", err)
			}
			st := sim.Seq(lin.Stats, tw.Stats)
			return solved{colors: tw.Colors, counts: map[string]int64{
				"sim.rounds": int64(st.Rounds), "sim.messages": int64(st.Messages), "sim.bits": int64(st.TotalBits),
			}}, nil
		},
		corrupt: func(k int, colors []int) {
			// A color outside the node's list violates the OLDC
			// whatever the defect budgets.
			colors[0] = space
		},
		validate: func(k int, colors []int) error { return coloring.ValidateOLDC(pool[k].d, pool[k].inst, colors) },
		audit: func(k int, colors []int) coloring.AuditReport {
			return coloring.AuditParallel(outTopology{pool[k].d}, pool[k].inst, colors, 0)
		},
	})
}

// outTopology presents a digraph's out-neighborhoods to the audit
// kernel, so the audit counts exactly the conflicts an oriented list
// defective coloring is charged for.
type outTopology struct{ d *graph.Digraph }

func (t outTopology) N() int                { return t.d.N() }
func (t outTopology) Neighbors(v int) []int { return t.d.Out(v) }

// deepInstance is one solve-deep pool entry.
type deepInstance struct {
	g    *graph.Graph
	inst *coloring.Instance
}

// runSolveDeep: the (deg+1)-list pipeline of Theorem 1.3 on random
// 16-regular graphs with lists from a space of 2Δ+1 colors.
func runSolveDeep(o options, r *report) error {
	n, size := 500, 24
	if o.toy {
		n, size = 200, 2
	}
	const degree = 16
	pool, err := setups(r, 3, func() ([]deepInstance, func(), error) {
		pool := make([]deepInstance, size)
		for i := range pool {
			rng := rand.New(rand.NewSource(graphSeed(o.seed, i)))
			g := graph.RandomRegular(n, degree, rng)
			pool[i] = deepInstance{g, coloring.DegreePlusOne(g, 2*degree+1, rng)}
		}
		return pool, nil, nil
	})
	if err != nil {
		return err
	}
	return solveLoop(o, r, solveSpec{
		pool: size, nodes: n, tailQ: 0.9,
		solve: func(k, op int, req int64) (solved, error) {
			in := pool[k]
			sp := r.tr.begin("deltaplus1.Solve", op, req)
			clk := newRoundClock(r.tr, req)
			clk.parent = sp
			// The span tree is the solver's own account of its
			// composition; it is cheap and always collected, so the
			// exact counts come from untraced runs too.
			cfg := sim.Config{OnRound: clk.hook(), Span: sim.NewSpan("deltaplus1")}
			res, err := deltaplus1.Solve(in.g, in.inst, cfg)
			r.tr.end(sp)
			if err != nil {
				return solved{}, err
			}
			c := map[string]int64{
				"sim.rounds": int64(res.Stats.Rounds), "sim.messages": int64(res.Stats.Messages), "sim.bits": int64(res.Stats.TotalBits),
				"deltaplus1.oldc_calls": int64(res.OLDCCalls), "deltaplus1.scales": int64(res.Scales),
			}
			for k, v := range spanRounds(cfg.Span) {
				c[k] = v
			}
			return solved{colors: res.Colors, counts: c}, nil
		},
		corrupt: func(k int, colors []int) {
			u := pool[k].g.Neighbors(0)[0]
			colors[0] = colors[u]
		},
		validate: func(k int, colors []int) error { return coloring.ValidateProperList(pool[k].g, pool[k].inst, colors) },
		audit: func(k int, colors []int) coloring.AuditReport {
			return coloring.AuditParallel(pool[k].g, pool[k].inst, colors, 0)
		},
	})
}

// spanRounds sums the rounds of deltaplus1's composition tree by step:
// the Linial bootstrap, the defective splits and the class solves.
func spanRounds(root *sim.Span) map[string]int64 {
	out := map[string]int64{"deltaplus1.bootstrap_rounds": 0, "deltaplus1.split_rounds": 0, "deltaplus1.class_rounds": 0}
	for _, c := range root.Children {
		if strings.HasPrefix(c.Label, "Linial bootstrap") {
			out["deltaplus1.bootstrap_rounds"] += int64(c.Stats.Rounds)
			continue
		}
		for _, s := range c.Children {
			switch {
			case strings.HasPrefix(s.Label, "defective split"):
				out["deltaplus1.split_rounds"] += int64(s.Stats.Rounds)
			case strings.HasPrefix(s.Label, "class "):
				out["deltaplus1.class_rounds"] += int64(s.Stats.Rounds)
			}
		}
	}
	return out
}

// roundClock turns Config.OnRound into sim.round spans. A round span
// runs from the previous round's callback of the same sim.Run to this
// one (a run's rounds count up from 1, so a callback that does not
// follow the previous one starts a new run); the first round of each
// run, which includes the run's set-up, stays in the calling layer's
// self time.
type roundClock struct {
	t         *tracer
	req       int64
	parent    int
	last      int64
	lastRound int
}

func newRoundClock(t *tracer, req int64) *roundClock {
	return &roundClock{t: t, req: req, parent: -1}
}

// hook returns the OnRound callback, nil when tracing is off.
func (c *roundClock) hook() func(sim.RoundStats) {
	if c.t == nil {
		return nil
	}
	return func(rs sim.RoundStats) {
		now := c.t.now()
		if rs.Round == c.lastRound+1 && c.lastRound > 0 {
			c.t.add("sim.round", c.parent, c.req, c.last, now)
		}
		c.last, c.lastRound = now, rs.Round
	}
}

// solveLoop times solves round-robin over the pool for the window, then
// validates every output and checks the exact counts.
func solveLoop(o options, r *report, spec solveSpec) error {
	type done struct {
		k   int
		out solved
	}
	var lat []float64
	var outs []done
	w := openWindow()
	deadline := w.start.Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		k := i % spec.pool
		req := int64(i)
		op := r.tr.begin("op", -1, req)
		start := time.Now()
		out, err := spec.solve(k, op, req)
		lat = append(lat, msSince(start))
		r.tr.end(op)
		r.attempted++
		if err != nil {
			r.opFailed("solve %d (pool %d): %v", i, k, err)
			continue
		}
		outs = append(outs, done{k, out})
	}
	w.close()
	peak := float64(bench.PeakRSSBytes()) / (1 << 20)

	ops := len(lat)
	r.latency("op", lat, spec.tailQ)
	r.note("throughput_per_s %.1f nodes colored per second", float64(ops*spec.nodes)/w.wall)
	w.report(r, ops)
	r.e2e("peak_rss_mb", "MB", peak)

	if o.corrupt && len(outs) > 0 {
		spec.corrupt(outs[0].k, outs[0].out.colors)
	}
	// The gate: every output valid, and every repeat of a pool
	// instance identical to its first solve, counts included.
	first := map[int]solved{}
	var validate, audit []float64
	for i, d := range outs {
		sp := r.tr.begin("coloring.validate", -1, int64(i))
		start := time.Now()
		verr := spec.validate(d.k, d.out.colors)
		validate = append(validate, msSince(start))
		r.tr.end(sp)
		sp = r.tr.begin("coloring.audit", -1, int64(i))
		start = time.Now()
		rep := spec.audit(d.k, d.out.colors)
		audit = append(audit, msSince(start))
		r.tr.end(sp)
		switch {
		case verr != nil:
			r.opFailed("solve %d (pool %d): invalid coloring: %v", i, d.k, verr)
		case rep.Err() != nil:
			r.opFailed("solve %d (pool %d): audit: %v", i, d.k, rep.Err())
		}
		f, seen := first[d.k]
		if !seen {
			first[d.k] = d.out
			continue
		}
		if !reflect.DeepEqual(f.counts, d.out.counts) || !reflect.DeepEqual(f.colors, d.out.colors) {
			r.fail("solve %d (pool %d) differs from the first solve of the same instance", i, d.k)
		}
	}
	if len(first) < spec.pool {
		r.fail("window solved %d of %d pool instances; exact counts need one full pass", len(first), spec.pool)
	}
	r.layer("coloring.validate_ms", "ms", median(validate))
	r.layer("coloring.audit_ms", "ms", median(audit))
	totals := map[string]int64{}
	for _, f := range first {
		for k, v := range f.counts {
			totals[k] += v
		}
	}
	for _, name := range exactCounts {
		r.layer(name, "count", float64(totals[name]))
	}
	r.note("exact counts over one pass of the %d-instance pool: %v", spec.pool, totals)
	solveLayers(r)
	return nil
}
