package adversary

import "listcolor/internal/graph"

// strategies.go builds plans from targeting strategies: who gets hit
// is itself a pure function of (graph, seed, parameters), so two runs
// of the same strategy on the same workload produce byte-identical
// plans.

// UniformCrash crash-stops a seeded ~rate fraction of all nodes; each
// selected node crashes at a seeded round in [start, start+spread]
// (spread 0 crashes them all in round start).
func UniformCrash(g *graph.Graph, seed int64, rate float64, start, spread int) Plan {
	p := Plan{Seed: seed}
	for v := 0; v < g.N(); v++ {
		draw := mix(seed, 0, v, 0)
		if float64(draw>>11)/float64(1<<53) >= rate {
			continue
		}
		r := start
		if spread > 0 {
			r += int(splitmix64(draw) % uint64(spread+1))
		}
		p.Events = append(p.Events, Event{Kind: CrashStop, Node: v, Start: r})
	}
	return p
}

// CrashRecoverWindows takes a seeded ~rate fraction of nodes down for
// the window [start, start+length-1] each, state preserved.
func CrashRecoverWindows(g *graph.Graph, seed int64, rate float64, start, length int) Plan {
	if length < 1 {
		length = 1
	}
	p := Plan{Seed: seed}
	for v := 0; v < g.N(); v++ {
		draw := mix(seed, 1, v, 0)
		if float64(draw>>11)/float64(1<<53) >= rate {
			continue
		}
		p.Events = append(p.Events, Event{Kind: CrashRecover, Node: v, Start: start, End: start + length - 1})
	}
	return p
}

// PartitionLinks kills a min-cut-ish edge set for rounds
// [start, end]: a BFS from node 0 grows one side to ⌈n/2⌉ nodes
// (continuing from the smallest unvisited node across components),
// and every edge crossing the resulting bisection goes down — a
// transient network partition along a frontier that is typically much
// smaller than a random edge sample of equal separating power.
func PartitionLinks(g *graph.Graph, start, end int) Plan {
	n := g.N()
	half := (n + 1) / 2
	side := make([]bool, n)
	count := 0
	queue := make([]int, 0, half)
	for s := 0; s < n && count < half; s++ {
		if side[s] {
			continue
		}
		side[s] = true
		count++
		queue = append(queue[:0], s)
		for len(queue) > 0 && count < half {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(v) {
				if side[u] || count >= half {
					continue
				}
				side[u] = true
				count++
				queue = append(queue, u)
			}
		}
	}
	var p Plan
	for _, e := range g.Edges() {
		if side[e[0]] != side[e[1]] {
			p.Events = append(p.Events, Event{Kind: LinkDown, From: e[0], To: e[1], Start: start, End: end})
		}
	}
	return p
}

// UniformCorrupt flips seeded bits in a ~rate fraction of every
// delivery on every edge during [start, end] (end 0 = forever).
func UniformCorrupt(seed int64, rate float64, start, end int) Plan {
	return Plan{Seed: seed, Events: []Event{
		{Kind: Corrupt, From: -1, To: -1, Start: start, End: end, Rate: rate},
	}}
}
