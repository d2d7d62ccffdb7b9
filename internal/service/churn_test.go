package service

import (
	"math/rand"

	"listcolor/internal/graph"
)

// churnMirror tracks the topology a generated script produces, so op
// generation is deterministic and independent of any service state.
type churnMirror struct {
	n   int
	adj []map[int]bool
}

func newChurnMirror(base *graph.CSR) *churnMirror {
	m := &churnMirror{n: base.N(), adj: make([]map[int]bool, base.N())}
	for v := 0; v < base.N(); v++ {
		m.adj[v] = make(map[int]bool)
		for _, u := range base.Row(v) {
			m.adj[v][u] = true
		}
	}
	return m
}

// nextWithEdges scans deterministically from u for a node with at
// least one incident edge (-1 if the graph is empty).
func (m *churnMirror) nextWithEdges(u int) int {
	for d := 0; d < m.n; d++ {
		v := (u + d) % m.n
		if len(m.adj[v]) > 0 {
			return v
		}
	}
	return -1
}

// smallestNeighbor returns min(adj[u]) by deterministic scan (map
// iteration order must never leak into the script).
func (m *churnMirror) smallestNeighbor(u int) int {
	for d := 1; d < m.n; d++ {
		v := (u + d) % m.n
		if m.adj[u][v] {
			return v
		}
	}
	return -1
}

// churnScript generates a deterministic batched op stream: mostly
// spatially local edge churn (offsets ≤ 8), plus long-range edges,
// node add/remove, and set_list. The admission, checkpoint and
// recovery tests replay it against fresh services.
func churnScript(base *graph.CSR, batches, batchSize int, seed int64) [][]Op {
	rng := rand.New(rand.NewSource(seed))
	m := newChurnMirror(base)
	script := make([][]Op, 0, batches)
	for b := 0; b < batches; b++ {
		ops := make([]Op, 0, batchSize)
		for len(ops) < batchSize {
			switch r := rng.Intn(100); {
			case r < 50: // local add_edge
				u := rng.Intn(m.n)
				v := (u + 1 + rng.Intn(8)) % m.n
				if u == v || m.adj[u][v] {
					continue
				}
				m.adj[u][v], m.adj[v][u] = true, true
				ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
			case r < 60: // long-range add_edge
				u := rng.Intn(m.n)
				v := (u + m.n/2 + rng.Intn(8)) % m.n
				if u == v || m.adj[u][v] {
					continue
				}
				m.adj[u][v], m.adj[v][u] = true, true
				ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
			case r < 80: // remove_edge
				u := m.nextWithEdges(rng.Intn(m.n))
				if u < 0 {
					continue
				}
				v := m.smallestNeighbor(u)
				delete(m.adj[u], v)
				delete(m.adj[v], u)
				ops = append(ops, Op{Action: OpRemoveEdge, U: u, V: v})
			case r < 85: // add_node (default full-palette list)
				m.adj = append(m.adj, make(map[int]bool))
				m.n++
				ops = append(ops, Op{Action: OpAddNode})
			case r < 92: // remove_node
				u := m.nextWithEdges(rng.Intn(m.n))
				if u < 0 {
					continue
				}
				for v := range m.adj[u] {
					delete(m.adj[v], u)
				}
				m.adj[u] = make(map[int]bool)
				ops = append(ops, Op{Action: OpRemoveNode, Node: u})
			default: // set_list: bump the node's defect budget
				u := rng.Intn(m.n)
				ops = append(ops, Op{Action: OpSetList, Node: u})
			}
		}
		script = append(script, ops)
	}
	return script
}

// fillSetLists completes set_list ops with the instance's palette: a
// full list with defect budget 2, a slack bump the repair schedule
// must account for.
func fillSetLists(script [][]Op, space int) {
	full := make([]int, space)
	for i := range full {
		full[i] = i
	}
	twos := make([]int, space)
	for i := range twos {
		twos[i] = 2
	}
	for _, ops := range script {
		for i := range ops {
			if ops[i].Action == OpSetList {
				ops[i].List = full
				ops[i].Defects = twos
			}
		}
	}
}
