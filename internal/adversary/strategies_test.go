package adversary

import (
	"math/rand"
	"reflect"
	"testing"

	"listcolor/internal/graph"
)

func TestUniformCrashDeterministicAndRateBounded(t *testing.T) {
	g := graph.GNP(200, 0.05, rand.New(rand.NewSource(1)))
	a := UniformCrash(g, 77, 0.2, 3, 2)
	b := UniformCrash(g, 77, 0.2, 3, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different plan")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == 0 || len(a.Events) > g.N()/2 {
		t.Errorf("rate 0.2 selected %d of %d nodes", len(a.Events), g.N())
	}
	for _, e := range a.Events {
		if e.Kind != CrashStop {
			t.Fatalf("unexpected kind %s", e.Kind)
		}
		if e.Start < 3 || e.Start > 5 {
			t.Errorf("node %d crashes at %d, want within [3,5]", e.Node, e.Start)
		}
	}
	other := UniformCrash(g, 78, 0.2, 3, 2)
	if reflect.DeepEqual(a.Events, other.Events) {
		t.Error("different seeds selected identical crash sets")
	}
	if got := UniformCrash(g, 77, 0, 3, 0); len(got.Events) != 0 {
		t.Errorf("rate 0 crashed %d nodes", len(got.Events))
	}
}

func TestCrashRecoverWindows(t *testing.T) {
	g := graph.Ring(100)
	p := CrashRecoverWindows(g, 5, 0.3, 4, 3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Events) == 0 {
		t.Fatal("rate 0.3 selected nobody on 100 nodes")
	}
	for _, e := range p.Events {
		if e.Kind != CrashRecover || e.Start != 4 || e.End != 6 {
			t.Fatalf("bad window event %+v", e)
		}
	}
	// Selection draws differ from UniformCrash's (stream index 1 vs 0),
	// so combined plans don't always hit the same victims.
	q := UniformCrash(g, 5, 0.3, 4, 0)
	same := len(p.Events) == len(q.Events)
	if same {
		for i := range p.Events {
			if p.Events[i].Node != q.Events[i].Node {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("crash-recover and crash-stop strategies drew identical victim sets")
	}
}

func TestPartitionLinksBisectsRing(t *testing.T) {
	g := graph.Ring(10)
	p := PartitionLinks(g, 2, 5)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// A BFS half of a ring is an arc; exactly two edges cross.
	if len(p.Events) != 2 {
		t.Fatalf("ring bisection cut %d edges, want 2", len(p.Events))
	}
	for _, e := range p.Events {
		if e.Kind != LinkDown || e.Start != 2 || e.End != 5 {
			t.Fatalf("bad link event %+v", e)
		}
	}
	// The cut disconnects the graph: removing those edges splits the ring.
	cut := map[[2]int]bool{}
	for _, e := range p.Events {
		cut[[2]int{e.From, e.To}] = true
		cut[[2]int{e.To, e.From}] = true
	}
	h := graph.OrientByID(g).Filter(func(u, v int) bool { return !cut[[2]int{u, v}] }).Graph()
	if comps := countComponents(h); comps != 2 {
		t.Errorf("after the cut the ring has %d components, want 2", comps)
	}
}

func countComponents(g *graph.Graph) int {
	seen := make([]bool, g.N())
	comps := 0
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		comps++
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
	}
	return comps
}

func TestPartitionLinksDisconnectedInput(t *testing.T) {
	// Two components: BFS must keep growing past the first one.
	g := graph.Union(graph.Ring(3), graph.Ring(7))
	p := PartitionLinks(g, 1, 2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Events) == 0 {
		t.Fatal("no cut found on the larger component")
	}
}

func TestUniformCorrupt(t *testing.T) {
	p := UniformCorrupt(11, 0.15, 1, 0)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 1 {
		t.Fatalf("got %d events, want 1", len(p.Events))
	}
	e := p.Events[0]
	if e.Kind != Corrupt || e.From != -1 || e.To != -1 || e.Rate != 0.15 {
		t.Errorf("event = %+v", e)
	}
	if p.Seed != 11 {
		t.Errorf("seed = %d", p.Seed)
	}
}
