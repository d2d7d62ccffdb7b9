package sim

import (
	"math/rand"
	"slices"
	"testing"

	"listcolor/internal/graph"
)

// TestBorrowNested checks the engine scratch's take-and-return
// contract: a nested Borrow of a type already out gets a distinct
// zero value, a returned value serves the next Borrow of its type,
// types never mix, and engines never share.
func TestBorrowNested(t *testing.T) {
	type bufA struct{ xs []int }
	type bufB struct{ xs []int }
	var e Engine
	outer := Borrow[bufA](&e)
	outer.xs = append(outer.xs, 1)
	inner := Borrow[bufA](&e)
	if inner == outer {
		t.Fatal("a nested Borrow of the same type got the value already out")
	}
	if inner.xs != nil {
		t.Errorf("a new value holds %v, want the zero value", inner.xs)
	}
	inner.xs = append(inner.xs, 2)
	Return(&e, inner)
	if b := Borrow[bufB](&e); b.xs != nil {
		t.Errorf("Borrow of another type got %v, want a new zero value", b.xs)
	}
	Return(&e, outer)
	got := map[*bufA]bool{Borrow[bufA](&e): true, Borrow[bufA](&e): true}
	if !got[outer] || !got[inner] {
		t.Error("the two returned values did not serve the next two borrows")
	}
	if third := Borrow[bufA](&e); third == outer || third == inner {
		t.Error("a third borrow got a value that is still out")
	}
	Return(&e, outer)
	if other := Borrow[bufA](new(Engine)); other == outer {
		t.Error("a second engine got the first engine's value")
	}
}

// TestEngineReusedAcrossRuns runs a flood on one engine per driver, a
// larger network then smaller ones and the reverse, every other run
// under a NodeDown plan that downs and crashes nodes. Each run must
// equal the same run on a fresh engine (result, error and outputs), so
// the state the engine keeps between runs (lockstep's done flags, the
// contexts, inboxes and router) is re-carved and cleared for each.
func TestEngineReusedAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := []*graph.Graph{graph.GNP(30, 0.2, rng), graph.Ring(12), graph.GNP(30, 0.2, rng), graph.Path(5)}
	faults := func(round, v int) NodeStatus {
		switch (round*7 + v*3) % 11 {
		case 0:
			return NodeDowned
		case 1:
			if round > 2 {
				return NodeCrashed
			}
		}
		return NodeUp
	}
	type outcome struct {
		res     Result
		err     string
		learned []int
	}
	run := func(e *Engine, g *graph.Graph, cfg Config) outcome {
		nodes, learned := newFloodMaxNodes(g.N(), 4)
		res, err := e.Run(NewNetwork(g), nodes, cfg)
		o := outcome{res: res, learned: learned}
		if err != nil {
			o.err = err.Error()
		}
		return o
	}
	for _, cfg := range []Config{{Driver: Lockstep}, {Driver: Workers}, {Driver: Workers, Shards: 2}} {
		e := new(Engine)
		for i, g := range graphs {
			cfg := cfg
			cfg.MaxRounds = 40
			if i%2 == 1 {
				cfg.NodeDown = faults
			}
			got, want := run(e, g, cfg), run(new(Engine), g, cfg)
			if got.res != want.res || got.err != want.err || !slices.Equal(got.learned, want.learned) {
				t.Errorf("%v shards=%d run %d (n=%d): reused engine %+v, fresh engine %+v", cfg.Driver, cfg.Shards, i, g.N(), got, want)
			}
		}
	}
}
