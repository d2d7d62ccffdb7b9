package workload

// cache.go is the keyed workload cache behind the parallel sweep
// scheduler (internal/bench) and the conformance matrix: graph
// families that several experiments sweep with identical parameters —
// the same G(n,p) or random-regular family used by E3, E5 and E12 —
// are generated once and shared read-only, and per-graph derived
// values (orientations, Linial bootstraps) are memoized next to the
// graph they belong to. Hit/miss counters make cross-experiment reuse
// observable; the sweep-scheduler rows of BENCH_harness.json record
// them.

import (
	"sync"
	"sync/atomic"

	"listcolor/internal/graph"
)

// Key identifies one cached family build. Params.Seed participates in
// the key as a variant tag, so callers that genuinely want distinct
// graphs of the same shape (E2's per-trial G(n,p) instances) stay
// distinct while everyone else converges on the shared build.
type Key struct {
	Family string
	Params Params
}

// Cache memoizes Build results and per-graph derived values for
// read-only sharing across concurrent sweep cells. The zero value is
// ready to use; a nil *Cache degrades to uncached direct builds, so
// callers never need to guard. All methods are safe for concurrent
// use.
//
// Sharing contract: a graph handed out by the cache is normalized at
// insertion and must be treated as immutable by every consumer —
// solvers, generators and validators only read adjacency. Derived
// values are shared under the same contract.
type Cache struct {
	mu      sync.Mutex
	builds  map[Key]*entry
	derived map[derivedKey]*entry

	hits        atomic.Int64
	misses      atomic.Int64
	derivedHits atomic.Int64
	derivedMiss atomic.Int64
}

// entry is one memoized value: a family build (a *graph.Graph and its
// error) or a derived value.
type entry struct {
	once sync.Once
	v    any
	err  error
}

type derivedKey struct {
	g    *graph.Graph
	name string
}

// memo returns the value of key k in *m, running build on first use
// and counting the call in hits or misses. Two concurrent requests for
// the same key build once: the entry is claimed under the cache lock
// and built under a per-entry once, so a slow build never blocks
// unrelated keys.
func memo[K comparable](c *Cache, m *map[K]*entry, k K, hits, misses *atomic.Int64, build func() (any, error)) (any, error) {
	c.mu.Lock()
	if *m == nil {
		*m = make(map[K]*entry)
	}
	e, ok := (*m)[k]
	if !ok {
		e = &entry{}
		(*m)[k] = e
	}
	c.mu.Unlock()
	hit := true
	e.once.Do(func() {
		hit = false
		e.v, e.err = build()
	})
	if hit {
		hits.Add(1)
	} else {
		misses.Add(1)
	}
	return e.v, e.err
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{} }

// Counters is a point-in-time snapshot of the cache's reuse counters.
// Hits counts Build calls served from a previously generated graph;
// DerivedHits counts Derived calls served from a previously computed
// value.
type Counters struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	DerivedHits   int64 `json:"derived_hits"`
	DerivedMisses int64 `json:"derived_misses"`
}

// Counters returns the current reuse counters; zero for a nil cache.
func (c *Cache) Counters() Counters {
	if c == nil {
		return Counters{}
	}
	return Counters{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		DerivedHits:   c.derivedHits.Load(),
		DerivedMisses: c.derivedMiss.Load(),
	}
}

// Build returns the graph of the named family under p, generating it
// on first use and sharing the normalized result afterwards; concurrent
// requests for the same key generate once. A nil cache builds directly.
func (c *Cache) Build(family string, p Params) (*graph.Graph, error) {
	if c == nil {
		return Build(family, p)
	}
	v, err := memo(c, &c.builds, Key{Family: family, Params: p}, &c.hits, &c.misses, func() (any, error) {
		g, err := Build(family, p)
		if g != nil {
			g.Normalize() // freeze before sharing: every later Normalize is a no-op read
		}
		return g, err
	})
	g, _ := v.(*graph.Graph)
	return g, err
}

// Derived memoizes a value computed from a shared graph — an
// orientation, a bootstrap coloring, a CSR view — under the given
// name. The build function runs at most once per (graph, name) pair;
// concurrent callers block until it finishes and then share the
// result read-only. build must be deterministic: the cache is what
// makes sweep cells order-independent, so a nondeterministic build
// would leak schedule dependence into results. A nil cache computes
// directly.
func (c *Cache) Derived(g *graph.Graph, name string, build func() any) any {
	if c == nil {
		return build()
	}
	v, _ := memo(c, &c.derived, derivedKey{g: g, name: name}, &c.derivedHits, &c.derivedMiss, func() (any, error) {
		return build(), nil
	})
	return v
}

// Len returns how many distinct family builds the cache holds.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.builds)
}
