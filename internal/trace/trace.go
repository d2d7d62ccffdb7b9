// Package trace records the per-round progression of a simulator run
// — active nodes, message volume, bit volume — and renders it as a
// sparkline-style ASCII timeline. It plugs into sim.Config.OnRound, so
// tracing requires no changes to protocols.
package trace

import (
	"fmt"
	"strings"

	"listcolor/internal/sim"
)

// Recorder collects RoundStats and, optionally, point-in-time
// annotations (the adversary layer uses them to mark injected
// faults). The zero value is ready to use; attach it with Attach or
// by passing Hook() as Config.OnRound.
type Recorder struct {
	rounds []sim.RoundStats
	events []Event
}

// Event is an annotation pinned to a round — a fault injection, a
// phase transition, anything worth seeing next to the per-round
// statistics.
type Event struct {
	Round  int
	Kind   string
	Detail string
}

// Annotate records an event at the given round. Events are kept in
// insertion order; they need not be sorted and may reference rounds
// the run never reached.
func (r *Recorder) Annotate(round int, kind, detail string) {
	r.events = append(r.events, Event{Round: round, Kind: kind, Detail: detail})
}

// Events returns the recorded annotations (owned by the recorder).
func (r *Recorder) Events() []Event { return r.events }

// Hook returns the callback to install as sim.Config.OnRound.
func (r *Recorder) Hook() func(sim.RoundStats) {
	return func(rs sim.RoundStats) { r.rounds = append(r.rounds, rs) }
}

// Attach installs the recorder into cfg (chaining any existing hook)
// and returns the modified config.
func (r *Recorder) Attach(cfg sim.Config) sim.Config {
	prev := cfg.OnRound
	hook := r.Hook()
	cfg.OnRound = func(rs sim.RoundStats) {
		hook(rs)
		if prev != nil {
			prev(rs)
		}
	}
	return cfg
}

// sparkLevels are the eight block characters used by the timeline.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// spark renders values as a block-character sparkline scaled to the
// series maximum.
func spark(values []int) string {
	max := 0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if max > 0 {
			idx = v * (len(sparkLevels) - 1) / max
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// Timeline renders the recorded run as an ASCII report: one sparkline
// per metric, downsampled to at most width columns (each column
// aggregates a bucket of consecutive rounds by sum for volumes and max
// for active nodes).
func (r *Recorder) Timeline(width int) string {
	if len(r.rounds) == 0 {
		return "trace: no rounds recorded\n"
	}
	if width < 1 {
		width = 80
	}
	buckets := len(r.rounds)
	if buckets > width {
		buckets = width
	}
	active := make([]int, buckets)
	msgs := make([]int, buckets)
	bits := make([]int, buckets)
	for i, rs := range r.rounds {
		b := i * buckets / len(r.rounds)
		if rs.ActiveNodes > active[b] {
			active[b] = rs.ActiveNodes
		}
		msgs[b] += rs.Messages
		bits[b] += rs.Bits
	}
	total := sim.Result{}
	for _, rs := range r.rounds {
		total.Messages += rs.Messages
		total.TotalBits += rs.Bits
	}
	var out strings.Builder
	fmt.Fprintf(&out, "rounds: %d   messages: %d   bits: %d\n", len(r.rounds), total.Messages, total.TotalBits)
	fmt.Fprintf(&out, "active   |%s|\n", spark(active))
	fmt.Fprintf(&out, "messages |%s|\n", spark(msgs))
	fmt.Fprintf(&out, "bits     |%s|\n", spark(bits))
	if len(r.events) > 0 {
		fmt.Fprintf(&out, "events: %d annotated\n", len(r.events))
		for _, e := range r.events {
			fmt.Fprintf(&out, "  r%-5d %-14s %s\n", e.Round, e.Kind, e.Detail)
		}
	}
	return out.String()
}
