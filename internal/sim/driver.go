package sim

import "fmt"

// AllDrivers lists every execution driver in a stable order:
// Lockstep (the deterministic reference) first, then the concurrent
// drivers that must reproduce it byte-for-byte. Conformance tests and
// command-line tools iterate over this slice instead of hard-coding
// the set, so a new driver is automatically picked up everywhere.
func AllDrivers() []Driver {
	return []Driver{Lockstep, Workers}
}

// String returns the driver's canonical name.
func (d Driver) String() string {
	switch d {
	case Lockstep:
		return "lockstep"
	case Workers:
		return "workers"
	default:
		return fmt.Sprintf("driver(%d)", int(d))
	}
}

// WithoutSpan returns a copy of the config with no span: composed
// algorithms hand it to sub-solvers whose runs they record themselves.
func (c Config) WithoutSpan() Config {
	c.Span = nil
	return c
}

// WithDriver returns a copy of the config running under d. It exists
// so harnesses can sweep one prepared config across AllDrivers
// without mutating the original.
func (c Config) WithDriver(d Driver) Config {
	c.Driver = d
	return c
}
