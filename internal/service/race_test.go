//go:build race

package service

// raceEnabled reports whether the test binary runs under the race
// detector. Its runtime drops a random share of sync.Pool puts, so an
// allocation count that goes through a pooled cache (fmt's printers)
// is not exact there.
const raceEnabled = true
