package sim

import "listcolor/internal/logstar"

// BitsFor returns the number of bits needed to encode a value drawn
// from a domain of the given size: ⌈log₂(domain)⌉, and at least 1 so
// that even a trivial message has a nonzero wire size.
func BitsFor(domain int) int {
	if domain < 2 {
		return 1
	}
	return logstar.CeilLog2(domain)
}

// IntPayload carries a single integer from a known domain; its wire
// size is BitsFor(Domain). Protocols use it for colors, ids and flags.
type IntPayload struct {
	Value  int
	Domain int
}

// SizeBits implements Payload.
func (p IntPayload) SizeBits() int { return BitsFor(p.Domain) }

var _ Payload = IntPayload{}

// IntsPayload carries a list of integers from a known domain, e.g. the
// candidate color set S_v of the Two-Sweep algorithm. Its wire size is
// len(Values)·BitsFor(Domain) plus a length header.
type IntsPayload struct {
	Values []int
	Domain int
	// MaxLen is the a-priori bound on len(Values) used to size the
	// length header; 0 means use len(Values).
	MaxLen int
}

// SizeBits implements Payload.
func (p IntsPayload) SizeBits() int {
	maxLen := p.MaxLen
	if maxLen < len(p.Values) {
		maxLen = len(p.Values)
	}
	return BitsFor(maxLen+1) + len(p.Values)*BitsFor(p.Domain)
}

var _ Payload = IntsPayload{}

// PairPayload carries two integers from (possibly different) domains,
// e.g. (initial color, chosen color-space index).
type PairPayload struct {
	A, B             int
	DomainA, DomainB int
}

// SizeBits implements Payload.
func (p PairPayload) SizeBits() int { return BitsFor(p.DomainA) + BitsFor(p.DomainB) }

var _ Payload = PairPayload{}
