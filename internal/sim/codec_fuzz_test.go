package sim

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzCorruptedPayloadDecode is the "corruption never panics" contract
// at the decoder level: DecodePayload must map ARBITRARY bytes — the
// exact thing the adversary's bit-flips produce — to either a valid
// payload or an ErrDecode, never a panic and never an unbounded
// allocation. Valid decodes must re-encode to the identical bytes
// (the wire format is canonical).
func FuzzCorruptedPayloadDecode(f *testing.F) {
	// Seed corpus: wire images of real solver payload shapes — the
	// color broadcasts, list announcements and pair messages the
	// paper's protocols actually exchange — plus structural edge cases.
	seeds := []Payload{
		IntPayload{Value: 0, Domain: 1},
		IntPayload{Value: 17, Domain: 64},                             // a color broadcast
		IntPayload{Value: -1, Domain: 128},                            // sentinel
		IntsPayload{Values: []int{2, 3, 5, 7}, Domain: 16, MaxLen: 8}, // a residual list
		IntsPayload{Values: nil, Domain: 4, MaxLen: 2},
		PairPayload{A: 3, B: 11, DomainA: 8, DomainB: 32}, // a (color, defect) pair
	}
	for _, p := range seeds {
		data, ok := EncodePayload(p)
		if !ok {
			f.Fatalf("seed payload %#v not encodable", p)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{tagInts, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// Adversarial length prefixes: declared element counts far beyond
	// the input (a flipped high bit turns a short list into a claimed
	// multi-GiB one). Decode must reject these via the length bound
	// BEFORE sizing any buffer — see TestDecodeLengthPrefixAllocation
	// for the measured allocation ceiling.
	f.Add([]byte{tagInts, 0xfe, 0xff, 0xff, 0xff, 0x0f})                                     // ~4·10⁹ elements, 0 bytes follow
	f.Add([]byte{tagInts, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})       // 2⁶⁴-ish declared count
	f.Add([]byte{tagInts, 0x04, 0x01, 0x02})                                                 // declares 4, carries 2
	f.Add(append([]byte{tagInts, 0x03}, 0x02, 0x04, 0x06))                                   // declares 3 = remaining, still truncated (no domain)
	f.Add([]byte{tagInts, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}) // overlong uvarint prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePayload(data) // must not panic
		if err != nil {
			var lbe *LengthBoundError
			if errors.As(err, &lbe) && lbe.Declared <= uint64(lbe.Remaining) {
				t.Fatalf("LengthBoundError with declared %d ≤ remaining %d", lbe.Declared, lbe.Remaining)
			}
			return
		}
		// Canonical round trip: decode ∘ encode is the identity on
		// valid wire images.
		back, ok := EncodePayload(p)
		if !ok {
			t.Fatalf("decoded payload %#v not re-encodable", p)
		}
		p2, err := DecodePayload(back)
		if err != nil {
			t.Fatalf("re-encoded bytes do not decode: %v", err)
		}
		if !reflect.DeepEqual(normalizeInts(p), normalizeInts(p2)) {
			t.Fatalf("round trip drift: %#v vs %#v", p, p2)
		}
	})
}

// normalizeInts maps nil and empty Values to one representative; they
// are indistinguishable on the wire.
func normalizeInts(p Payload) Payload {
	if ip, ok := p.(IntsPayload); ok && len(ip.Values) == 0 {
		ip.Values = nil
		return ip
	}
	return p
}
