package sim

import "encoding/binary"

// Corrupted is a payload damaged in transit: the adversary layer
// replaces a delivery's payload with one of these via
// Config.CorruptMessage. Receivers see raw bytes — a protocol's type
// assertion or type switch on the expected payload type fails, so a
// well-formed protocol treats the message as garbage (equivalent to a
// drop) rather than panicking.
//
// Bits preserves the original payload's wire size, so CONGEST
// accounting (which bills the sent payload) and any size-dependent
// receiver logic see the same number either way.
type Corrupted struct {
	Data []byte
	Bits int
}

// SizeBits implements Payload.
func (c Corrupted) SizeBits() int { return c.Bits }

var _ Payload = Corrupted{}

// Wire-format tags of EncodePayload.
const (
	tagInt  = 1
	tagInts = 2
	tagPair = 3
)

// EncodePayload renders one of the engine's standard payload types
// (IntPayload, IntsPayload, PairPayload) into a canonical byte string
// — a tag byte followed by varints — so the adversary can perform real
// bit-flips on the wire image. Protocol-private wrapper types return
// ok=false; the adversary substitutes seeded pseudo-random bytes of
// the same wire size for those.
func EncodePayload(p Payload) ([]byte, bool) {
	switch q := p.(type) {
	case IntPayload:
		buf := []byte{tagInt}
		buf = binary.AppendVarint(buf, int64(q.Value))
		buf = binary.AppendUvarint(buf, uint64(q.Domain))
		return buf, true
	case IntsPayload:
		buf := []byte{tagInts}
		buf = binary.AppendUvarint(buf, uint64(len(q.Values)))
		for _, v := range q.Values {
			buf = binary.AppendVarint(buf, int64(v))
		}
		buf = binary.AppendUvarint(buf, uint64(q.Domain))
		buf = binary.AppendUvarint(buf, uint64(q.MaxLen))
		return buf, true
	case PairPayload:
		buf := []byte{tagPair}
		buf = binary.AppendVarint(buf, int64(q.A))
		buf = binary.AppendVarint(buf, int64(q.B))
		buf = binary.AppendUvarint(buf, uint64(q.DomainA))
		buf = binary.AppendUvarint(buf, uint64(q.DomainB))
		return buf, true
	default:
		return nil, false
	}
}
