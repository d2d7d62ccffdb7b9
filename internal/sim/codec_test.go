package sim

import "testing"

func TestEncodePayloadRejectsPrivateTypes(t *testing.T) {
	if _, ok := EncodePayload(Corrupted{Data: []byte{1}, Bits: 8}); ok {
		t.Error("Corrupted must not be canonically encodable")
	}
	type wrapper struct{ IntPayload }
	if _, ok := EncodePayload(wrapper{IntPayload{Value: 1, Domain: 2}}); ok {
		t.Error("protocol-private wrapper types must not be encodable")
	}
}

func TestCorruptedSizeBits(t *testing.T) {
	c := Corrupted{Data: []byte{1, 2, 3}, Bits: 17}
	if c.SizeBits() != 17 {
		t.Errorf("SizeBits = %d, want the original wire size 17", c.SizeBits())
	}
}
