// codec.go is the one codec of the service's two durable images, WAL
// record payloads (wal.go) and checkpoint payloads (checkpoint.go):
// canonical (u)varints end to end, the discipline of sim.EncodePayload.
// Encoders append through encoding/binary and appendInts; decoders read
// through one bounded reader.
package service

import (
	"encoding/binary"
	"fmt"
)

// appendInts writes a list: its uvarint length, then each element as a
// varint.
func appendInts(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// reader decodes one durable image. It keeps the first error, wrapped
// in the image's sentinel (ErrWALRecord or ErrCheckpoint) with the
// byte offset it stopped at; after an error every read returns zero,
// so a decoder need not check between fields. Every declared count is
// checked against the remaining bytes before a slice is sized: each
// element costs at least one byte, so a longer declaration is provably
// corrupt, and decoding never allocates beyond O(len(data)).
type reader struct {
	data []byte
	off  int
	kind error
	err  error
}

// fail records the first error.
func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at byte %d", r.kind, fmt.Sprintf(format, args...), r.off)
	}
}

func (r *reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad %s", what)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad %s", what)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) u8(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off == len(r.data) {
		r.fail("missing %s", what)
		return 0
	}
	r.off++
	return r.data[r.off-1]
}

// count reads a declared element count, at most the remaining bytes.
func (r *reader) count(what string) int {
	n := r.uvarint(what)
	if rest := uint64(len(r.data) - r.off); n > rest {
		r.fail("%s: declared %d, only %d bytes remain", what, n, rest)
		return 0
	}
	return int(n)
}

// ints reads a list appendInts wrote; the empty list reads as nil.
func (r *reader) ints(what string) []int {
	n := r.count(what)
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = int(r.varint(what))
	}
	return xs
}

// bytes returns the next n bytes, n a count the reader checked.
func (r *reader) bytes(n int) []byte {
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// end returns the first error, or an error for undecoded trailing bytes.
func (r *reader) end() error {
	if r.err == nil && r.off != len(r.data) {
		r.fail("%d trailing bytes", len(r.data)-r.off)
	}
	return r.err
}
