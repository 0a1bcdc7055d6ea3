// Package codec is the byte cursor every binary format of the system is
// written and read through: internal/wire's snapshots and deltas,
// internal/checkpoint's artifacts, internal/fleet's message bodies and
// internal/qos's learned-bound blobs. A Writer appends unsigned varints,
// zigzag-signed varints (encoding/binary's forms), raw bytes, and
// length-prefixed strings and blobs; a Reader consumes them under one
// bounds discipline, so hostile input fails typed instead of panicking or
// making a decoder allocate beyond its input. Each read names its bound:
//
//   - Uint: any uvarint;
//   - Int: a zigzag varint in int32 range;
//   - Value: a uvarint in [0, MaxInt32] — ids, indexes, depths, budgets;
//   - Len: a Value no larger than the remaining input — every record
//     count and every string or blob length, since each record costs at
//     least one byte, so a Len can size an allocation safely.
//
// A Reader carries the sentinel of the format it decodes, and every error
// it returns — the caller's own through Errorf included — wraps it, so
// errors.Is(err, wire.ErrCorrupt) (or checkpoint.ErrCorrupt,
// fleet.ErrFrame, qos.ErrCorrupt) holds for every decode failure.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends encoded values to a growing buffer. The zero value is an
// empty writer.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer with room for capacity bytes.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoding written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Uint appends an unsigned varint.
func (w *Writer) Uint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int appends a zigzag-signed varint.
func (w *Writer) Int(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Byte appends one byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Raw appends bytes with no length prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Uint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends length-prefixed bytes.
func (w *Writer) Blob(b []byte) {
	w.Uint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader is a bounds-checked cursor over one encoding. Every read takes a
// description of what it reads, which names the field in its error.
type Reader struct {
	data     []byte
	pos      int
	sentinel error
}

// NewReader returns a cursor at the start of data whose errors all wrap
// sentinel.
func NewReader(data []byte, sentinel error) *Reader {
	return &Reader{data: data, sentinel: sentinel}
}

// Errorf formats a decode error wrapping the reader's sentinel; formats
// use it for their own semantic checks (unknown tags, out-of-range
// indexes), so those fail with the same sentinel as a truncation.
func (r *Reader) Errorf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{r.sentinel}, args...)...)
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.pos }

// Done rejects trailing bytes: a valid encoding is consumed exactly.
func (r *Reader) Done() error {
	if n := r.Remaining(); n != 0 {
		return r.Errorf("%d trailing bytes", n)
	}
	return nil
}

// Byte reads one byte.
func (r *Reader) Byte(what string) (byte, error) {
	if r.pos >= len(r.data) {
		return 0, r.Errorf("truncated %s", what)
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

// Raw reads the next n bytes. The result aliases the input.
func (r *Reader) Raw(n int, what string) ([]byte, error) {
	if n < 0 || n > r.Remaining() {
		return nil, r.Errorf("truncated %s", what)
	}
	b := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b, nil
}

// Uint reads an unsigned varint of any size.
func (r *Reader) Uint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, r.Errorf("bad %s varint", what)
	}
	r.pos += n
	return v, nil
}

// Int reads a zigzag-signed varint in int32 range.
func (r *Reader) Int(what string) (int, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 || v > math.MaxInt32 || v < math.MinInt32 {
		return 0, r.Errorf("bad %s varint", what)
	}
	r.pos += n
	return int(v), nil
}

// Value reads an unsigned varint in [0, MaxInt32].
func (r *Reader) Value(what string) (int, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 || v > math.MaxInt32 {
		return 0, r.Errorf("bad %s varint", what)
	}
	r.pos += n
	return int(v), nil
}

// Len reads a count or length: a Value no larger than the input left
// after it. Every record, string byte or blob byte it counts costs at
// least one byte, so a larger count is corrupt; rejecting it here bounds
// every count-sized allocation by the input.
func (r *Reader) Len(what string) (int, error) {
	n, err := r.Value(what)
	if err != nil {
		return 0, err
	}
	if n > r.Remaining() {
		return 0, r.Errorf("%s %d exceeds the %d remaining bytes", what, n, r.Remaining())
	}
	return n, nil
}

// Str reads a length-prefixed string.
func (r *Reader) Str(what string) (string, error) {
	b, err := r.Blob(what)
	return string(b), err
}

// Blob reads length-prefixed bytes. The result aliases the input.
func (r *Reader) Blob(what string) ([]byte, error) {
	n, err := r.Len(what + " length")
	if err != nil {
		return nil, err
	}
	return r.Raw(n, what)
}
