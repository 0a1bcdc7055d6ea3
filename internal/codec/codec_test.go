package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

var errTest = errors.New("codec test: corrupt")

// read performs script step op on r: op%8 picks the method, and a Raw
// step reads op>>3 bytes. It returns what the step read.
func read(r *Reader, op byte) (any, error) {
	switch op % 8 {
	case 0:
		return r.Byte("byte")
	case 1:
		return r.Raw(int(op>>3), "raw")
	case 2:
		return r.Uint("uint")
	case 3:
		return r.Int("int")
	case 4:
		return r.Value("value")
	case 5:
		// A Len counts bytes that follow it; read them too, so the
		// round trip can write a count its input honours.
		n, err := r.Len("len")
		if err != nil {
			return nil, err
		}
		return r.Raw(n, "counted bytes")
	case 6:
		return r.Str("str")
	default:
		return r.Blob("blob")
	}
}

// write appends the value script step op writes for seed, and returns
// what read gives back for it.
func write(w *Writer, op byte, seed uint64) any {
	fill := bytes.Repeat([]byte{byte(seed >> 8)}, int(seed%16))
	switch op % 8 {
	case 0:
		w.Byte(byte(seed))
		return byte(seed)
	case 1:
		b := bytes.Repeat([]byte{byte(seed)}, int(op>>3))
		w.Raw(b)
		return b
	case 2:
		w.Uint(seed)
		return seed
	case 3:
		v := int32(seed)
		w.Int(int64(v))
		return int(v)
	case 4:
		v := seed & math.MaxInt32
		w.Uint(v)
		return int(v)
	case 5:
		w.Uint(uint64(len(fill)))
		w.Raw(fill)
		return fill
	case 6:
		w.Str(string(fill))
		return string(fill)
	default:
		w.Blob(fill)
		return fill
	}
}

// rewrite appends the encoding of v, which step op read: a Len step
// (which FuzzReader reads alone) its count, every other step what write
// would append for it.
func rewrite(w *Writer, op byte, v any) {
	switch op % 8 {
	case 0:
		w.Byte(v.(byte))
	case 1:
		w.Raw(v.([]byte))
	case 2:
		w.Uint(v.(uint64))
	case 3:
		w.Int(int64(v.(int)))
	case 4, 5:
		w.Uint(uint64(v.(int)))
	case 6:
		w.Str(v.(string))
	default:
		w.Blob(v.([]byte))
	}
}

func equal(a, b any) bool {
	if x, ok := a.([]byte); ok {
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	}
	return a == b
}

// FuzzReader runs a read script over arbitrary bytes and checks the
// cursor's contract: no read panics, every error wraps the reader's
// sentinel, the cursor never moves backwards or past the input, a Len
// never exceeds the input left after it, and every accepted read, its
// varints included, re-encodes to exactly the bytes it consumed. The
// same script then writes
// values derived from the bytes with Writer and reads them back, which
// must reproduce every value and consume the encoding exactly.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{0x80, 0x80, 0x80, 0x80, 0x10, 3, 'a', 'b', 'c'})
	f.Add([]byte{5, 5, 13}, []byte{0xff, 0xff, 0xff, 0xff, 0x07, 2, 0, 0})
	f.Add([]byte{3, 4, 6, 7}, []byte{0xfe, 0xff, 0xff, 0xff, 0x0f, 1, 'x'})
	f.Fuzz(func(t *testing.T, script, data []byte) {
		r := NewReader(data, errTest)
		for _, op := range script {
			before := r.Remaining()
			var v any
			var err error
			if op%8 == 5 {
				var n int
				if n, err = r.Len("len"); err == nil && n > r.Remaining() {
					t.Fatalf("Len = %d with %d bytes remaining", n, r.Remaining())
				}
				v = n
			} else {
				v, err = read(r, op)
			}
			after := r.Remaining()
			if after < 0 || after > before {
				t.Fatalf("op %d moved the cursor from %d to %d remaining bytes", op, before, after)
			}
			if err != nil && !errors.Is(err, errTest) {
				t.Fatalf("op %d: error %v does not wrap the sentinel", op, err)
			}
			if err == nil {
				var w Writer
				rewrite(&w, op, v)
				if read := data[len(data)-before : len(data)-after]; !bytes.Equal(w.Bytes(), read) {
					t.Fatalf("op %d: read %x as %#v, which re-encodes as %x", op, read, v, w.Bytes())
				}
			}
		}
		if err := r.Done(); (err == nil) != (r.Remaining() == 0) || (err != nil && !errors.Is(err, errTest)) {
			t.Fatalf("Done() = %v with %d bytes remaining", err, r.Remaining())
		}

		var w Writer
		var want []any
		seeds := data
		for _, op := range script {
			var b [8]byte
			seeds = seeds[copy(b[:], seeds):]
			want = append(want, write(&w, op, binary.LittleEndian.Uint64(b[:])))
		}
		r = NewReader(w.Bytes(), errTest)
		for i, op := range script {
			got, err := read(r, op)
			if err != nil {
				t.Fatalf("step %d (op %d): reading back a written value: %v", i, op, err)
			}
			if !equal(got, want[i]) {
				t.Fatalf("step %d (op %d): read back %#v, wrote %#v", i, op, got, want[i])
			}
		}
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReaderBounds: each read enforces exactly its named bound, and every
// rejection wraps the sentinel.
func TestReaderBounds(t *testing.T) {
	enc := func(write func(*Writer)) *Reader {
		var w Writer
		write(&w)
		return NewReader(w.Bytes(), errTest)
	}
	fails := map[string]error{}
	_, fails["Value over MaxInt32"] = enc(func(w *Writer) { w.Uint(math.MaxInt32 + 1) }).Value("v")
	_, fails["Int over MaxInt32"] = enc(func(w *Writer) { w.Int(math.MaxInt32 + 1) }).Int("i")
	_, fails["Int under MinInt32"] = enc(func(w *Writer) { w.Int(math.MinInt32 - 1) }).Int("i")
	_, fails["Len over remaining"] = enc(func(w *Writer) { w.Uint(2); w.Byte(0) }).Len("n")
	_, fails["Raw negative"] = enc(func(w *Writer) {}).Raw(-1, "r")
	_, fails["Byte truncated"] = enc(func(w *Writer) {}).Byte("b")
	_, fails["Uint truncated"] = enc(func(w *Writer) { w.Byte(0x80) }).Uint("u")
	_, fails["Str truncated"] = enc(func(w *Writer) { w.Uint(3); w.Raw([]byte("ab")) }).Str("s")
	fails["Done trailing"] = enc(func(w *Writer) { w.Byte(0) }).Done()
	fails["Errorf"] = enc(func(w *Writer) {}).Errorf("semantic check %d", 7)
	for name, err := range fails {
		if !errors.Is(err, errTest) {
			t.Errorf("%s: err = %v, want the sentinel", name, err)
		}
	}

	r := enc(func(w *Writer) {
		w.Uint(math.MaxInt32)
		w.Int(math.MinInt32)
		w.Uint(math.MaxUint64)
		w.Uint(1)
		w.Byte(9)
	})
	if v, err := r.Value("v"); v != math.MaxInt32 || err != nil {
		t.Fatalf("Value = %d, %v", v, err)
	}
	if v, err := r.Int("i"); v != math.MinInt32 || err != nil {
		t.Fatalf("Int = %d, %v", v, err)
	}
	if v, err := r.Uint("u"); v != math.MaxUint64 || err != nil {
		t.Fatalf("Uint = %d, %v", v, err)
	}
	if n, err := r.Len("n"); n != 1 || err != nil || r.Remaining() != 1 {
		t.Fatalf("Len = %d, %v with %d remaining", n, err, r.Remaining())
	}
}

// TestOverlongVarints: a multi-byte varint ending in a zero byte decodes
// under encoding/binary to a value whose minimal encoding is shorter
// (80 00 is 0, 9f 9f 00 is 3999, e5 ff 00 is 16357), so every read that
// takes a varint rejects it; the minimal encodings of the same values
// and of MaxUint64 read back.
func TestOverlongVarints(t *testing.T) {
	reads := map[string]func(*Reader) error{
		"Uint":  func(r *Reader) error { _, err := r.Uint("v"); return err },
		"Int":   func(r *Reader) error { _, err := r.Int("v"); return err },
		"Value": func(r *Reader) error { _, err := r.Value("v"); return err },
		"Len":   func(r *Reader) error { _, err := r.Len("v"); return err },
		"Str":   func(r *Reader) error { _, err := r.Str("v"); return err },
		"Blob":  func(r *Reader) error { _, err := r.Blob("v"); return err },
	}
	for _, overlong := range [][]byte{{0x80, 0x00}, {0x9f, 0x9f, 0x00}, {0xe5, 0xff, 0x00}} {
		for name, read := range reads {
			// Trailing bytes let a Len, Str or Blob count fit the input.
			in := append(append([]byte{}, overlong...), make([]byte, 1<<15)...)
			if err := read(NewReader(in, errTest)); !errors.Is(err, errTest) {
				t.Errorf("%s(%x): err = %v, want a rejection wrapping the sentinel", name, overlong, err)
			}
		}
	}
	for _, c := range []struct {
		in   []byte
		want uint64
	}{
		{[]byte{0x00}, 0},
		{[]byte{0x80, 0x01}, 128},
		{[]byte{0x9f, 0x1f}, 3999},
		{[]byte{0xe5, 0x7f}, 16357},
		{[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, math.MaxUint64},
	} {
		r := NewReader(c.in, errTest)
		if v, err := r.Uint("v"); v != c.want || err != nil || r.Done() != nil {
			t.Errorf("Uint(%x) = %d, %v; want %d", c.in, v, err, c.want)
		}
	}
}

// TestBlobLengthErrors pins the texts of a string or blob length's
// errors: the field is named "<what> length", although the name is only
// built when a read fails.
func TestBlobLengthErrors(t *testing.T) {
	for _, c := range []struct {
		write func(*Writer)
		want  string
	}{
		{func(w *Writer) { w.Byte(0x80) }, "codec test: corrupt: bad name length varint"},
		{func(w *Writer) { w.Uint(math.MaxInt32 + 1) }, "codec test: corrupt: bad name length varint"},
		{func(w *Writer) { w.Uint(3); w.Raw([]byte("ab")) }, "codec test: corrupt: name length 3 exceeds the 2 remaining bytes"},
	} {
		var w Writer
		c.write(&w)
		for _, read := range []func(*Reader) error{
			func(r *Reader) error { _, err := r.Str("name"); return err },
			func(r *Reader) error { _, err := r.Blob("name"); return err },
		} {
			err := read(NewReader(w.Bytes(), errTest))
			if err == nil || err.Error() != c.want || !errors.Is(err, errTest) {
				t.Errorf("read of %x: err = %v, want %q wrapping the sentinel", w.Bytes(), err, c.want)
			}
		}
	}
	r := NewReader([]byte("\x02ok"), errTest)
	if s, err := r.Str("name"); s != "ok" || err != nil || r.Done() != nil {
		t.Fatalf("Str = %q, %v", s, err)
	}
}
