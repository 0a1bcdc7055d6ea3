package qos

import (
	"errors"

	"repro/internal/chase"
	"repro/internal/codec"
	"repro/internal/compile"
)

// ErrCorrupt reports a learned-bound blob that is not a canonical
// encoding.
var ErrCorrupt = errors.New("qos: corrupt learned-bound encoding")

// maxEncodedBounds caps the records one blob may carry. There are three
// chase variants, and the canonical form forbids duplicates, so any
// larger count is corrupt by construction.
const maxEncodedBounds = 8

// EncodeBounds renders a fingerprint's learned bounds through
// internal/codec: a uvarint record count, then per record the variant
// byte, uvarint rounds, uvarint atoms, and an observed byte (0/1).
// Records must be sorted by strictly increasing variant —
// compile.Cache.Bounds returns exactly that shape — so the encoding is
// canonical: DecodeBounds rejects anything else, and re-encoding a
// decoded blob reproduces it byte for byte. The fleet coordinator ships
// this blob to cold workers alongside the ontology pull.
func EncodeBounds(bounds []compile.VariantBound) []byte {
	if len(bounds) == 0 {
		return nil
	}
	var w codec.Writer
	w.Uint(uint64(len(bounds)))
	for _, vb := range bounds {
		w.Byte(byte(vb.Variant))
		w.Uint(uint64(vb.Bound.Rounds))
		w.Uint(uint64(vb.Bound.Atoms))
		if vb.Bound.Observed {
			w.Byte(1)
		} else {
			w.Byte(0)
		}
	}
	return w.Bytes()
}

// DecodeBounds parses an EncodeBounds blob, rejecting non-canonical
// input: unknown variants, out-of-order or duplicate records, counter
// overflow, truncation, and trailing bytes all fail with ErrCorrupt. An
// empty blob decodes to nil.
func DecodeBounds(data []byte) ([]compile.VariantBound, error) {
	if len(data) == 0 {
		return nil, nil
	}
	r := codec.NewReader(data, ErrCorrupt)
	count, err := r.Uint("count")
	if err != nil {
		return nil, err
	}
	if count == 0 || count > maxEncodedBounds {
		return nil, r.Errorf("record count %d", count)
	}
	out := make([]compile.VariantBound, 0, count)
	prev := chase.Variant(-1)
	for range count {
		b, err := r.Byte("variant")
		if err != nil {
			return nil, err
		}
		v := chase.Variant(b)
		if v > chase.Restricted {
			return nil, r.Errorf("unknown variant %d", v)
		}
		if v <= prev {
			return nil, r.Errorf("variants out of order")
		}
		prev = v
		rounds, err := r.Value("rounds")
		if err != nil {
			return nil, err
		}
		atoms, err := r.Value("atoms")
		if err != nil {
			return nil, err
		}
		observed, err := r.Byte("observed flag")
		if err != nil {
			return nil, err
		}
		if observed > 1 {
			return nil, r.Errorf("bad observed flag %d", observed)
		}
		out = append(out, compile.VariantBound{
			Variant: v,
			Bound:   compile.LearnedBound{Rounds: rounds, Atoms: atoms, Observed: observed == 1},
		})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}
