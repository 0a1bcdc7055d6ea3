package wire

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/logic"
)

// FuzzWireRoundTrip pins the codec's two core properties on arbitrary
// input. Any byte string either fails to decode with a typed error
// (ErrCorrupt wrapping the defect — never a panic), or decodes to an
// instance for which encode→decode→encode is a byte-level fixpoint and
// decoding preserves CanonicalKey — the cross-process identity the
// service layer's byte-identical-fleet guarantee rests on. (A hostile
// encoding may list one atom twice, which instance deduplication
// collapses, so the fixpoint is asserted from the first re-encode on,
// the codec's canonical form.)
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(EncodeSnapshot(logic.NewInstance()))
	f.Add(EncodeSnapshot(logic.NewDatabase(
		logic.MakeAtom("p", logic.Constant("a"), logic.Constant("b")),
		logic.MakeAtom("q", logic.Constant("b")),
	)))
	nulls := logic.NewNullFactory()
	n0, _ := nulls.Intern("x", 1)
	n1, _ := nulls.Intern("y", 2)
	f.Add(EncodeSnapshot(logic.NewDatabase(
		logic.MakeAtom("r", n0, n1),
		logic.MakeAtom("r", n1, logic.Fresh(3)),
		logic.MakeAtom("zero"),
	)))
	// A null declared at two depths must fail, not merge, and so must the
	// former delta kind.
	f.Add(twoDepthSnapshot())
	f.Add(deltaKind(EncodeSnapshot(logic.NewDatabase(logic.MakeAtom("r", n0, n1))), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode failed with an untyped error: %v", err)
			}
			return
		}
		canonical := EncodeSnapshot(in)
		again, err := DecodeSnapshot(canonical)
		if err != nil {
			t.Fatalf("re-decode of a self-produced encoding failed: %v", err)
		}
		if again.CanonicalKey() != in.CanonicalKey() {
			t.Fatalf("CanonicalKey not preserved:\n%s\nvs\n%s", again.CanonicalKey(), in.CanonicalKey())
		}
		if fixed := EncodeSnapshot(again); !bytes.Equal(fixed, canonical) {
			t.Fatalf("encode∘decode is not a fixpoint on canonical encodings (%d vs %d bytes)", len(fixed), len(canonical))
		}
	})
}
