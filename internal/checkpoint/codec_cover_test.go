package checkpoint

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/chase"
	"repro/internal/codec"
	"repro/internal/logic"
	"repro/internal/wire"
)

// foreign is a term kind defined outside internal/logic, written under
// the wire codec's foreign tag.
type foreign struct{ key, rendering string }

func (f foreign) Key() string    { return f.key }
func (f foreign) String() string { return f.rendering }

// asV1 rewrites a version-2 artifact as version 1, with the fired-trigger
// sections that fired writes between the snapshot and the checksum.
func asV1(v2 []byte, fired func(w *codec.Writer)) []byte {
	payload := bytes.Clone(v2[:len(v2)-checksumLen])
	payload[2] = 1 // the version varint follows the two magic bytes
	w := codec.NewWriter(64)
	fired(w)
	return seal(append(payload, w.Bytes()...))
}

// everyTag writes version-1 fired sections whose manifest carries every
// wire term tag — constant, null, fresh, variable and foreign — so the
// version-1 skip path walks each tag's record.
func everyTag(w *codec.Writer) {
	terms := []logic.Term{
		logic.Constant("a"),
		logic.NewNullFactoryAt(3).NullAt(4, 1),
		logic.Fresh(-9),
		logic.Variable("X"),
		foreign{key: "ext:probe", rendering: "⟨probe⟩"},
	}
	w.Uint(uint64(len(terms)))
	for _, t := range terms {
		wire.AppendTerm(w, t)
	}
	tuples := [][]uint64{{0, 0, 1}, {1, 2, 3, 4}} // TGD index, then manifest indexes
	w.Uint(uint64(len(tuples)))
	for _, tuple := range tuples {
		w.Uint(tuple[0])
		w.Uint(uint64(len(tuple) - 1))
		for _, ti := range tuple[1:] {
			w.Uint(ti)
		}
	}
}

// Re-sealed damage: a writer that truncates or flips bytes and then
// fixes the checksum reaches the structural validators, which must fail
// typed at every cut point and never panic — over a captured artifact,
// and over a synthetic version-1 artifact whose fired manifest carries
// every term tag, so the skip path's per-tag error paths are all walked.
func TestDecodeResealedDamage(t *testing.T) {
	artifacts := map[string][]byte{}
	_, _, captured := captureEncoded(t, `person(alice). knows(alice, bob).
		knows(X, Y) -> person(Y).
		person(X) -> ∃Y id(X, Y).`)
	artifacts["captured"] = captured

	inst := logic.NewInstance()
	inst.Add(logic.MakeAtom("p", logic.Constant("a")))
	cp := &Checkpoint{Instance: inst, State: &chase.ResumeState{DeltaStart: inst.Len()}}
	v2, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	synthetic := asV1(v2, everyTag)
	if _, err := Decode(synthetic); err != nil {
		t.Fatalf("synthetic version-1 artifact: %v", err)
	}
	artifacts["synthetic"] = synthetic

	for name, data := range artifacts {
		t.Run(name, func(t *testing.T) {
			payload := data[:len(data)-checksumLen]
			// Every proper prefix, re-sealed: past the integrity gate,
			// each section's truncation branch fires in turn.
			for i := range payload {
				if _, err := Decode(seal(payload[:i])); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("re-sealed truncation at %d: err = %v, want ErrCorrupt", i, err)
				}
			}
			// Trailing garbage past a complete artifact.
			if _, err := Decode(seal(append(append([]byte{}, payload...), 0))); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("trailing byte: err = %v, want ErrCorrupt", err)
			}
			// Every single-byte flip, re-sealed: either the mutation is
			// benign (a renamed constant still decodes) or it fails typed.
			for i := range payload {
				for _, mask := range []byte{0x01, 0x41, 0xFF} {
					q := append([]byte{}, payload...)
					q[i] ^= mask
					if _, err := Decode(seal(q)); err != nil && !errors.Is(err, ErrCorrupt) {
						t.Fatalf("flip %#x at %d: err = %v, want nil or ErrCorrupt", mask, i, err)
					}
				}
			}
		})
	}
}

// Encode refuses an incomplete checkpoint instead of writing an artifact
// that cannot decode.
func TestEncodeRefusals(t *testing.T) {
	if _, err := (&Checkpoint{}).Encode(); err == nil {
		t.Fatal("incomplete checkpoint must refuse to encode")
	}
	if _, err := (&Checkpoint{Instance: logic.NewInstance()}).Encode(); err == nil {
		t.Fatal("checkpoint without resume state must refuse to encode")
	}
}
