package checkpoint

import (
	"errors"
	"testing"

	"repro/internal/chase"
	"repro/internal/logic"
)

// Re-sealed damage: a writer that truncates or flips bytes and then
// fixes the checksum reaches the structural validators, which must fail
// typed at every cut point and never panic — over a captured artifact,
// and over a synthetic one encoded from a hand-built instance.
func TestDecodeResealedDamage(t *testing.T) {
	artifacts := map[string][]byte{}
	_, _, captured := captureEncoded(t, `person(alice). knows(alice, bob).
		knows(X, Y) -> person(Y).
		person(X) -> ∃Y id(X, Y).`)
	artifacts["captured"] = captured

	inst := logic.NewInstance()
	inst.Add(logic.MakeAtom("p", logic.Constant("a")))
	cp := &Checkpoint{Instance: inst, State: &chase.ResumeState{DeltaStart: inst.Len()}}
	synthetic, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
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
