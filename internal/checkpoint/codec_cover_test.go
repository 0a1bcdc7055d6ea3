package checkpoint

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/chase"
	"repro/internal/logic"
)

// foreign is a term kind defined outside internal/logic. A decoded
// foreign record interns through the symbol table's foreign-key path,
// so it resolves to the same symbol id as the original value.
type foreign struct{ key, rendering string }

func (f foreign) Key() string    { return f.key }
func (f foreign) String() string { return f.rendering }

// The fired-key manifest speaks the wire codec's full tag vocabulary,
// not just the constants and nulls a ground chase produces: fresh terms
// ('f', zigzag-signed), variables ('v'), and foreign term kinds ('o')
// must survive encode∘decode, and the decoded checkpoint must re-encode
// to the identical bytes (the fixpoint the format promises).
func TestCodecSyntheticTermManifest(t *testing.T) {
	inst := logic.NewInstance()
	inst.Add(logic.MakeAtom("p", logic.Constant("a")))
	f := logic.NewNullFactory()
	n, _ := f.Intern("seed", 2)
	inst.Add(logic.MakeAtom("q", n))
	var nullID int32 = -1
	for _, a := range inst.Atoms() {
		if a.Pred.Name == "q" {
			nullID = a.ArgID(0)
		}
	}
	if nullID < 0 {
		t.Fatal("setup: null atom not found")
	}

	probe := foreign{key: "ext:probe", rendering: "⟨probe⟩"}
	cp := &Checkpoint{
		Variant:    chase.Oblivious,
		Terminated: true,
		Rounds:     3,
		Instance:   inst,
		State: &chase.ResumeState{
			Variant:    chase.Oblivious,
			NextNullID: 7,
			DeltaStart: inst.Len(),
			Fired: [][]int32{
				{0, logic.IDOf(logic.Constant("a")), nullID},
				{1, logic.IDOf(logic.Fresh(-9)), logic.IDOf(logic.Variable("X"))},
				{2, logic.IDOf(probe)},
			},
		},
	}
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Variant != cp.Variant || !got.Terminated || got.Rounds != cp.Rounds {
		t.Fatalf("header round trip: %+v", got)
	}
	if got.State.NextNullID != 7 || got.State.DeltaStart != inst.Len() {
		t.Fatalf("state round trip: %+v", got.State)
	}
	if len(got.State.Fired) != len(cp.State.Fired) {
		t.Fatalf("%d fired tuples, want %d", len(got.State.Fired), len(cp.State.Fired))
	}
	for i, tuple := range got.State.Fired {
		if len(tuple) != len(cp.State.Fired[i]) || tuple[0] != cp.State.Fired[i][0] {
			t.Fatalf("fired tuple %d = %v, want shape of %v", i, tuple, cp.State.Fired[i])
		}
	}
	again, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("encode∘decode is not a fixpoint over the synthetic manifest")
	}
}

// Re-sealed damage: a writer that truncates or flips bytes and then
// fixes the checksum reaches the structural validators, which must fail
// typed at every cut point and never panic — over an artifact whose
// manifest carries every term tag, so the per-tag decode error paths are
// all walked.
func TestDecodeResealedDamage(t *testing.T) {
	artifacts := map[string][]byte{}
	_, _, captured := captureEncoded(t, `person(alice). knows(alice, bob).
		knows(X, Y) -> person(Y).
		person(X) -> ∃Y id(X, Y).`)
	artifacts["captured"] = captured

	inst := logic.NewInstance()
	inst.Add(logic.MakeAtom("p", logic.Constant("a")))
	cp := &Checkpoint{
		Instance: inst,
		State: &chase.ResumeState{
			DeltaStart: inst.Len(),
			Fired: [][]int32{
				{0, logic.IDOf(logic.Fresh(5)), logic.IDOf(logic.Variable("Y"))},
				{1, logic.IDOf(foreign{key: "ext:d", rendering: "⟨d⟩"}), logic.IDOf(logic.Constant("a"))},
			},
		},
	}
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

// Encode's refusals: incomplete checkpoints, empty fired keys, and fired
// keys naming symbol ids with no registered term are diagnosed, not
// encoded into artifacts that cannot decode.
func TestEncodeRefusals(t *testing.T) {
	if _, err := (&Checkpoint{}).Encode(); err == nil {
		t.Fatal("incomplete checkpoint must refuse to encode")
	}

	inst := logic.NewInstance()
	inst.Add(logic.MakeAtom("p", logic.Constant("a")))
	empty := &Checkpoint{Instance: inst, State: &chase.ResumeState{Fired: [][]int32{{}}}}
	if _, err := empty.Encode(); err == nil {
		t.Fatal("empty fired key must refuse to encode")
	}

	unregistered := &Checkpoint{Instance: inst, State: &chase.ResumeState{
		Fired: [][]int32{{0, 1<<30 + 7}},
	}}
	if _, err := unregistered.Encode(); err == nil {
		t.Fatal("fired key with an unregistered symbol id must refuse to encode")
	}
}
