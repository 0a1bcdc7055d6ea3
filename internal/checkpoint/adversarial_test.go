package checkpoint

import (
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/logic"
	"repro/internal/parser"
)

func captureEncoded(t *testing.T, src string) (*parser.Program, *chase.Result, []byte) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res := chase.Run(prog.Database, prog.Rules, chase.Options{Checkpoint: true})
	cp, err := Capture(prog.Rules, res)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return prog, res, data
}

// A checkpoint from ontology A refuses to resume against ontology B —
// and, sharper, against a clause-reordered version of A itself: the
// canonical fingerprint cannot tell those apart, but the continuation's
// byte identity and canonical null names follow clause order, so the
// exact clause-sequence digest must.
func TestValidateRejectsWrongOntology(t *testing.T) {
	const a = `e(a, b). s(a).
		e(X, Y), s(X) -> ∃W m(Y, W).
		m(X, W) -> s(X).`
	_, _, data := captureEncoded(t, a)
	cp, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	other, err := parser.ParseRules(`e(X, Y) -> p(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Validate(other); !errors.Is(err, ErrMismatch) {
		t.Fatalf("foreign ontology: err = %v, want ErrMismatch", err)
	}
	if _, err := cp.Resume(other, nil, chase.Options{}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("resume against foreign ontology: err = %v, want ErrMismatch", err)
	}

	// Same clauses, reversed order: fingerprint-identical, digest-distinct.
	reordered, err := parser.ParseRules(`m(X, W) -> s(X).
		e(X, Y), s(X) -> ∃W m(Y, W).`)
	if err != nil {
		t.Fatal(err)
	}
	if compile.Of(reordered) != cp.Fingerprint {
		t.Fatal("setup: canonical fingerprint must be order-insensitive")
	}
	err = cp.Validate(reordered)
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("reordered clauses: err = %v, want ErrMismatch", err)
	}
	if !strings.Contains(err.Error(), "clause sequence") {
		t.Fatalf("reordered-clause mismatch should name the clause sequence: %v", err)
	}
}

// Truncated artifacts refuse with ErrCorrupt at every cut point, and
// single-byte corruption never slips past the checksum; neither panics.
func TestDecodeRejectsDamage(t *testing.T) {
	_, _, data := captureEncoded(t, `person(alice). knows(alice, bob).
		knows(X, Y) -> person(Y).
		person(X) -> ∃Y id(X, Y).`)
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		if _, err := Decode(data[:i]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	for i := 0; i < len(data); i++ {
		mutated := append([]byte{}, data...)
		mutated[i] ^= 0x41
		if _, err := Decode(mutated); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// Interior defects behind a recomputed checksum (an attacker, or a buggy
// writer, can fix the checksum) still fail typed: the decoder validates
// structure, not just integrity.
func TestDecodeRejectsInternalDefects(t *testing.T) {
	_, _, data := captureEncoded(t, `e(a, b). s(a).
		e(X, Y), s(X) -> ∃W m(Y, W).`)
	v1, err := os.ReadFile(filepath.Join("testdata", "quickstart-v1.checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	withVersion := func(v byte) func([]byte) []byte {
		return func(p []byte) []byte { q := append([]byte{}, p...); q[2] = v; return q }
	}
	cutLast := func(p []byte) []byte { return p[:len(p)-1] }
	cases := map[string]struct {
		artifact []byte
		mutate   func([]byte) []byte
	}{
		// The last byte of a version-2 payload is the snapshot's.
		"snapshot cut": {data, cutLast},
		"magic":        {data, func(p []byte) []byte { q := append([]byte{}, p...); q[0] = 'X'; return q }},
		"version":      {data, withVersion(0x63)},
		"version 0":    {data, withVersion(0)},
		// Version 1 is rejected at its version number, whole or cut.
		"version 1 without fired sections": {data, withVersion(1)},
		"fired section cut":                {v1, cutLast},
		// A version-1 body labelled version 2 has trailing bytes: the
		// fired sections past the snapshot.
		"version 2 with fired sections": {v1, withVersion(2)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			payload := tc.artifact[:len(tc.artifact)-checksumLen]
			q := tc.mutate(append([]byte{}, payload...))
			if _, err := Decode(seal(q)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// Delta atoms interact with checkpointed null ids: a delta atom may carry
// a null of its own, and the resumed run numbers its fresh nulls above
// both the high-water mark and anything the delta introduced — no id is
// ever reused (the regression this pins: seeding the factory from the
// instance's max null id alone would collide with interned-but-unapplied
// checkpoint nulls).
func TestResumeDeltaNullCollision(t *testing.T) {
	prog, res, data := captureEncoded(t, `r(a, b).
		r(X, Y) -> ∃Z s(Y, Z).
		s(Y, Z) -> t(Z).`)
	cp, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	// A delta atom carrying a null above the checkpoint's high-water
	// mark, as a hostile client could send.
	hostile := logic.NewNullFactory()
	n := hostile.NullAt(cp.State.NextNullID+2, 1)
	delta := []*logic.Atom{logic.MakeAtom("r", logic.Constant("z"), n)}

	out, err := cp.Resume(prog.Rules, delta, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Terminated {
		t.Fatal("resumed run must terminate")
	}
	if out.Instance.Len() <= res.Instance.Len()+1 {
		t.Fatal("delta should have fired the existential rule")
	}
	seen := map[string]logic.Term{}
	for _, a := range out.Instance.Atoms() {
		for _, tm := range a.Args {
			if _, ok := tm.(*logic.Null); !ok {
				continue
			}
			if prev, dup := seen[tm.Key()]; dup && prev != tm {
				t.Fatalf("two distinct nulls share key %q", tm.Key())
			}
			seen[tm.Key()] = tm
		}
	}
}

// Capture demands resumable state: no Options.Checkpoint, or a dirty
// stop, → ErrNotResumable.
func TestCaptureRequiresResumableState(t *testing.T) {
	prog, err := parser.Parse(`r(a). r(b). r(c). r(d).
		r(X) -> ∃Z s(X, Z).`)
	if err != nil {
		t.Fatal(err)
	}
	plain := chase.Run(prog.Database, prog.Rules, chase.Options{})
	if _, err := Capture(prog.Rules, plain); !errors.Is(err, ErrNotResumable) {
		t.Fatalf("checkpoint off: err = %v, want ErrNotResumable", err)
	}
	dirty := chase.Run(prog.Database, prog.Rules, chase.Options{Checkpoint: true, MaxAtoms: 5})
	if dirty.Resume != nil {
		t.Fatal("setup: mid-apply budget stop must be dirty")
	}
	if _, err := Capture(prog.Rules, dirty); !errors.Is(err, ErrNotResumable) {
		t.Fatalf("dirty stop: err = %v, want ErrNotResumable", err)
	}
}

// Encode refuses instances whose nulls cannot be expressed portably:
// two distinct nulls sharing a factory id would silently merge on the
// wire (the conflation hazard the wire identity has by construction).
func TestEncodeRejectsConflatableNulls(t *testing.T) {
	f1, f2 := logic.NewNullFactory(), logic.NewNullFactory()
	n1, _ := f1.Intern("a", 1)
	n2, _ := f2.Intern("b", 1)
	if n1.ID() != n2.ID() {
		t.Fatal("setup: ids should collide")
	}
	inst := logic.NewInstance()
	inst.Add(logic.MakeAtom("p", n1))
	inst.Add(logic.MakeAtom("p", n2))
	cp := &Checkpoint{
		Instance: inst,
		State:    &chase.ResumeState{DeltaStart: inst.Len()},
	}
	if _, err := cp.Encode(); err == nil || !strings.Contains(err.Error(), "share factory id") {
		t.Fatalf("err = %v, want factory-id conflation refusal", err)
	}
	// A factory id past MaxInt32 is refused too: the wire could not read
	// it back, and its low 32 bits agree with n1's.
	wide, _ := logic.NewNullFactoryAt(1<<32).Intern("c", 1)
	inst = logic.NewDatabase(logic.MakeAtom("p", n1), logic.MakeAtom("p", wide))
	cp = &Checkpoint{Instance: inst, State: &chase.ResumeState{DeltaStart: inst.Len()}}
	if _, err := cp.Encode(); err == nil || !strings.Contains(err.Error(), "exceeds the wire's range") {
		t.Fatalf("err = %v, want out-of-range refusal", err)
	}
}

// seal appends a fresh checksum so interior mutations reach the
// structural validators instead of dying at the integrity gate. It
// returns a new slice: appending in place would overwrite the bytes
// after a truncated prefix, which callers go on to read.
func seal(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(payload[:len(payload):len(payload)], sum[:checksumLen]...)
}
