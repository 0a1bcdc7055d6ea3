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

// Delta atoms and checkpointed null ids: a delta atom that carries a null
// is refused, since its id could name a checkpointed or an invented null.
// A null-free delta's fresh nulls number from the artifact's NextNullID,
// above every null the checkpointed run interned and not only above the
// instance's largest (the regression this pins: seeding the factory from
// the instance's max null id alone would collide with interned-but-
// unapplied checkpoint nulls).
func TestResumeDeltaNullCollision(t *testing.T) {
	prog, res, data := captureEncoded(t, `r(a, b).
		r(X, Y) -> ∃Z s(Y, Z).
		s(Y, Z) -> t(Z).`)
	cp, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	hostile, _ := logic.NewNullFactoryAt(cp.State.NextNullID+2).Intern("h", 1)
	bad := []*logic.Atom{logic.MakeAtom("r", logic.Constant("z"), hostile)}
	if _, err := cp.Resume(prog.Rules, bad, chase.Options{}); !errors.Is(err, chase.ErrDeltaNull) {
		t.Fatalf("delta null: err = %v, want chase.ErrDeltaNull", err)
	}

	// Raise the mark above the instance's nulls, as interned but unapplied
	// nulls do, and carry it through an artifact.
	cp.State.NextNullID += 2
	if data, err = cp.Encode(); err != nil {
		t.Fatal(err)
	}
	if cp, err = Decode(data); err != nil {
		t.Fatal(err)
	}
	delta := []*logic.Atom{logic.MakeAtom("r", logic.Constant("z"), logic.Constant("c"))}
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
	if got := out.Instance.MaxNullID(); got != cp.State.NextNullID {
		t.Fatalf("fresh null numbered %d, want NextNullID %d", got, cp.State.NextNullID)
	}
}

// A resume that runs out of null ids fails typed, through the artifact
// and through chase.Resume alike, and does not panic. One id below the
// limit is room for exactly one fresh null.
func TestResumeNullIDsExhausted(t *testing.T) {
	prog, _, data := captureEncoded(t, `r(a, b).
		r(X, Y) -> ∃Z s(Y, Z).`)
	cp, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	cp.State.NextNullID = logic.NullIDs - 1
	if data, err = cp.Encode(); err != nil {
		t.Fatal(err)
	}
	if cp, err = Decode(data); err != nil {
		t.Fatal(err)
	}
	r := func(x, y string) *logic.Atom {
		return logic.MakeAtom("r", logic.Constant(x), logic.Constant(y))
	}
	one, err := cp.Resume(prog.Rules, []*logic.Atom{r("z", "c")}, chase.Options{})
	if err != nil {
		t.Fatalf("one fresh null at id 2^30-1: %v", err)
	}
	if got := one.Instance.MaxNullID(); got != logic.NullIDs-1 {
		t.Fatalf("fresh null numbered %d, want 2^30-1", got)
	}
	delta := []*logic.Atom{r("z", "c"), r("z", "d")}
	_, viaArtifact := cp.Resume(prog.Rules, delta, chase.Options{})
	if !errors.Is(viaArtifact, logic.ErrNullIDsExhausted) {
		t.Fatalf("Checkpoint.Resume: err = %v, want logic.ErrNullIDsExhausted", viaArtifact)
	}
	_, direct := chase.Resume(cp.Instance, delta, prog.Rules, cp.State, chase.Options{Variant: cp.Variant})
	if direct == nil || direct.Error() != viaArtifact.Error() {
		t.Fatalf("chase.Resume: err = %v, want %v", direct, viaArtifact)
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

// TestEncodeOneNullPerFactoryID: a null is its factory id, so two
// factories' nulls with one id are one term. The instance holds them as
// one atom, and the artifact decodes to the same one-null instance. A
// NextNullID past the null id space does not decode.
func TestEncodeOneNullPerFactoryID(t *testing.T) {
	f1, f2 := logic.NewNullFactory(), logic.NewNullFactory()
	n1, _ := f1.Intern("a", 1)
	n2, _ := f2.Intern("b", 1)
	inst := logic.NewInstance()
	inst.Add(logic.MakeAtom("p", n1))
	if inst.Add(logic.MakeAtom("p", n2)) {
		t.Fatal("p(n2) added beside p(n1)")
	}
	inst.Add(logic.MakeAtom("q", n1, n2))
	cp := &Checkpoint{Instance: inst, State: &chase.ResumeState{NextNullID: 1, DeltaStart: inst.Len()}}
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Instance.CanonicalKey() != inst.CanonicalKey() {
		t.Fatalf("decoded %v, want %v", back.Instance, inst)
	}
	if q := back.Instance.Atoms()[1]; q.Args[0] != q.Args[1] {
		t.Fatalf("decoded %v: want one null in both positions", q)
	}
	cp.State.NextNullID = logic.NullIDs
	if data, err = cp.Encode(); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NextNullID 2^30: err = %v, want ErrCorrupt", err)
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
