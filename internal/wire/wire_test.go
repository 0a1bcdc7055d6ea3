package wire

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/codec"
	"repro/internal/logic"
	"repro/internal/parser"
)

// scenarios loads every example program under examples/dlgp.
func scenarios(t *testing.T) map[string]*parser.Program {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "dlgp")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*parser.Program)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".dlgp") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out[strings.TrimSuffix(e.Name(), ".dlgp")] = prog
	}
	if len(out) == 0 {
		t.Fatal("no example scenarios found")
	}
	return out
}

// sameInstance asserts the two instances are identical under every
// cross-process identity: canonical key, length, and insertion order of
// atom keys (which is what Seq and semi-naive deltas observe).
func sameInstance(t *testing.T, got, want *logic.Instance) {
	t.Helper()
	if got.CanonicalKey() != want.CanonicalKey() {
		t.Fatalf("canonical keys differ:\ngot  %s\nwant %s", got, want)
	}
	ga, wa := got.Atoms(), want.Atoms()
	if len(ga) != len(wa) {
		t.Fatalf("length %d, want %d", len(ga), len(wa))
	}
	for i := range ga {
		if ga[i].Key() != wa[i].Key() {
			t.Fatalf("insertion order diverges at %d: %v vs %v", i, ga[i], wa[i])
		}
	}
}

// TestSnapshotRoundTrip: decode(encode(D)) reproduces every example
// database exactly, and re-encoding is a byte-level fixpoint.
func TestSnapshotRoundTrip(t *testing.T) {
	for name, prog := range scenarios(t) {
		t.Run(name, func(t *testing.T) {
			data := EncodeSnapshot(prog.Database)
			dec, err := DecodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			sameInstance(t, dec, prog.Database)
			if again := EncodeSnapshot(dec); !bytes.Equal(again, data) {
				t.Fatalf("encode(decode(x)) is not a fixpoint: %d vs %d bytes", len(again), len(data))
			}
		})
	}
}

// TestChaseOnDecoded is the acceptance property: for every scenario and
// all three chase variants, a chase run on the decoded instance is
// CanonicalKey- and Stats-identical to the run on the original.
func TestChaseOnDecoded(t *testing.T) {
	variants := []chase.Variant{chase.SemiOblivious, chase.Oblivious, chase.Restricted}
	for name, prog := range scenarios(t) {
		for _, v := range variants {
			t.Run(name+"/"+v.String(), func(t *testing.T) {
				dec, err := DecodeSnapshot(EncodeSnapshot(prog.Database))
				if err != nil {
					t.Fatal(err)
				}
				opts := chase.Options{Variant: v, MaxAtoms: 400}
				want := chase.Run(prog.Database, prog.Rules, opts)
				got := chase.Run(dec, prog.Rules, opts)
				if got.Terminated != want.Terminated {
					t.Fatalf("Terminated = %v, want %v", got.Terminated, want.Terminated)
				}
				if got.Stats != want.Stats {
					t.Fatalf("stats %+v, want %+v", got.Stats, want.Stats)
				}
				sameInstance(t, got.Instance, want.Instance)
			})
		}
	}
}

// TestEncodingIsProcessIndependent builds the same instance content twice
// — through two independent null factories interleaved with unrelated
// symbol interning, so every process-local id differs — and asserts the
// encodings are byte-identical: the codec is a pure function of content.
func TestEncodingIsProcessIndependent(t *testing.T) {
	build := func(salt string) *logic.Instance {
		// Interning unrelated symbols first shifts all subsequently
		// assigned symbol-table ids.
		for i := 0; i < 5; i++ {
			logic.IDOf(logic.Constant(salt + string(rune('a'+i))))
		}
		f := logic.NewNullFactory()
		n0, _ := f.Intern("first", 1)
		n1, _ := f.Intern("second", 2)
		in := logic.NewInstance()
		in.Add(logic.MakeAtom("r", logic.Constant("a"), n0))
		in.Add(logic.MakeAtom("r", n0, n1))
		in.Add(logic.MakeAtom("s", logic.Fresh(7)))
		return in
	}
	a := EncodeSnapshot(build("wire_salt_one_"))
	b := EncodeSnapshot(build("wire_salt_two_"))
	if !bytes.Equal(a, b) {
		t.Fatal("equal-content instances encode differently: process-local state leaked into the encoding")
	}
}

// fancy is a foreign term kind (defined outside internal/logic).
type fancy int

func (f fancy) Key() string    { return "wiretest\x00" + string(rune('0'+f)) }
func (f fancy) String() string { return "fancy" + string(rune('0'+f)) }

// TestForeignTermRoundTrip: foreign term kinds survive as opaque
// key+rendering pairs, preserving CanonicalKey and the encode fixpoint.
func TestForeignTermRoundTrip(t *testing.T) {
	in := logic.NewInstance()
	in.Add(logic.MakeAtom("t", fancy(1), logic.Constant("c")))
	in.Add(logic.MakeAtom("t", fancy(2), fancy(1)))
	data := EncodeSnapshot(in)
	dec, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	sameInstance(t, dec, in)
	if again := EncodeSnapshot(dec); !bytes.Equal(again, data) {
		t.Fatal("foreign-term encoding is not a fixpoint")
	}
	if dec.Atoms()[0].String() != in.Atoms()[0].String() {
		t.Fatalf("rendering lost: %v vs %v", dec.Atoms()[0], in.Atoms()[0])
	}
}

// TestVariableRoundTrip: the codec is total — a (non-ground) instance
// containing variables round-trips instead of encoding to bytes the
// decoder would reject.
func TestVariableRoundTrip(t *testing.T) {
	in := logic.NewInstance()
	in.Add(logic.MakeAtom("p", logic.Variable("X"), logic.Constant("a")))
	data := EncodeSnapshot(in)
	dec, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	sameInstance(t, dec, in)
	if again := EncodeSnapshot(dec); !bytes.Equal(again, data) {
		t.Fatal("variable encoding is not a fixpoint")
	}
	if _, ok := dec.Atoms()[0].Args[0].(logic.Variable); !ok {
		t.Fatalf("decoded %T, want logic.Variable", dec.Atoms()[0].Args[0])
	}
}

// TestNullDepthSurvives: decoded nulls keep their factory id and depth,
// so depth-derived statistics agree across the wire.
func TestNullDepthSurvives(t *testing.T) {
	f := logic.NewNullFactory()
	n0, _ := f.Intern("a", 3)
	_, _ = f.Intern("unused", 1) // id 1 never appears in the instance
	n2, _ := f.Intern("b", 5)
	in := logic.NewInstance()
	in.Add(logic.MakeAtom("p", n0, n2))
	dec, err := DecodeSnapshot(EncodeSnapshot(in))
	if err != nil {
		t.Fatal(err)
	}
	sameInstance(t, dec, in)
	for i, a := range dec.Atoms() {
		for j, trm := range a.Args {
			if logic.TermDepth(trm) != logic.TermDepth(in.Atoms()[i].Args[j]) {
				t.Fatalf("depth of %v diverged", trm)
			}
		}
	}
}

// TestChaseOnDecodedNullsStayDistinct: chasing a decoded instance that
// already contains nulls must not conflate them with the nulls the run
// invents. The engine numbers invented nulls after the input's own
// (logic.NewNullFactoryAt), so old and new nulls stay distinct under
// every Key-derived identity, and the chased result survives a second
// encode→decode round trip unchanged.
func TestChaseOnDecodedNullsStayDistinct(t *testing.T) {
	// Produce a null-bearing snapshot: chase p(a) one round, then ship
	// the result, as a fleet worker ships its answer.
	seedProg, err := parser.Parse("p(a). p(X) -> ∃Y q(X, Y).")
	if err != nil {
		t.Fatal(err)
	}
	first := chase.Run(seedProg.Database, seedProg.Rules, chase.Options{})
	if first.Stats.Nulls == 0 {
		t.Fatal("seed chase invented no nulls")
	}
	dec, err := DecodeSnapshot(EncodeSnapshot(first.Instance))
	if err != nil {
		t.Fatal(err)
	}
	// Chase the decoded instance with a rule that invents a new null per
	// q-atom.
	rules, err := parser.ParseRules("q(X, Y) -> ∃Z r(Y, Z).")
	if err != nil {
		t.Fatal(err)
	}
	res := chase.Run(dec, rules, chase.Options{})
	keys := make(map[string]int)
	for _, a := range res.Instance.Atoms() {
		for _, trm := range a.Args {
			if _, ok := trm.(*logic.Null); ok {
				keys[trm.Key()]++
			}
		}
	}
	// ⊥0 from the snapshot (in q and r atoms) and the invented null of
	// the second run must have distinct keys.
	if len(keys) != 2 {
		t.Fatalf("expected 2 distinct null keys, got %v", keys)
	}
	// The chased result survives a second round trip: no nulls merge.
	again, err := DecodeSnapshot(EncodeSnapshot(res.Instance))
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != res.Instance.Len() || again.CanonicalKey() != res.Instance.CanonicalKey() {
		t.Fatalf("re-encoded chase result changed: %d atoms vs %d", again.Len(), res.Instance.Len())
	}
}

// TestDecodeErrors: corrupt inputs fail with typed, wrap-checkable
// errors instead of panicking or silently misdecoding.
func TestDecodeErrors(t *testing.T) {
	good := EncodeSnapshot(logic.NewDatabase(logic.MakeAtom("p", logic.Constant("a"))))
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    []byte("XX" + string(kindSnapshot) + "\x01"),
		"bad version":  []byte("CW" + string(kindSnapshot) + "\x63"),
		"truncated":    good[:len(good)-1],
		"trailing":     append(append([]byte{}, good...), 0),
		"foreign null": foreignWithKey("n\x00zz"),
		"foreign var":  foreignWithKey("v\x00x"),
		// A payload is one snapshot. The former delta kind is refused at
		// its header, and a second snapshot after the first is trailing
		// garbage, not a continuation.
		"delta kind":      deltaKind(good, 1),
		"double snapshot": append(append([]byte{}, good...), good...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeSnapshot(data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// deltaKind rewrites a snapshot encoding into the layout of the former
// delta kind: kind byte 'D', and a base length after the version.
func deltaKind(snapshot []byte, base uint64) []byte {
	var w codec.Writer
	w.Raw([]byte{'C', 'W', 'D'})
	w.Uint(Version)
	w.Uint(base)
	w.Raw(snapshot[4:]) // past "CW", the kind byte and the 1-byte version
	return w.Bytes()
}

// TestDecodeRejectsNullAtTwoDepths: a null is one term at one depth, so
// an encoding whose manifest declares the same null id at two depths is
// corrupt. Accepting it would merge the two declared terms into the first
// one: two atoms would decode as one.
func TestDecodeRejectsNullAtTwoDepths(t *testing.T) {
	if in, err := DecodeSnapshot(twoDepthSnapshot()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("snapshot with null 0 at depths 1 and 5: err = %v (decoded %v), want ErrCorrupt", err, in)
	}
}

// TestDecodeNullIDRange: a null's symbol id is logic.NullIDs plus its
// factory id, so a manifest null id of 2^30 or more is corrupt, while
// 2^30-1, the last id, decodes to the last symbol id.
func TestDecodeNullIDRange(t *testing.T) {
	in, err := DecodeSnapshot(nullSnapshot(logic.NullIDs - 1))
	if err != nil {
		t.Fatal(err)
	}
	if n := in.Atoms()[0].Args[0].(*logic.Null); n.ID() != logic.NullIDs-1 || logic.IDOf(n) != 1<<31-1 {
		t.Fatalf("null %d has symbol id %d", n.ID(), logic.IDOf(n))
	}
	for _, id := range []uint64{logic.NullIDs, 1<<31 - 1} {
		if in, err := DecodeSnapshot(nullSnapshot(id)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("null id %d: err = %v (decoded %v), want ErrCorrupt", id, err, in)
		}
	}
}

// TestDecodeOneNullPerID: a manifest that declares one null id twice, at
// one depth, decodes both declarations to one null.
func TestDecodeOneNullPerID(t *testing.T) {
	in, err := DecodeSnapshot(nullSnapshot(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a := in.Atoms()[0]; a.Args[0] != a.Args[1] || a.Args[0].Key() != "n\x003" {
		t.Fatalf("decoded %v: want one null ⊥3 in both positions", a)
	}
}

// nullSnapshot hand-assembles a snapshot whose manifest declares one null
// per id, each at depth 1, with the one atom p(t0, ..., tk).
func nullSnapshot(ids ...uint64) []byte {
	var w codec.Writer
	writeHeader(&w)
	w.Uint(1) // one predicate
	w.Str("p")
	w.Uint(uint64(len(ids)))
	w.Uint(uint64(len(ids)))
	for _, id := range ids {
		w.Byte('n')
		w.Uint(id)
		w.Uint(1)
	}
	w.Uint(1) // one atom
	w.Uint(0)
	for i := range ids {
		w.Uint(uint64(i))
	}
	return w.Bytes()
}

// TestDecodeOutOfRangeTermMaterializesNothing: a snapshot whose manifest
// is valid and declares a null, but whose atom references a term past the
// manifest, fails with ErrCorrupt before anything is materialized: no
// symbol id is spent on the manifest's terms.
func TestDecodeOutOfRangeTermMaterializesNothing(t *testing.T) {
	ids := logic.GroundIDs()
	if in, err := DecodeSnapshot(outOfRangeTerm(7)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v (decoded %v), want ErrCorrupt", err, in)
	}
	if got := logic.GroundIDs(); got != ids {
		t.Fatalf("failed snapshot spent %d symbol ids", got-ids)
	}
}

// outOfRangeTerm hand-assembles a snapshot whose manifest declares null
// id at depth 1 and a constant no other test interns, with one atom
// r(t0, t2) over the two-term manifest.
func outOfRangeTerm(id uint64) []byte {
	var w codec.Writer
	writeHeader(&w)
	w.Uint(1) // one predicate
	w.Str("r")
	w.Uint(2) // arity
	w.Uint(2) // two terms
	w.Byte('n')
	w.Uint(id)
	w.Uint(1)
	w.Byte('c')
	w.Str("out-of-range-term-constant")
	w.Uint(1) // one atom
	w.Uint(0)
	w.Uint(0)
	w.Uint(2) // past the manifest
	return w.Bytes()
}

// twoDepthSnapshot hand-assembles a snapshot whose manifest declares null
// 0 at depth 1 and again at depth 5, with atoms p(t0) and p(t1).
func twoDepthSnapshot() []byte {
	var w codec.Writer
	writeHeader(&w)
	w.Uint(1) // one predicate
	w.Str("p")
	w.Uint(1) // arity
	w.Uint(2) // two terms
	for _, depth := range []uint64{1, 5} {
		w.Byte('n')
		w.Uint(0)
		w.Uint(depth)
	}
	w.Uint(2) // two atoms
	w.Uint(0)
	w.Uint(0)
	w.Uint(0)
	w.Uint(1)
	return w.Bytes()
}

// foreignWithKey hand-assembles a snapshot whose single manifest term is
// a foreign record carrying the given identity key.
func foreignWithKey(key string) []byte {
	var w codec.Writer
	writeHeader(&w)
	w.Uint(1) // one predicate
	w.Str("p")
	w.Uint(1) // arity
	w.Uint(1) // one term
	w.Byte('o')
	w.Str(key)
	w.Str("x")
	w.Uint(1) // one atom
	w.Uint(0)
	w.Uint(0)
	return w.Bytes()
}
