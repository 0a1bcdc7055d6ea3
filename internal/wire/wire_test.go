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

// TestDeltaStream encodes a chase result as snapshot(D) + one delta per
// round prefix and replays the stream through one Decoder.
func TestDeltaStream(t *testing.T) {
	for name, prog := range scenarios(t) {
		t.Run(name, func(t *testing.T) {
			// Progress fires at every round boundary with the instance
			// length so far — exactly the per-round prefixes a delta
			// publisher would ship.
			var prefixes []int
			opts := chase.Options{
				MaxAtoms: 200,
				Progress: func(s chase.Stats) { prefixes = append(prefixes, s.Atoms) },
			}
			res := chase.Run(prog.Database, prog.Rules, opts)
			data := EncodeSnapshot(prog.Database)
			d := NewDecoder()
			if _, err := d.Snapshot(data); err != nil {
				t.Fatal(err)
			}
			from := prog.Database.Len()
			for _, upto := range append(prefixes, res.Instance.Len()) {
				if upto < from {
					continue
				}
				delta := EncodeDelta(sliceInstance(res.Instance, upto), from)
				if _, err := d.Apply(delta); err != nil {
					t.Fatal(err)
				}
				from = upto
			}
			sameInstance(t, d.Instance(), res.Instance)
		})
	}
}

// sliceInstance rebuilds the insertion-order prefix of length n as its
// own instance (the shape a per-round publisher would hold).
func sliceInstance(in *logic.Instance, n int) *logic.Instance {
	out := logic.NewInstance()
	for _, a := range in.Atoms()[:n] {
		out.Add(a)
	}
	return out
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
	if got := dec.MaxDepth(); got != in.MaxDepth() {
		t.Fatalf("MaxDepth %d, want %d", got, in.MaxDepth())
	}
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
	// the result — the advertised snapshot/per-round-delta flow.
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
		"delta kind":   EncodeDelta(logic.NewInstance(), 0),
		"foreign null": foreignWithKey("n\x00zz"),
		"foreign var":  foreignWithKey("v\x00x"),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeSnapshot(data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
	t.Run("delta mismatch", func(t *testing.T) {
		d := NewDecoder()
		if _, err := d.Snapshot(good); err != nil {
			t.Fatal(err)
		}
		delta := EncodeDelta(logic.NewDatabase(logic.MakeAtom("q", logic.Constant("b"))), 0)
		// The decoded instance holds 1 atom, the delta claims base 0.
		if _, err := d.Apply(delta); !errors.Is(err, ErrDeltaMismatch) {
			t.Fatalf("err = %v, want ErrDeltaMismatch", err)
		}
	})
	t.Run("corrupt delta is atomic and poisons", func(t *testing.T) {
		d := NewDecoder()
		if _, err := d.Snapshot(good); err != nil {
			t.Fatal(err)
		}
		base := logic.NewDatabase(logic.MakeAtom("p", logic.Constant("a")))
		grown := base.Clone()
		grown.Add(logic.MakeAtom("q", logic.Constant("b")))
		grown.Add(logic.MakeAtom("q", logic.Constant("c")))
		delta := EncodeDelta(grown, 1)
		truncated := delta[:len(delta)-1] // lose the final atom's term index
		before := d.Instance().CanonicalKey()
		if d.Err() != nil {
			t.Fatalf("healthy stream reports Err = %v", d.Err())
		}
		first, err := d.Apply(truncated)
		if first != 0 || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if d.Instance().CanonicalKey() != before {
			t.Fatal("corrupt delta half-applied: the decoded instance changed")
		}
		// The stream is poisoned: even the intact delta is refused, with an
		// error that wraps both ErrCorrupt and the original defect, and
		// Err() reports the defect itself.
		if _, err := d.Apply(delta); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("poisoned Apply err = %v, want ErrCorrupt", err)
		}
		if _, err := d.Snapshot(good); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("poisoned Snapshot err = %v, want ErrCorrupt", err)
		}
		if d.Err() == nil || !errors.Is(d.Err(), ErrCorrupt) {
			t.Fatalf("Err() = %v, want the poisoning defect", d.Err())
		}
		if d.Instance().CanonicalKey() != before {
			t.Fatal("poisoned calls mutated the decoded instance")
		}
	})
	t.Run("mismatched delta base poisons", func(t *testing.T) {
		d := NewDecoder()
		if _, err := d.Snapshot(good); err != nil {
			t.Fatal(err)
		}
		bad := EncodeDelta(logic.NewDatabase(logic.MakeAtom("q", logic.Constant("b"))), 0)
		if _, err := d.Apply(bad); !errors.Is(err, ErrDeltaMismatch) {
			t.Fatalf("err = %v, want ErrDeltaMismatch", err)
		}
		// Framing misuse poisons too: the caller lost sync with the stream.
		ok := EncodeDelta(logic.NewDatabase(logic.MakeAtom("p", logic.Constant("a")), logic.MakeAtom("q", logic.Constant("b"))), 1)
		if _, err := d.Apply(ok); !errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrDeltaMismatch) {
			t.Fatalf("poisoned err = %v, want ErrCorrupt wrapping ErrDeltaMismatch", err)
		}
	})
	t.Run("delta before snapshot", func(t *testing.T) {
		d := NewDecoder()
		if _, err := d.Apply(EncodeDelta(logic.NewInstance(), 0)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("double snapshot", func(t *testing.T) {
		d := NewDecoder()
		if _, err := d.Snapshot(good); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Snapshot(good); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

// TestDecodeRejectsNullAtTwoDepths: a null is one term at one depth, so
// an encoding that declares the same null id at two depths — twice in one
// manifest, or in a delta against the stream's snapshot — is corrupt.
// Accepting it would merge the two declared terms into the first one:
// two atoms decode as one, or a delta atom silently keeps the older
// depth. The check runs in the parse phase, so the failed frame leaves the
// instance and the null factory untouched.
func TestDecodeRejectsNullAtTwoDepths(t *testing.T) {
	if in, err := DecodeSnapshot(twoDepthSnapshot()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("snapshot with null 0 at depths 1 and 5: err = %v (decoded %v), want ErrCorrupt", err, in)
	}

	d := NewDecoder()
	snap, delta := redeclaringDelta()
	if _, err := d.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	before := d.Instance().CanonicalKey()
	if n, err := d.Apply(delta); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("delta re-declaring null 0 at depth 5: added %d atoms, err = %v, want ErrCorrupt", n, err)
	}
	if got := d.Instance().CanonicalKey(); got != before {
		t.Fatalf("failed delta changed the instance: %s, want %s", got, before)
	}
	if n := d.nulls.LookupNullAt(0); n == nil || n.Depth() != 1 {
		t.Fatalf("null 0 after the failed delta: %v, want depth 1", n)
	}
	if n := d.nulls.LookupNullAt(1); n != nil {
		t.Fatalf("failed delta created null 1 (depth %d)", n.Depth())
	}
}

// twoDepthSnapshot hand-assembles a snapshot whose manifest declares null
// 0 at depth 1 and again at depth 5, with atoms p(t0) and p(t1).
func twoDepthSnapshot() []byte {
	var w codec.Writer
	writeHeader(&w, kindSnapshot)
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

// redeclaringDelta returns a snapshot holding p(null 0 at depth 1) and a
// delta on it whose manifest re-declares null 0 at depth 5 and a new null
// 1, with atom q(t0, t1).
func redeclaringDelta() (snapshot, delta []byte) {
	nulls := logic.NewNullFactory()
	snapshot = EncodeSnapshot(logic.NewDatabase(logic.MakeAtom("p", nulls.NullAt(0, 1))))
	var w codec.Writer
	writeHeader(&w, kindDelta)
	w.Uint(1) // base
	w.Uint(1) // one predicate
	w.Str("q")
	w.Uint(2) // arity
	w.Uint(2) // two terms
	w.Byte('n')
	w.Uint(0)
	w.Uint(5)
	w.Byte('n')
	w.Uint(1)
	w.Uint(2)
	w.Uint(1) // one atom
	w.Uint(0)
	w.Uint(0)
	w.Uint(1)
	return snapshot, w.Bytes()
}

// foreignWithKey hand-assembles a snapshot whose single manifest term is
// a foreign record carrying the given identity key.
func foreignWithKey(key string) []byte {
	var w codec.Writer
	writeHeader(&w, kindSnapshot)
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
