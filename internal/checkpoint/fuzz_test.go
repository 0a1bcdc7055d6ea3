package checkpoint

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/chase"
	"repro/internal/parser"
)

// fuzzSeeds are the programs whose checkpoints seed the fuzzer (the
// checked-in corpus under testdata/fuzz was generated from the same
// set; see TestFuzzCorpusIsValid).
var fuzzSeeds = []string{
	`p(a). p(b).
		p(X) -> ∃Y r(X, Y).
		r(X, Y) -> p(Y).`,
	`e(a, b). s(a).
		e(X, Y), s(X) -> ∃W m(Y, W).
		m(X, W) -> s(X).`,
	`q(a).`,
}

func seedArtifacts(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, src := range fuzzSeeds {
		prog, err := parser.Parse(src)
		if err != nil {
			tb.Fatal(err)
		}
		for _, v := range []chase.Variant{chase.SemiOblivious, chase.Restricted} {
			res := chase.Run(prog.Database, prog.Rules, chase.Options{
				Variant:    v,
				Checkpoint: true,
				MaxRounds:  4,
			})
			cp, err := Capture(prog.Rules, res)
			if err != nil {
				tb.Fatal(err)
			}
			data, err := cp.Encode()
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, data)
		}
	}
	return out
}

// FuzzCheckpointRoundTrip pins the decoder's two contracts: hostile
// bytes either fail with ErrCorrupt (never a panic, never an untyped
// error) or decode to a checkpoint whose re-encoding is a fixpoint —
// Encode(Decode(data)) succeeds, decodes again, and re-encodes to the
// same bytes. The fixpoint is asserted from the first re-encode on, not
// against the input: a valid-but-non-canonical artifact may re-encode
// differently, but the encoder's output must be stable.
//
// Each input is checked twice: as raw bytes, and as a payload sealed
// with its checksum. Almost every mutation of a raw artifact fails the
// checksum before a single field is parsed; the sealed form takes the
// mutation past that gate to the parser.
func FuzzCheckpointRoundTrip(f *testing.F) {
	for _, data := range seedArtifacts(f) {
		f.Add(data)
		f.Add(data[:len(data)/2])
		mutated := append([]byte{}, data...)
		mutated[len(mutated)/3] ^= 0x10
		f.Add(mutated)
		f.Add(data[:len(data)-checksumLen])
	}
	f.Add([]byte{})
	f.Add([]byte("CP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRoundTrip(t, data)
		checkRoundTrip(t, seal(bytes.Clone(data)))
	})
}

func checkRoundTrip(t *testing.T, data []byte) {
	t.Helper()
	cp, err := Decode(data)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode failed with untyped error: %v", err)
		}
		return
	}
	enc1, err := cp.Encode()
	if err != nil {
		t.Fatalf("re-encode of a decoded checkpoint failed: %v", err)
	}
	cp2, err := Decode(enc1)
	if err != nil {
		t.Fatalf("decode of a re-encoded checkpoint failed: %v", err)
	}
	enc2, err := cp2.Encode()
	if err != nil {
		t.Fatalf("second re-encode failed: %v", err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("encode∘decode is not a fixpoint")
	}
	if cp2.Fingerprint != cp.Fingerprint || cp2.Exact != cp.Exact ||
		cp2.Variant != cp.Variant || cp2.Terminated != cp.Terminated ||
		cp2.Rounds != cp.Rounds ||
		cp2.State.NextNullID != cp.State.NextNullID ||
		cp2.State.DeltaStart != cp.State.DeltaStart ||
		len(cp2.State.Fired) != len(cp.State.Fired) {
		t.Fatal("round trip altered checkpoint header or state")
	}
}

// TestFuzzCorpusIsValid keeps the checked-in corpus honest: every seed
// artifact the corpus was generated from still decodes (the corpus
// files themselves run as part of the fuzz target's seed set).
func TestFuzzCorpusIsValid(t *testing.T) {
	for i, data := range seedArtifacts(t) {
		if _, err := Decode(data); err != nil {
			t.Fatalf("seed %d no longer decodes: %v", i, err)
		}
	}
}
