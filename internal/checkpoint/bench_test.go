package checkpoint

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/families"
	"repro/internal/logic"
	"repro/internal/parser"
)

// benchProgram is transitive closure over an n-node path: the chase
// derives all ~n²/2 reachability pairs, and the join work per derived
// atom is what a delta resume avoids re-paying.
func benchProgram(tb testing.TB, n int) *parser.Program {
	tb.Helper()
	var b strings.Builder
	for i := range n {
		fmt.Fprintf(&b, "e(n%d, n%d).\n", i, i+1)
	}
	b.WriteString("e(X, Y), e(Y, Z) -> e(X, Z).\n")
	prog, err := parser.Parse(b.String())
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// BenchmarkResumeVsFull compares serving a one-edge base-data delta by
// full re-chase against resuming a checkpoint, all with a warm compile
// cache (the serving configuration: the service's cache holds the
// ontology's compiled programs across requests). Two resume shapes:
//
//   - resume/warm: a resident decoded checkpoint serves the delta
//     directly (Resume clones the checkpointed instance; the checkpoint
//     itself is reusable across requests) — the steady-state mode.
//   - resume/decode: the whole cold-artifact path per request — Decode,
//     then Resume with the delta.
//
// The delta extends the path by one edge, so the resumed semi-naive
// window holds one atom and only its ~n consequences are derived, while
// a full re-chase re-joins all ~n²/2 pairs.
func BenchmarkResumeVsFull(b *testing.B) {
	const n = 64
	prog := benchProgram(b, n)
	cache := compile.NewCache(8)
	opts := chase.Options{Compile: cache}

	base := chase.Run(prog.Database, prog.Rules, chase.Options{Compile: cache, Checkpoint: true})
	if !base.Terminated {
		b.Fatal("base run must terminate")
	}
	cp, err := Capture(prog.Rules, base)
	if err != nil {
		b.Fatal(err)
	}
	artifact, err := cp.Encode()
	if err != nil {
		b.Fatal(err)
	}
	deltaAtom := logic.MakeAtom("e", logic.Constant(fmt.Sprintf("n%d", n)), logic.Constant("fresh"))

	fullDB := prog.Database.Clone()
	fullDB.Add(deltaAtom)

	resident, err := Decode(artifact)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("full/cold", func(b *testing.B) {
		for b.Loop() {
			cold := compile.NewCache(8)
			res := chase.Run(fullDB, prog.Rules, chase.Options{Compile: cold})
			if !res.Terminated {
				b.Fatal("not terminated")
			}
		}
	})
	b.Run("full/warm", func(b *testing.B) {
		for b.Loop() {
			res := chase.Run(fullDB, prog.Rules, opts)
			if !res.Terminated {
				b.Fatal("not terminated")
			}
		}
	})
	b.Run("resume/warm", func(b *testing.B) {
		for b.Loop() {
			res, err := resident.Resume(prog.Rules, []*logic.Atom{deltaAtom}, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Terminated {
				b.Fatal("not terminated")
			}
		}
	})
	b.Run("resume/decode", func(b *testing.B) {
		for b.Loop() {
			cp, err := Decode(artifact)
			if err != nil {
				b.Fatal(err)
			}
			res, err := cp.Resume(prog.Rules, []*logic.Atom{deltaAtom}, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Terminated {
				b.Fatal("not terminated")
			}
		}
	})
}

// resumeDeltaCycle is one resume-delta request at the layer level over a
// University(100) artifact: Decode it, Resume it with one new student's
// enrolment, Capture the result and Encode the next artifact, with a warm
// compile cache. The returned func runs one request and returns its
// artifact.
func resumeDeltaCycle(tb testing.TB) func() []byte {
	tb.Helper()
	w := families.University(100, 1)
	opts := chase.Options{Compile: compile.NewCache(8), Checkpoint: true}
	base := chase.Run(w.Database, w.Sigma, opts)
	if !base.Terminated {
		tb.Fatal("base run must terminate")
	}
	cp, err := Capture(w.Sigma, base)
	if err != nil {
		tb.Fatal(err)
	}
	artifact, err := cp.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	delta := []*logic.Atom{logic.MakeAtom("enrolled", logic.Constant("new0"), logic.Constant("c0"))}
	return func() []byte {
		dec, err := Decode(artifact)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := dec.Resume(w.Sigma, delta, opts)
		if err != nil {
			tb.Fatal(err)
		}
		next, err := Capture(w.Sigma, res)
		if err != nil {
			tb.Fatal(err)
		}
		out, err := next.Encode()
		if err != nil {
			tb.Fatal(err)
		}
		return out
	}
}

// BenchmarkCheckpointCycle times resumeDeltaCycle's request. CI pins its
// allocs/op.
func BenchmarkCheckpointCycle(b *testing.B) {
	cycle := resumeDeltaCycle(b)
	b.ReportAllocs()
	for b.Loop() {
		cycle()
	}
}

// TestResumeDeltaSpendsNoSymbolIDs is a soak test of resume-delta serving:
// resumeDeltaCycle's request, 20 times. A decoded or invented null takes
// no symbol id, and every constant is known after the first request, so
// the symbol table's high-water mark must not move after it, and every
// request must encode the same artifact.
func TestResumeDeltaSpendsNoSymbolIDs(t *testing.T) {
	cycle := resumeDeltaCycle(t)
	first := cycle()
	ids := logic.GroundIDs()
	for i := 1; i < 20; i++ {
		if !bytes.Equal(cycle(), first) {
			t.Fatalf("request %d encoded another artifact", i)
		}
		if got := logic.GroundIDs(); got != ids {
			t.Fatalf("request %d: symbol ids rose from %d to %d", i, ids, got)
		}
	}
}
