package checkpoint

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/families"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/wire"
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
//   - resume/decode+apply: the whole cold-artifact path per request —
//     Decode, ApplyDelta, Resume.
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
	grownWire := base.Instance.Clone()
	grownWire.Add(deltaAtom)
	blob := wire.EncodeDelta(grownWire, base.Instance.Len())

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
	b.Run("resume/decode+apply", func(b *testing.B) {
		for b.Loop() {
			cp, err := Decode(artifact)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cp.ApplyDelta(blob); err != nil {
				b.Fatal(err)
			}
			res, err := cp.Resume(prog.Rules, nil, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Terminated {
				b.Fatal("not terminated")
			}
		}
	})
}

// BenchmarkCheckpointCycle is one resume-delta request at the layer
// level: Decode a University(100) artifact, Resume it with one new
// student's enrolment, Capture the result and Encode the next artifact,
// with a warm compile cache. CI pins its allocs/op.
func BenchmarkCheckpointCycle(b *testing.B) {
	w := families.University(100, 1)
	cache := compile.NewCache(8)
	opts := chase.Options{Compile: cache, Checkpoint: true}
	base := chase.Run(w.Database, w.Sigma, opts)
	if !base.Terminated {
		b.Fatal("base run must terminate")
	}
	cp, err := Capture(w.Sigma, base)
	if err != nil {
		b.Fatal(err)
	}
	artifact, err := cp.Encode()
	if err != nil {
		b.Fatal(err)
	}
	delta := []*logic.Atom{logic.MakeAtom("enrolled", logic.Constant("new0"), logic.Constant("c0"))}
	b.ReportAllocs()
	for b.Loop() {
		dec, err := Decode(artifact)
		if err != nil {
			b.Fatal(err)
		}
		res, err := dec.Resume(w.Sigma, delta, opts)
		if err != nil {
			b.Fatal(err)
		}
		next, err := Capture(w.Sigma, res)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := next.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}
