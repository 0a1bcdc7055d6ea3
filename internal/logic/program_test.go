package logic

import (
	"math/rand"
	"testing"
)

// A precompiled BodyProgram must reproduce the fresh-compile enumeration
// exactly: MatchAllProgs against MatchAllExt, for random instances and
// deltas. The same Matcher alternates between program-driven and
// fresh-compile calls, exercising the borrowed-buffer handoff.
func TestBodyProgramMatchesFreshCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x, y, z := Variable("X"), Variable("Y"), Variable("Z")
	bodies := [][]*Atom{
		{MakeAtom("e", x, y)},
		{MakeAtom("e", x, y), MakeAtom("e", y, z)},
		{MakeAtom("e", x, y), MakeAtom("p", y), MakeAtom("e", y, z)},
		{MakeAtom("e", x, x), MakeAtom("p", x)},
	}
	progs := make([][]*BodyProgram, len(bodies))
	for bi, body := range bodies {
		progs[bi] = make([]*BodyProgram, len(body))
		for seed := range body {
			progs[bi][seed] = CompileBodySeed(body, seed)
		}
	}
	render := func(m *Match) string { return m.Substitution().String() }
	for trial := 0; trial < 30; trial++ {
		in := NewInstance()
		total := 20 + rng.Intn(60)
		for i := 0; i < total; i++ {
			a := Constant(string(rune('a' + rng.Intn(8))))
			b := Constant(string(rune('a' + rng.Intn(8))))
			if rng.Intn(3) == 0 {
				in.Add(MakeAtom("p", a))
			} else {
				in.Add(MakeAtom("e", a, b))
			}
		}
		deltaStart := rng.Intn(in.Len())
		var mm Matcher // shared across program-driven and fresh calls on purpose
		for bi, body := range bodies {
			var want, got []string
			mm.MatchAllExt(body, in, deltaStart, func(m *Match) bool {
				want = append(want, render(m))
				return true
			})
			mm.MatchAllProgs(progs[bi], in, deltaStart, func(m *Match) bool {
				got = append(got, render(m))
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("trial %d body %v: programs yield %d matches, fresh compile %d",
					trial, body, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d body %v: match %d differs: program %q, fresh %q",
						trial, body, i, got[i], want[i])
				}
			}
		}
	}
}

// Early yield-stop through a program must not poison later fresh compiles
// on the same matcher, and vice versa.
func TestBodyProgramEarlyStopAndReuse(t *testing.T) {
	x, y := Variable("X"), Variable("Y")
	body := []*Atom{MakeAtom("e", x, y)}
	in := NewInstance()
	for _, c := range "abcd" {
		in.Add(MakeAtom("e", Constant(string(c)), Constant("t")))
	}
	progs := []*BodyProgram{CompileBodySeed(body, 0)}
	var mm Matcher
	n := 0
	mm.MatchAllProgs(progs, in, 0, func(*Match) bool { n++; return false })
	if n != 1 {
		t.Fatalf("expected 1 yield before stop, got %d", n)
	}
	count := 0
	mm.MatchAllExt(body, in, -1, func(*Match) bool { count++; return true })
	if count != 4 {
		t.Fatalf("fresh compile after program run found %d matches, want 4", count)
	}
	// The program itself must be untouched by the interleaved fresh compile.
	count = 0
	mm.MatchAllProgs(progs, in, 0, func(*Match) bool { count++; return true })
	if count != 4 {
		t.Fatalf("program rerun found %d matches, want 4", count)
	}
}
