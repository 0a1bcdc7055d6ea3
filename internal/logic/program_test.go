package logic

import (
	"math/rand"
	"testing"
)

// Each semi-naive enumeration must be the definition's: the full join's
// matches that use a delta atom, each yielded exactly once, for random
// instances and deltas. One Matcher runs every call, and the full join
// through a body's programs must enumerate exactly what MatchAll's one
// program does, in the same order.
func TestBodyProgramMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x, y, z := Variable("X"), Variable("Y"), Variable("Z")
	bodies := [][]*Atom{
		{MakeAtom("e", x, y)},
		{MakeAtom("e", x, y), MakeAtom("e", y, z)},
		{MakeAtom("e", x, y), MakeAtom("p", y), MakeAtom("e", y, z)},
		{MakeAtom("e", x, x), MakeAtom("p", x)},
	}
	progs := CompileBodies(bodies)
	var mm Matcher
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
		for bi, body := range bodies {
			var full, oneShot []string
			want := map[string]int{}
			mm.Match(progs[bi], in, -1, func(m *Match) bool {
				s := m.Substitution()
				full = append(full, s.String())
				for _, a := range body {
					if in.lookup(s.ApplyAtom(a)) >= deltaStart {
						want[s.String()] = 1
					}
				}
				return true
			})
			MatchAll(body, in, func(s Substitution) bool {
				oneShot = append(oneShot, s.String())
				return true
			})
			if len(full) != len(oneShot) {
				t.Fatalf("trial %d body %v: programs yield %d matches, MatchAll %d", trial, body, len(full), len(oneShot))
			}
			for i := range full {
				if full[i] != oneShot[i] {
					t.Fatalf("trial %d body %v: match %d differs: programs %q, MatchAll %q", trial, body, i, full[i], oneShot[i])
				}
			}
			got := map[string]int{}
			mm.Match(progs[bi], in, deltaStart, func(m *Match) bool {
				got[m.Substitution().String()]++
				return true
			})
			for s, n := range got {
				if want[s] != n {
					t.Fatalf("trial %d body %v delta %d: %s yielded %d times, want %d", trial, body, deltaStart, s, n, want[s])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d body %v delta %d: %d delta matches, want %d", trial, body, deltaStart, len(got), len(want))
			}
		}
	}
}

// Early yield-stop must not poison the matcher or the program: a rerun
// on the same matcher enumerates everything.
func TestBodyProgramEarlyStopAndReuse(t *testing.T) {
	x, y := Variable("X"), Variable("Y")
	body := []*Atom{MakeAtom("e", x, y)}
	in := NewInstance()
	for _, c := range "abcd" {
		in.Add(MakeAtom("e", Constant(string(c)), Constant("t")))
	}
	progs := CompileBodies([][]*Atom{body})[0]
	var mm Matcher
	n := 0
	mm.Match(progs, in, 0, func(*Match) bool { n++; return false })
	if n != 1 {
		t.Fatalf("expected 1 yield before stop, got %d", n)
	}
	count := 0
	mm.Match(progs, in, 0, func(*Match) bool { count++; return true })
	if count != 4 {
		t.Fatalf("program rerun found %d matches, want 4", count)
	}
}
