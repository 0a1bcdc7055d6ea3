package guarded

import (
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

// Property: canonicalization is invariant under injective renaming of the
// terms — the canonical type depends only on the equality pattern.
func TestCanonicalizeRenamingInvariant(t *testing.T) {
	f := func(raw []uint8, shift uint8) bool {
		if len(raw) == 0 || len(raw) > 6 {
			return true
		}
		mk := func(offset int) (*logic.Atom, []*logic.Atom) {
			args := make([]logic.Term, len(raw))
			for i, r := range raw {
				args[i] = logic.Constant(string(rune('a' + int(r%4) + offset)))
			}
			guard := logic.NewAtom(logic.Predicate{Name: "G", Arity: len(raw)}, args...)
			side := logic.NewAtom(logic.Predicate{Name: "S", Arity: 1}, args[0])
			return guard, []*logic.Atom{side}
		}
		g1, s1 := mk(0)
		g2, s2 := mk(int(shift%20) + 4) // disjoint constant range
		t1, _ := Canonicalize(g1, s1)
		t2, _ := Canonicalize(g2, s2)
		return t1.String() == t2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: renamings invert correctly — canonicalize then invert yields
// the original atoms.
func TestCanonicalizeInverse(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 6 {
			return true
		}
		args := make([]logic.Term, len(raw))
		for i, r := range raw {
			args[i] = logic.Constant(string(rune('a' + r%4)))
		}
		guard := logic.NewAtom(logic.Predicate{Name: "G", Arity: len(raw)}, args...)
		typ, ren := Canonicalize(guard, nil)
		back, ok := ren.InvertAtom(typ.Guard)
		return ok && back.Equal(guard)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the canonical guard follows the paper's Σ-type shape: the
// first argument is 1, each argument is at most max(previous)+1, and the
// largest is the number of distinct guard terms.
func TestCanonicalGuardShape(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		args := make([]logic.Term, len(raw))
		distinct := map[uint8]bool{}
		for i, r := range raw {
			args[i] = logic.Constant(string(rune('a' + r%3)))
			distinct[r%3] = true
		}
		guard := logic.NewAtom(logic.Predicate{Name: "G", Arity: len(raw)}, args...)
		typ, _ := Canonicalize(guard, nil)
		max := 0
		for i, a := range typ.Guard.Args {
			fr, ok := a.(logic.Fresh)
			if !ok {
				return false
			}
			v := int(fr)
			if i == 0 && v != 1 {
				return false
			}
			if v < 1 || v > max+1 {
				return false
			}
			if v > max {
				max = v
			}
		}
		return len(distinct) == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
