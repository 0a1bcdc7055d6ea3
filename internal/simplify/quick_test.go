package simplify

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

// Property: id patterns are well-formed (first occurrence order: p[0]=1,
// p[i] ≤ max(prefix)+1) and consistent with Unique (max id = |unique|).
func TestIDPatternWellFormed(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 10 {
			raw = raw[:10]
		}
		args := make([]logic.Term, len(raw))
		for i, r := range raw {
			args[i] = logic.Constant(string(rune('a' + r%5)))
		}
		p := IDPattern(args)
		if p[0] != 1 {
			return false
		}
		max := 0
		for _, id := range p {
			if id < 1 || id > max+1 {
				return false
			}
			if id > max {
				max = id
			}
		}
		return max == len(Unique(args))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: simplification is pattern-faithful: two tuples get the same
// pattern predicate iff they have the same equality type (t_i = t_j ⟺
// u_i = u_j).
func TestSimplifyAtomPatternFaithful(t *testing.T) {
	f := func(a, b []uint8) bool {
		n := len(a)
		if n == 0 || n > 6 || len(b) < n {
			return true
		}
		b = b[:n]
		argsA := make([]logic.Term, n)
		argsB := make([]logic.Term, n)
		for i := 0; i < n; i++ {
			argsA[i] = logic.Constant(string(rune('a' + a[i]%3)))
			argsB[i] = logic.Constant(string(rune('a' + b[i]%3)))
		}
		pred := logic.Predicate{Name: "R", Arity: n}
		sA := Atom(logic.NewAtom(pred, argsA...))
		sB := Atom(logic.NewAtom(pred, argsB...))
		sameType := true
		for i := 0; i < n && sameType; i++ {
			for j := i + 1; j < n; j++ {
				if (argsA[i] == argsA[j]) != (argsB[i] == argsB[j]) {
					sameType = false
					break
				}
			}
		}
		return (sA.Pred == sB.Pred) == sameType
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the pattern predicate round-trips through its name.
func TestPatternPredicateRoundTripQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		args := make([]logic.Term, len(raw))
		for i, r := range raw {
			args[i] = logic.Constant(string(rune('a' + r%4)))
		}
		pattern := IDPattern(args)
		p := PatternPredicate(logic.Predicate{Name: "Rel", Arity: len(args)}, pattern)
		base, got, ok := ParsePatternPredicate(p)
		if !ok || base != "Rel" || len(got) != len(pattern) {
			return false
		}
		for i := range pattern {
			if got[i] != pattern[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every specialization is idempotent as a variable mapping
// (f(f(x)) = f(x)) and its image variables are fixpoints.
func TestSpecializationsIdempotent(t *testing.T) {
	vars := []logic.Variable{"A", "B", "C", "D"}
	for _, f := range Specializations(vars) {
		for _, v := range vars {
			img := f[v]
			if f[img] != img {
				t.Fatalf("specialization %v not idempotent at %v", f, v)
			}
		}
	}
}

// Property: DatabasePredicates is the predicate set of the instance
// simple(D), in Instance.Predicates' order. The databases mix nullary
// facts, two predicates of one name, and arguments over three constants,
// so facts repeat arguments in every pattern.
func TestDatabasePredicatesQuick(t *testing.T) {
	preds := []logic.Predicate{{Name: "n", Arity: 0}, {Name: "r", Arity: 1}, {Name: "r", Arity: 3}, {Name: "s", Arity: 2}, {Name: "t", Arity: 4}}
	f := func(raw []uint8) bool {
		db := logic.NewInstance()
		for len(raw) > 0 {
			p := preds[int(raw[0])%len(preds)]
			raw = raw[1:]
			args := make([]logic.Term, p.Arity)
			for i := range args {
				var r uint8
				if len(raw) > 0 {
					r, raw = raw[0], raw[1:]
				}
				args[i] = logic.Constant(string(rune('a' + r%3)))
			}
			db.Add(logic.NewAtom(p, args...))
		}
		return slices.Equal(DatabasePredicates(db), Database(db).Predicates())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
