package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTermKeys(t *testing.T) {
	if Constant("a").Key() == Variable("a").Key() {
		t.Fatal("constant and variable with same name must have distinct keys")
	}
	if Constant("a").Key() != Constant("a").Key() {
		t.Fatal("equal constants must share keys")
	}
	if Fresh(1).Key() == Constant("1").Key() {
		t.Fatal("fresh term must not collide with constant")
	}
}

func TestNullFactoryInterning(t *testing.T) {
	f := NewNullFactory()
	n1, created := f.Intern("k1", 1)
	if !created {
		t.Fatal("first intern should create")
	}
	n2, created := f.Intern("k1", 5)
	if created {
		t.Fatal("second intern should not create")
	}
	if n1 != n2 {
		t.Fatal("interning must return the identical null")
	}
	if n2.Depth() != 1 {
		t.Fatalf("depth of existing null must be preserved, got %d", n2.Depth())
	}
	n3, _ := f.Intern("k2", 3)
	if n3 == n1 {
		t.Fatal("distinct keys must give distinct nulls")
	}
	if f.Len() != 2 {
		t.Fatalf("factory should hold 2 nulls, has %d", f.Len())
	}
	if f.MaxDepth() != 3 {
		t.Fatalf("max depth should be 3, got %d", f.MaxDepth())
	}
}

func TestTermDepth(t *testing.T) {
	if TermDepth(Constant("c")) != 0 {
		t.Fatal("constants have depth 0")
	}
	f := NewNullFactory()
	n, _ := f.Intern("k", 7)
	if TermDepth(n) != 7 {
		t.Fatal("null depth not reported")
	}
}

func TestAtomKeyAndEquality(t *testing.T) {
	a1 := MakeAtom("R", Constant("a"), Constant("b"))
	a2 := MakeAtom("R", Constant("a"), Constant("b"))
	a3 := MakeAtom("R", Constant("b"), Constant("a"))
	if !a1.Equal(a2) {
		t.Fatal("structurally equal atoms must be Equal")
	}
	if a1.Equal(a3) {
		t.Fatal("different atoms must not be Equal")
	}
	if a1.String() != "R(a,b)" {
		t.Fatalf("unexpected rendering %q", a1)
	}
}

func TestAtomDepthAndGroundness(t *testing.T) {
	f := NewNullFactory()
	n, _ := f.Intern("k", 2)
	a := MakeAtom("R", Constant("a"), n)
	if a.Depth() != 2 {
		t.Fatalf("atom depth = %d, want 2", a.Depth())
	}
	if a.IsFact() {
		t.Fatal("atom with null is not a fact")
	}
	if !a.IsGround() {
		t.Fatal("atom with null and constant is ground")
	}
	b := MakeAtom("R", Variable("X"))
	if b.IsGround() {
		t.Fatal("atom with variable is not ground")
	}
}

func TestAtomVariablesAndPositions(t *testing.T) {
	x, y := Variable("X"), Variable("Y")
	a := MakeAtom("R", x, y, x)
	vars := a.Variables()
	if len(vars) != 2 || vars[0] != x || vars[1] != y {
		t.Fatalf("variables = %v", vars)
	}
	pos := a.VarPositions(x)
	if len(pos) != 2 || pos[0].Index != 1 || pos[1].Index != 3 {
		t.Fatalf("positions of X = %v", pos)
	}
}

func TestSubstitution(t *testing.T) {
	x, y := Variable("X"), Variable("Y")
	s := Substitution{x: Constant("a")}
	if s.Apply(x) != Term(Constant("a")) {
		t.Fatal("bound variable must be substituted")
	}
	if s.Apply(y) != Term(y) {
		t.Fatal("unbound variable must be unchanged")
	}
	a := s.ApplyAtom(MakeAtom("R", x, y))
	if a.String() != "R(a,Y)" {
		t.Fatalf("ApplyAtom = %v", a)
	}
	r := Substitution{x: Constant("a"), y: Constant("b")}.Restrict([]Variable{x})
	if len(r) != 1 || r[x] != Term(Constant("a")) {
		t.Fatalf("Restrict = %v", r)
	}
}

func TestInstanceBasics(t *testing.T) {
	in := NewInstance()
	a := MakeAtom("R", Constant("a"), Constant("b"))
	if !in.Add(a) {
		t.Fatal("first add must succeed")
	}
	if in.Add(MakeAtom("R", Constant("a"), Constant("b"))) {
		t.Fatal("duplicate add must be rejected")
	}
	if !in.Has(a) || in.Len() != 1 {
		t.Fatal("instance must contain the atom")
	}
	if got := len(in.ByPred(Predicate{Name: "R", Arity: 2})); got != 1 {
		t.Fatalf("ByPred = %d atoms", got)
	}
	if got := len(in.AtPosition(Predicate{Name: "R", Arity: 2}, 0, Constant("a"))); got != 1 {
		t.Fatalf("AtPosition = %d atoms", got)
	}
	if got := len(in.ActiveDomain()); got != 2 {
		t.Fatalf("active domain size = %d", got)
	}
	if !in.IsDatabase() {
		t.Fatal("fact-only instance is a database")
	}
}

func TestInstanceCanonicalKey(t *testing.T) {
	in1 := NewDatabase(MakeAtom("R", Constant("a")), MakeAtom("S", Constant("b")))
	in2 := NewDatabase(MakeAtom("S", Constant("b")), MakeAtom("R", Constant("a")))
	if in1.CanonicalKey() != in2.CanonicalKey() {
		t.Fatal("canonical keys must be order-independent")
	}
}

func TestMatchAllSimpleJoin(t *testing.T) {
	in := NewDatabase(
		MakeAtom("R", Constant("a"), Constant("b")),
		MakeAtom("R", Constant("b"), Constant("c")),
		MakeAtom("S", Constant("b")),
	)
	x, y := Variable("X"), Variable("Y")
	body := []*Atom{MakeAtom("R", x, y), MakeAtom("S", y)}
	var results []string
	MatchAll(body, in, -1, func(s Substitution) bool {
		results = append(results, s.String())
		return true
	})
	if len(results) != 1 {
		t.Fatalf("expected exactly one match, got %v", results)
	}
	if results[0] != "{X↦a, Y↦b}" {
		t.Fatalf("match = %q", results[0])
	}
}

func TestMatchAllRepeatedVariable(t *testing.T) {
	in := NewDatabase(
		MakeAtom("R", Constant("a"), Constant("a")),
		MakeAtom("R", Constant("a"), Constant("b")),
	)
	x := Variable("X")
	count := 0
	MatchAll([]*Atom{MakeAtom("R", x, x)}, in, -1, func(Substitution) bool {
		count++
		return true
	})
	if count != 1 {
		t.Fatalf("diagonal pattern must match once, got %d", count)
	}
}

func TestMatchAllConstantInPattern(t *testing.T) {
	in := NewDatabase(
		MakeAtom("R", Constant("a"), Constant("b")),
		MakeAtom("R", Constant("c"), Constant("b")),
	)
	y := Variable("Y")
	count := 0
	MatchAll([]*Atom{MakeAtom("R", Constant("a"), y)}, in, -1, func(Substitution) bool {
		count++
		return true
	})
	if count != 1 {
		t.Fatalf("constant-anchored pattern must match once, got %d", count)
	}
}

// TestMatchAllDelta checks the semi-naive decomposition: every
// homomorphism touching the delta is produced exactly once, and none that
// map entirely into the old portion.
func TestMatchAllDelta(t *testing.T) {
	in := NewInstance()
	in.Add(MakeAtom("E", Constant("a"), Constant("b")))
	in.Add(MakeAtom("E", Constant("b"), Constant("c")))
	deltaStart := in.Len()
	in.Add(MakeAtom("E", Constant("c"), Constant("d")))

	x, y, z := Variable("X"), Variable("Y"), Variable("Z")
	body := []*Atom{MakeAtom("E", x, y), MakeAtom("E", y, z)}

	seen := map[string]int{}
	MatchAll(body, in, deltaStart, func(s Substitution) bool {
		seen[s.String()]++
		return true
	})
	// Full join yields (a,b,c) and (b,c,d); only (b,c,d) touches delta.
	if len(seen) != 1 {
		t.Fatalf("delta join results = %v", seen)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("homomorphism %s produced %d times", k, n)
		}
	}
	if _, ok := seen["{X↦b, Y↦c, Z↦d}"]; !ok {
		t.Fatalf("missing delta match, got %v", seen)
	}
}

// TestMatchDeltaEquivalence property: for random small graphs, the set of
// delta matches equals full matches minus old-only matches.
func TestMatchDeltaEquivalence(t *testing.T) {
	f := func(edges [][2]uint8, split uint8) bool {
		if len(edges) > 12 {
			edges = edges[:12]
		}
		old := NewInstance()
		full := NewInstance()
		for i, e := range edges {
			a := MakeAtom("E", Constant(string('a'+rune(e[0]%4))), Constant(string('a'+rune(e[1]%4))))
			full.Add(a)
			if i < int(split)%(len(edges)+1) {
				old.Add(a)
			}
		}
		// Rebuild full so old atoms come first (matching sequence order).
		combined := NewInstance()
		for _, a := range old.Atoms() {
			combined.Add(a)
		}
		deltaStart := combined.Len()
		for _, a := range full.Atoms() {
			combined.Add(a)
		}
		x, y, z := Variable("X"), Variable("Y"), Variable("Z")
		body := []*Atom{MakeAtom("E", x, y), MakeAtom("E", y, z)}
		want := map[string]bool{}
		MatchAll(body, combined, -1, func(s Substitution) bool {
			want[s.String()] = true
			return true
		})
		MatchAll(body, old, -1, func(s Substitution) bool {
			delete(want, s.String())
			return true
		})
		got := map[string]bool{}
		MatchAll(body, combined, deltaStart, func(s Substitution) bool {
			if got[s.String()] {
				t.Logf("duplicate delta match %s", s)
				return false
			}
			got[s.String()] = true
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExtendOne(t *testing.T) {
	in := NewDatabase(
		MakeAtom("P", Constant("a"), Constant("b")),
	)
	x, z := Variable("X"), Variable("Z")
	head := []*Atom{MakeAtom("P", x, z)}
	got := ExtendOne(head, in, Substitution{x: Constant("a")})
	if got == nil {
		t.Fatal("extension must exist")
	}
	if got[z] != Term(Constant("b")) {
		t.Fatalf("extension = %v", got)
	}
	if ExtendOne(head, in, Substitution{x: Constant("zzz")}) != nil {
		t.Fatal("no extension should exist for unmatched base")
	}
}

func TestSortAtomsDeterminism(t *testing.T) {
	a := MakeAtom("B", Constant("x"))
	b := MakeAtom("A", Constant("x"))
	sorted := SortAtoms([]*Atom{a, b})
	if sorted[0] != b {
		t.Fatal("atoms must sort by key")
	}
}

// TestExistsBefore compares the prefix-bounded existence search with a
// brute-force filter: enumerate every match inside the instance's first
// bound atoms and keep those that agree with the pre-bound images. One
// Matcher serves every call, so buffer reuse across bodies is covered.
func TestExistsBefore(t *testing.T) {
	x, y, z := Variable("X"), Variable("Y"), Variable("Z")
	bodies := [][]*Atom{
		{MakeAtom("E", x, y), MakeAtom("E", y, z)},
		{MakeAtom("E", x, x)},
		{MakeAtom("S", y), MakeAtom("E", x, y)},
		{MakeAtom("E", x, Constant("a"))},
		{},
	}
	consts := []Term{Constant("a"), Constant("b"), Constant("c"), Constant("d")}
	rng := rand.New(rand.NewSource(5))
	var mm Matcher
	for trial := range 300 {
		in := NewInstance()
		for range rng.Intn(10) {
			if rng.Intn(3) == 0 {
				in.Add(MakeAtom("S", consts[rng.Intn(3)]))
			} else {
				in.Add(MakeAtom("E", consts[rng.Intn(3)], consts[rng.Intn(3)]))
			}
		}
		bound := rng.Intn(in.Len() + 1)
		prefix := NewDatabase(in.Atoms()[:bound]...)
		body := bodies[trial%len(bodies)]
		var vars, ids []int32
		want := Substitution{}
		for _, v := range []Variable{x, y, z} {
			if rng.Intn(2) == 0 {
				c := consts[rng.Intn(len(consts))] // d occurs in no atom
				vars, ids = append(vars, IDOf(v)), append(ids, IDOf(c))
				want[v] = c
			}
		}
		brute := false
		MatchAll(body, prefix, -1, func(s Substitution) bool {
			for v, c := range want {
				if img, ok := s[v]; ok && img != c {
					return true
				}
			}
			brute = true
			return false
		})
		if got := mm.ExistsBefore(body, in, bound, vars, ids); got != brute {
			t.Fatalf("trial %d: ExistsBefore(%v, bound %d, %v) = %v, brute force %v over\n%v",
				trial, body, bound, want, got, brute, in)
		}
	}
}
