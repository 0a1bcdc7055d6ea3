package guarded

import (
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/families"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/tgds"
)

// Completion must lift atoms derived below fresh nulls back to the
// database domain: P(b) is only derivable via the null-atom E(b,⊥).
func TestCompleteLiftsThroughNulls(t *testing.T) {
	sigma := parser.MustParseRules(`
		e(X, Y) -> ∃Z e(Y, Z).
		e(X, Y) -> p(X).
	`)
	db := parser.MustParseDatabase(`e(a, b).`)
	c, err := Complete(db, sigma)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"e(a,b)", "p(a)", "p(b)"} {
		found := false
		for _, a := range c.Atoms() {
			if a.String() == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("complete(D,Σ) = %v missing %s", c, want)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("complete(D,Σ) = %v, want 3 atoms", c)
	}
}

// The completion terminates although the chase is infinite.
func TestCompleteTerminatesOnInfiniteChase(t *testing.T) {
	sigma := parser.MustParseRules(`e(X, Y) -> ∃Z e(Y, Z).`)
	db := parser.MustParseDatabase(`e(a, a). e(a, b).`)
	c, err := Complete(db, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("complete = %v", c)
	}
}

// Deep feedback: information must flow through a chain of two nulls.
func TestCompleteTwoLevelFeedback(t *testing.T) {
	sigma := parser.MustParseRules(`
		start(X) -> ∃Y mid(X, Y).
		mid(X, Y) -> ∃Z leaf(Y, Z, X).
		leaf(Y, Z, X) -> done(X).
	`)
	db := parser.MustParseDatabase(`start(a).`)
	c, err := Complete(db, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Has(logic.MakeAtom("done", logic.Constant("a"))) {
		t.Fatalf("complete = %v, missing done(a)", c)
	}
}

// Completions of shapes the random grids never generate, each against the
// chase's atoms over dom(D):
//   - head constants of Σ, c in dom(D) and d not: atoms over c are derived
//     below a null and lifted back, atoms mentioning d stay out, and m(a),
//     derived from k(a,d), is lifted through it;
//   - a nullary side atom: the child node below f(b,⊥) must know flag()
//     to derive g(b).
func TestCompleteUncommonShapes(t *testing.T) {
	for _, c := range []struct{ rules, db, want string }{
		{
			rules: `e(X, Y) -> ∃Z f(Y, Z, c).
				f(Y, Z, W) -> g(Y, W).
				g(Y, W) -> h(Y).
				e(X, Y) -> k(X, d).
				k(X, W) -> m(X).`,
			db:   `e(a, b). e(b, c).`,
			want: "{e(a,b), e(b,c), g(b,c), g(c,c), h(b), h(c), m(a), m(b)}",
		},
		{
			rules: `e(X, Y) -> ∃Z f(Y, Z).
				f(Y, Z), flag() -> g(Y).`,
			db:   `e(a, b). flag().`,
			want: "{e(a,b), flag(), g(b)}",
		},
	} {
		got, err := Complete(parser.MustParseDatabase(c.db), parser.MustParseRules(c.rules))
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != c.want {
			t.Errorf("complete(%s) = %v, want %s", c.db, got, c.want)
		}
	}
}

// Property: for random guarded inputs whose chase terminates, the
// completion equals the chase atoms over dom(D).
func TestCompleteAgreesWithChase(t *testing.T) {
	cfg := families.RandomConfig{
		Predicates:      3,
		MaxArity:        2,
		Rules:           3,
		MaxHeadAtoms:    2,
		ExistentialProb: 0.4,
		RepeatProb:      0.2,
		SideAtoms:       1,
	}
	rng := rand.New(rand.NewSource(7))
	tried, checked := 0, 0
	for tried < 120 {
		tried++
		sigma := families.RandomGuarded(rng, cfg)
		if sigma.Len() == 0 {
			continue
		}
		db := families.RandomDatabase(rng, sigma, 3, 2)
		if db.Len() == 0 {
			continue
		}
		res := chase.Run(db, sigma, chase.Options{MaxAtoms: 2000})
		if !res.Terminated {
			continue
		}
		checked++
		c, err := Complete(db, sigma)
		if err != nil {
			t.Fatal(err)
		}
		// Expected: chase atoms over dom(D).
		dom := map[string]bool{}
		for _, a := range db.Atoms() {
			for _, tm := range a.Args {
				dom[tm.Key()] = true
			}
		}
		want := logic.NewInstance()
		for _, a := range res.Instance.Atoms() {
			all := true
			for _, tm := range a.Args {
				if !dom[tm.Key()] {
					all = false
					break
				}
			}
			if all {
				want.Add(a)
			}
		}
		if c.CanonicalKey() != want.CanonicalKey() {
			t.Fatalf("complete mismatch\nsigma:\n%v\ndb: %v\ncomplete: %v\nwant:     %v",
				sigma, db, c, want)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d/%d random cases terminated; generator too aggressive", checked, tried)
	}
}

// Example E.9 of the paper: D = {R(a,a,b,c)} with σ, σ' as given; the type
// of R(a,a,b,c) is {R(a,a,b,c), Q(a,c)} and lin(D) holds a single atom
// over the corresponding type predicate (full-arity convention).
func TestLinearizeDatabaseExampleE9(t *testing.T) {
	sigma := parser.MustParseRules(`
		p(X, Y, X, U, W), s(X, U) -> ∃Z1 ∃Z2 r(U, Y, X, Z1), t(Z1, Z2, X).
		r(X, X, Y, Z) -> q(X, Z).
	`)
	db := parser.MustParseDatabase(`r(a, a, b, c).`)
	l, err := NewLinearizer(sigma)
	if err != nil {
		t.Fatal(err)
	}
	linDB, err := l.Database(db)
	if err != nil {
		t.Fatal(err)
	}
	if linDB.Len() != 1 {
		t.Fatalf("lin(D) = %v", linDB)
	}
	atom := linDB.Atoms()[0]
	if atom.Pred.Arity != 4 {
		t.Fatalf("full-arity convention: arity = %d, want 4", atom.Pred.Arity)
	}
	info, ok := l.Info(atom.Pred)
	if !ok {
		t.Fatal("type predicate not registered")
	}
	if len(info.Type.Atoms) != 2 {
		t.Fatalf("type atoms = %v, want guard + q", info.Type.Atoms)
	}
	var hasQ bool
	for _, a := range info.Type.Atoms {
		if a.Pred.Name == "q" {
			hasQ = true
			// q(1,3) over the canonical integers of R(1,1,2,3).
			if a.Args[0] != logic.Term(logic.Fresh(1)) || a.Args[1] != logic.Term(logic.Fresh(3)) {
				t.Fatalf("q atom = %v, want q(1,3)", a)
			}
		}
	}
	if !hasQ {
		t.Fatalf("type must contain the q atom, got %v", info.Type)
	}
}

// Proposition 8.1 (observable form): linearization preserves chase
// finiteness and maximal term depth on random guarded inputs. Instance
// size is NOT exactly preserved: the equivalence classes of Lemma E.14
// form a partition, not a bijection — e.g. two database atoms of
// different types both linearize an empty-frontier trigger that the
// original chase fires only once — so |chase(lin)| ≥ |chase| is the
// correct observable.
func TestLinearizePreservation(t *testing.T) {
	cfg := families.RandomConfig{
		Predicates:      3,
		MaxArity:        2,
		Rules:           2,
		MaxHeadAtoms:    2,
		ExistentialProb: 0.45,
		RepeatProb:      0.2,
		SideAtoms:       1,
	}
	rng := rand.New(rand.NewSource(11))
	const budget = 1500
	tried, infinite, finite := 0, 0, 0
	for tried < 80 {
		tried++
		sigma := families.RandomGuarded(rng, cfg)
		if sigma.Len() == 0 {
			continue
		}
		db := families.RandomDatabase(rng, sigma, 2, 2)
		if db.Len() == 0 {
			continue
		}
		l, err := NewLinearizer(sigma)
		if err != nil {
			t.Fatal(err)
		}
		linDB, linSigma, err := l.Linearize(db)
		if err != nil {
			t.Fatal(err)
		}
		if got := linSigma.Classify(); got > tgds.ClassL {
			t.Fatalf("lin(Σ) must be linear, got %v:\n%v", got, linSigma)
		}
		orig := chase.Run(db, sigma, chase.Options{MaxAtoms: budget})
		lin := chase.Run(linDB, linSigma, chase.Options{MaxAtoms: budget})
		if orig.Terminated != lin.Terminated {
			t.Fatalf("finiteness not preserved (orig=%v lin=%v)\nsigma:\n%v\ndb: %v\nlin sigma:\n%v",
				orig.Terminated, lin.Terminated, sigma, db, linSigma)
		}
		if orig.Terminated {
			finite++
			if orig.MaxDepth() != lin.MaxDepth() {
				t.Fatalf("maxdepth not preserved: %d vs %d\nsigma:\n%v\ndb: %v",
					orig.MaxDepth(), lin.MaxDepth(), sigma, db)
			}
			if orig.Instance.Len() > lin.Instance.Len() {
				t.Fatalf("partition property violated: |chase| = %d > |chase(lin)| = %d\nsigma:\n%v\ndb: %v\nlin:\n%v",
					orig.Instance.Len(), lin.Instance.Len(), sigma, db, linSigma)
			}
		} else {
			infinite++
		}
	}
	if finite < 15 || infinite < 3 {
		t.Fatalf("weak coverage: %d finite, %d infinite out of %d", finite, infinite, tried)
	}
}

// Non-uniform behaviour end to end: one guarded Σ, two databases, chases
// of different fate, and gsimple verdicts matching.
func TestGSimpleNonUniform(t *testing.T) {
	sigma := parser.MustParseRules(`
		e(X, Y), s(X) -> ∃Z e(Y, Z).
		e(X, Y), s(X) -> s(Y).
	`)
	finiteDB := parser.MustParseDatabase(`e(a, b). s(b).`)
	infiniteDB := parser.MustParseDatabase(`e(a, a). s(a).`)

	resF := chase.Run(finiteDB, sigma, chase.Options{MaxAtoms: 500})
	if !resF.Terminated {
		t.Fatal("finite case must terminate")
	}
	resI := chase.Run(infiniteDB, sigma, chase.Options{MaxAtoms: 500})
	if resI.Terminated {
		t.Fatal("infinite case must not terminate")
	}

	gsDBF, gsSigmaF, err := GSimple(finiteDB, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if gsSigmaF.Classify() != tgds.ClassSL && gsSigmaF.Len() > 0 {
		t.Fatalf("gsimple(Σ) class = %v", gsSigmaF.Classify())
	}
	gsDBI, gsSigmaI, err := GSimple(infiniteDB, sigma)
	if err != nil {
		t.Fatal(err)
	}
	resGF := chase.Run(gsDBF, gsSigmaF, chase.Options{MaxAtoms: 500})
	if !resGF.Terminated {
		t.Fatal("gsimple of the finite case must terminate")
	}
	resGI := chase.Run(gsDBI, gsSigmaI, chase.Options{MaxAtoms: 500})
	if resGI.Terminated {
		t.Fatal("gsimple of the infinite case must not terminate")
	}
	if resGF.MaxDepth() != resF.MaxDepth() {
		t.Fatalf("gsimple maxdepth %d != %d", resGF.MaxDepth(), resF.MaxDepth())
	}
}

func TestCanonicalize(t *testing.T) {
	a, b, c := logic.Constant("a"), logic.Constant("b"), logic.Constant("c")
	guard := logic.MakeAtom("R", a, a, b, c)
	side := logic.MakeAtom("Q", a, c)
	typ, ren := Canonicalize(guard, []*logic.Atom{side})
	if typ.Guard.String() != "R(1,1,2,3)" {
		t.Fatalf("canonical guard = %v", typ.Guard)
	}
	if typ.Width() != 3 {
		t.Fatalf("width = %d", typ.Width())
	}
	back, ok := ren.InvertAtom(logic.MakeAtom("Q", logic.Fresh(1), logic.Fresh(3)))
	if !ok || back.String() != "Q(a,c)" {
		t.Fatalf("invert = %v", back)
	}
	// Same pattern over different constants gives the same type key.
	guard2 := logic.MakeAtom("R", b, b, c, a)
	side2 := logic.MakeAtom("Q", b, a)
	typ2, _ := Canonicalize(guard2, []*logic.Atom{side2})
	if typ.Key() != typ2.Key() {
		t.Fatal("canonicalization must be pattern-invariant")
	}
}

func TestEngineRejectsUnguarded(t *testing.T) {
	sigma := parser.MustParseRules(`r(X, Y), r(Y, Z) -> r(X, Z).`)
	if _, err := NewEngine(sigma); err == nil {
		t.Fatal("unguarded set must be rejected")
	}
}

// TypeOf returns type_{D,Σ}(α): the atoms of chase(D, Σ) that mention only
// terms of α, found by scanning the whole completion. The atom must belong
// to the database.
func TypeOf(db *logic.Instance, sigma *tgds.Set, a *logic.Atom) ([]*logic.Atom, error) {
	c, err := Complete(db, sigma)
	if err != nil {
		return nil, err
	}
	return atomsOverByScan(c, a), nil
}

// atomsOverByScan returns the atoms of the instance whose terms all occur
// in the guard's domain, by a scan of every atom.
func atomsOverByScan(in *logic.Instance, guard *logic.Atom) []*logic.Atom {
	dom := make(map[int32]bool)
	for i := range guard.Args {
		dom[guard.ArgID(i)] = true
	}
	var out []*logic.Atom
next:
	for _, a := range in.Atoms() {
		for i := range a.Args {
			if !dom[a.ArgID(i)] {
				continue next
			}
		}
		out = append(out, a)
	}
	return out
}

func TestTypeOf(t *testing.T) {
	sigma := parser.MustParseRules(`
		r(X, Y) -> q(X).
	`)
	db := parser.MustParseDatabase(`r(a, b). r(b, a).`)
	atoms, err := TypeOf(db, sigma, db.Atoms()[0])
	if err != nil {
		t.Fatal(err)
	}
	// type(r(a,b)) = {r(a,b), r(b,a), q(a), q(b)}: all chase atoms over
	// {a,b}.
	if len(atoms) != 4 {
		t.Fatalf("type = %v", atoms)
	}
}
