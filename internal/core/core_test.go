package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/families"
	"repro/internal/parser"
	"repro/internal/tgds"
)

func TestDecideSLBasic(t *testing.T) {
	sigma := parser.MustParseRules(`r(X, Y) -> ∃Z r(Y, Z).`)
	v, err := DecideSL(parser.MustParseDatabase(`r(a, b).`), sigma)
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != Infinite {
		t.Fatalf("verdict = %v", v)
	}
	v, err = DecideSL(parser.MustParseDatabase(`s(a).`), sigma)
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != Finite {
		t.Fatalf("verdict = %v", v)
	}
}

// Example 7.1: DecideL must return Finite although Σ is not
// D-weakly-acyclic (simplification repairs the characterization).
func TestDecideLExample71(t *testing.T) {
	sigma := parser.MustParseRules(`r(X, X) -> ∃Z r(Z, X).`)
	db := parser.MustParseDatabase(`r(a, b).`)
	v, err := DecideL(db, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != Finite {
		t.Fatalf("verdict = %v, want finite (Example 7.1)", v)
	}
	// On the diagonal database the same Σ chases forever:
	// R(a,a) -> R(⊥,a) -> ... wait: R(z,x) with x=a gives R(⊥,a); the
	// body R(x,x) then has no new diagonal atom, so it is finite too.
	v2, err := DecideL(parser.MustParseDatabase(`r(a, a).`), sigma)
	if err != nil {
		t.Fatal(err)
	}
	res := chase.Run(parser.MustParseDatabase(`r(a, a).`), sigma, chase.Options{MaxAtoms: 100})
	if (v2.Outcome == Finite) != res.Terminated {
		t.Fatalf("decider %v vs chase terminated=%v", v2, res.Terminated)
	}
}

func TestDecideClassErrors(t *testing.T) {
	linear := parser.MustParseRules(`r(X, X) -> p(X).`)
	if _, err := DecideSL(parser.MustParseDatabase(`r(a, a).`), linear); err == nil {
		t.Fatal("DecideSL must reject non-simple sets")
	}
	unguarded := parser.MustParseRules(`r(X, Y), r(Y, Z) -> r(X, Z).`)
	if _, err := Decide(parser.MustParseDatabase(`r(a, b).`), unguarded); err == nil {
		t.Fatal("Decide must reject unguarded sets")
	}
}

// Theorem 6.4 (observable form): on random SL inputs the syntactic
// decider agrees with the budgeted chase, and finite chases respect the
// size bound |D|·f_SL(Σ).
func TestTheorem64Property(t *testing.T) {
	cfg := families.RandomConfig{
		Predicates:      3,
		MaxArity:        3,
		Rules:           3,
		MaxHeadAtoms:    2,
		ExistentialProb: 0.4,
	}
	rng := rand.New(rand.NewSource(13))
	finite, infinite := 0, 0
	for trial := 0; trial < 150; trial++ {
		sigma := families.RandomSimpleLinear(rng, cfg)
		if sigma.Len() == 0 || sigma.Classify() != tgds.ClassSL {
			continue
		}
		db := families.RandomDatabase(rng, sigma, 3, 2)
		if db.Len() == 0 {
			continue
		}
		v, err := DecideSL(db, sigma)
		if err != nil {
			t.Fatal(err)
		}
		res := chase.Run(db, sigma, chase.Options{MaxAtoms: 5000})
		switch v.Outcome {
		case Finite:
			finite++
			if !res.Terminated {
				t.Fatalf("decider says finite, chase exceeded budget\nsigma:\n%v\ndb: %v", sigma, db)
			}
			b := SizeBound(sigma, tgds.ClassSL)
			if b.Size != nil {
				bound := new(big.Int).Mul(b.Size, big.NewInt(int64(db.Len())))
				if bound.IsInt64() && int64(res.Instance.Len()) > bound.Int64() {
					t.Fatalf("size bound violated: %d > %v", res.Instance.Len(), bound)
				}
			}
		case Infinite:
			infinite++
			if res.Terminated {
				t.Fatalf("decider says infinite, chase terminated with %d atoms\nsigma:\n%v\ndb: %v",
					res.Instance.Len(), sigma, db)
			}
		}
	}
	if finite < 20 || infinite < 5 {
		t.Fatalf("weak coverage: %d finite, %d infinite", finite, infinite)
	}
}

// Theorem 7.5 (observable form) for linear TGDs with repeated variables.
func TestTheorem75Property(t *testing.T) {
	cfg := families.RandomConfig{
		Predicates:      3,
		MaxArity:        3,
		Rules:           3,
		MaxHeadAtoms:    2,
		ExistentialProb: 0.4,
		RepeatProb:      0.5,
	}
	rng := rand.New(rand.NewSource(17))
	finite, infinite := 0, 0
	for trial := 0; trial < 120; trial++ {
		sigma := families.RandomLinear(rng, cfg)
		if sigma.Len() == 0 {
			continue
		}
		db := families.RandomDatabase(rng, sigma, 3, 2)
		if db.Len() == 0 {
			continue
		}
		v, err := DecideL(db, sigma)
		if err != nil {
			t.Fatal(err)
		}
		res := chase.Run(db, sigma, chase.Options{MaxAtoms: 5000})
		switch v.Outcome {
		case Finite:
			finite++
			if !res.Terminated {
				t.Fatalf("decider says finite, chase exceeded budget\nsigma:\n%v\ndb: %v", sigma, db)
			}
		case Infinite:
			infinite++
			if res.Terminated {
				t.Fatalf("decider says infinite, chase terminated\nsigma:\n%v\ndb: %v", sigma, db)
			}
		}
	}
	if finite < 20 || infinite < 5 {
		t.Fatalf("weak coverage: %d finite, %d infinite", finite, infinite)
	}
}

// Theorem 8.3 (observable form) for guarded sets.
func TestTheorem83Property(t *testing.T) {
	cfg := families.RandomConfig{
		Predicates:      3,
		MaxArity:        2,
		Rules:           2,
		MaxHeadAtoms:    2,
		ExistentialProb: 0.45,
		RepeatProb:      0.2,
		SideAtoms:       1,
	}
	rng := rand.New(rand.NewSource(19))
	finite, infinite := 0, 0
	for trial := 0; trial < 80; trial++ {
		sigma := families.RandomGuarded(rng, cfg)
		if sigma.Len() == 0 || sigma.Classify() == tgds.ClassTGD {
			continue
		}
		db := families.RandomDatabase(rng, sigma, 2, 2)
		if db.Len() == 0 {
			continue
		}
		v, err := DecideG(db, sigma)
		if err != nil {
			t.Fatal(err)
		}
		res := chase.Run(db, sigma, chase.Options{MaxAtoms: 4000})
		switch v.Outcome {
		case Finite:
			finite++
			if !res.Terminated {
				t.Fatalf("decider says finite, chase exceeded budget\nsigma:\n%v\ndb: %v", sigma, db)
			}
		case Infinite:
			infinite++
			if res.Terminated {
				t.Fatalf("decider says infinite, chase terminated\nsigma:\n%v\ndb: %v", sigma, db)
			}
		}
	}
	if finite < 15 || infinite < 3 {
		t.Fatalf("weak coverage: %d finite, %d infinite", finite, infinite)
	}
}

// The UCQ procedures agree with the syntactic deciders.
func TestUCQAgreement(t *testing.T) {
	cfgSL := families.RandomConfig{Predicates: 3, MaxArity: 3, Rules: 3, MaxHeadAtoms: 2, ExistentialProb: 0.4}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		sigma := families.RandomSimpleLinear(rng, cfgSL)
		if sigma.Len() == 0 || sigma.Classify() != tgds.ClassSL {
			continue
		}
		db := families.RandomDatabase(rng, sigma, 3, 2)
		q, err := BuildUCQSL(sigma)
		if err != nil {
			t.Fatal(err)
		}
		v, err := DecideSL(db, sigma)
		if err != nil {
			t.Fatal(err)
		}
		// D satisfies Q_Σ iff the chase is infinite.
		if got := q.EvalEquality(db); got != (v.Outcome == Infinite) {
			t.Fatalf("UCQ (equality) = %v vs verdict %v\nsigma:\n%v\ndb: %v\nucq: %v", got, v, sigma, db, q)
		}
		if got := q.EvalExact(db); got != (v.Outcome == Infinite) {
			t.Fatalf("UCQ (exact) = %v vs verdict %v", got, v)
		}
	}
}

func TestUCQLAgreement(t *testing.T) {
	cfg := families.RandomConfig{Predicates: 3, MaxArity: 3, Rules: 3, MaxHeadAtoms: 2, ExistentialProb: 0.4, RepeatProb: 0.5}
	rng := rand.New(rand.NewSource(29))
	disagreements := 0
	for trial := 0; trial < 120; trial++ {
		sigma := families.RandomLinear(rng, cfg)
		if sigma.Len() == 0 {
			continue
		}
		db := families.RandomDatabase(rng, sigma, 3, 2)
		q, err := BuildUCQL(sigma)
		if err != nil {
			t.Fatal(err)
		}
		v, err := DecideL(db, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if got := q.EvalExact(db); got != (v.Outcome == Infinite) {
			t.Fatalf("UCQ (exact) = %v vs verdict %v\nsigma:\n%v\ndb: %v\nucq: %v", got, v, sigma, db, q)
		}
		// The paper's equality-only semantics may over-approximate; it
		// must never under-approximate.
		if v.Outcome == Infinite && !q.EvalEquality(db) {
			t.Fatalf("equality semantics under-approximates\nsigma:\n%v\ndb: %v", sigma, db)
		}
		if q.EvalEquality(db) != q.EvalExact(db) {
			disagreements++
		}
	}
	t.Logf("equality-vs-exact disagreements: %d", disagreements)
}

func TestBoundsMonotone(t *testing.T) {
	sigma := parser.MustParseRules(`
		r(X, Y) -> ∃Z s(Y, Z).
		s(X, Y) -> r(X, Y).
	`)
	dSL := DepthBound(sigma, tgds.ClassSL)
	dL := DepthBound(sigma, tgds.ClassL)
	dG := DepthBound(sigma, tgds.ClassG)
	if dSL.Cmp(dL) > 0 || dL.Cmp(dG) > 0 {
		t.Fatalf("depth bounds not monotone: %v, %v, %v", dSL, dL, dG)
	}
	bSL := SizeBound(sigma, tgds.ClassSL)
	if bSL.Size == nil {
		t.Fatal("SL size bound should materialize for a tiny schema")
	}
	if bSL.Log2Size <= 0 {
		t.Fatalf("log2 size = %v", bSL.Log2Size)
	}
	bG := SizeBound(sigma, tgds.ClassG)
	if bG.Log2Size < bSL.Log2Size {
		t.Fatalf("guarded bound smaller than SL bound: %v < %v", bG.Log2Size, bSL.Log2Size)
	}
}

func TestDepthBoundHonored(t *testing.T) {
	// Lemma 6.2: for D-weakly-acyclic Σ, maxdepth ≤ d_SL(Σ).
	w := families.Prop45(6)
	// (Not SL; use an SL workload instead.)
	slw := families.SLLower(1, 2, 2)
	res := chase.Run(slw.Database, slw.Sigma, chase.Options{})
	if !res.Terminated {
		t.Fatal("SL family must terminate")
	}
	d := DepthBound(slw.Sigma, tgds.ClassSL)
	if d.IsInt64() && int64(res.MaxDepth()) > d.Int64() {
		t.Fatalf("maxdepth %d exceeds d_SL = %v", res.MaxDepth(), d)
	}
	_ = w
}

func TestNaiveDecider(t *testing.T) {
	sigma := parser.MustParseRules(`r(X, Y) -> ∃Z r(Y, Z).`)
	db := parser.MustParseDatabase(`r(a, b).`)
	v, err := DecideNaive(db, sigma, NaiveOptions{AtomCap: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome == Finite {
		t.Fatalf("verdict = %v", v)
	}
	finiteSigma := parser.MustParseRules(`r(X, Y) -> p(X).`)
	v, err = DecideNaive(db, finiteSigma, NaiveOptions{AtomCap: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != Finite {
		t.Fatalf("verdict = %v", v)
	}
}

// The naive and syntactic deciders agree whenever the naive one is sure.
func TestNaiveAgreesWithSyntactic(t *testing.T) {
	cfg := families.RandomConfig{Predicates: 2, MaxArity: 2, Rules: 2, MaxHeadAtoms: 1, ExistentialProb: 0.5}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 80; trial++ {
		sigma := families.RandomSimpleLinear(rng, cfg)
		if sigma.Len() == 0 || sigma.Classify() != tgds.ClassSL {
			continue
		}
		db := families.RandomDatabase(rng, sigma, 2, 2)
		if db.Len() == 0 {
			continue
		}
		naive, err := DecideNaive(db, sigma, NaiveOptions{AtomCap: 20000})
		if err != nil {
			t.Fatal(err)
		}
		syn, err := DecideSL(db, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if naive.Outcome != Unknown && naive.Outcome != syn.Outcome {
			t.Fatalf("naive %v vs syntactic %v\nsigma:\n%v\ndb: %v", naive, syn, sigma, db)
		}
	}
}

func TestNaiveBudgetClamp(t *testing.T) {
	b := Bounds{Size: big.NewInt(100)}
	budget, exact := NaiveBudget(3, b, 0)
	if budget != 300 || !exact {
		t.Fatalf("budget = %d exact = %v", budget, exact)
	}
	budget, exact = NaiveBudget(3, b, 50)
	if budget != 50 || exact {
		t.Fatalf("clamped budget = %d exact = %v", budget, exact)
	}
	budget, exact = NaiveBudget(3, Bounds{}, 50)
	if budget != 50 || exact {
		t.Fatalf("symbolic-bound budget = %d exact = %v", budget, exact)
	}
}
