package core

import (
	"math/rand"
	"testing"

	"repro/internal/depgraph"
	"repro/internal/families"
	"repro/internal/guarded"
	"repro/internal/logic"
	"repro/internal/simplify"
	"repro/internal/tgds"
)

// instanceVerdict renders the verdict v should be when D is read whole:
// whether simpleSigma is weakly acyclic for the instance simpleD, under
// v's class and method.
func instanceVerdict(v *Verdict, simpleD *logic.Instance, simpleSigma *tgds.Set) string {
	want := &Verdict{Class: v.Class, Method: v.Method, Outcome: Finite}
	if ok, cert := depgraph.IsWeaklyAcyclicFor(simpleD, simpleSigma); !ok {
		want.Outcome, want.Certificate = Infinite, cert.String()
	}
	return want.String()
}

// DecideG reads D only through the predicate set of gsimple(D); its
// verdicts, certificates included, must equal those of Theorem 8.3 read
// on instances: lin(D) and lin(Σ), then gsimple(D) and gsimple(Σ), then
// D-weak-acyclicity over the instance gsimple(D). The grid is the guarded
// sets among RandomGuarded shapes (predicates, rules, arity) (5,6,3),
// (4,5,2) and (6,8,3) under Σ-seeds 1–60, each against 8 databases of
// 5+20i facts over 3+4i constants; -short runs Σ-seeds 1–8 against the
// first 4.
func TestDecideGMatchesInstances(t *testing.T) {
	seeds, dbs := 60, 8
	if testing.Short() {
		seeds, dbs = 8, 4
	}
	decisions, infinite := 0, 0
	for _, shape := range [][3]int{{5, 6, 3}, {4, 5, 2}, {6, 8, 3}} {
		cfg := families.DefaultRandomConfig()
		cfg.Predicates, cfg.Rules, cfg.MaxArity = shape[0], shape[1], shape[2]
		for seed := int64(1); seed <= int64(seeds); seed++ {
			sigma := families.RandomGuarded(rand.New(rand.NewSource(seed)), cfg)
			if sigma.Classify() != tgds.ClassG {
				continue
			}
			for i := range dbs {
				rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
				db := families.RandomDatabase(rng, sigma, 5+20*i, 3+4*i)
				v, err := DecideG(db, sigma)
				if err != nil {
					t.Fatal(err)
				}
				l, err := guarded.NewLinearizer(sigma)
				if err != nil {
					t.Fatal(err)
				}
				linDB, linSigma, err := l.Linearize(db)
				if err != nil {
					t.Fatal(err)
				}
				gsSigma, err := simplify.Set(linSigma)
				if err != nil {
					t.Fatal(err)
				}
				if want := instanceVerdict(v, simplify.Database(linDB), gsSigma); v.String() != want {
					t.Fatalf("shape %v, Σ-seed %d, database %d: DecideG says\n  %v\non instances:\n  %s", shape, seed, i, v, want)
				}
				decisions++
				if v.Outcome == Infinite {
					infinite++
				}
			}
		}
	}
	t.Logf("%d decisions, %d with certificates", decisions, infinite)
	if infinite == 0 || infinite == decisions {
		t.Fatalf("%d of %d decisions infinite: the grid must exercise both outcomes", infinite, decisions)
	}
}

// DecideL reads D only through the predicate set of simple(D); its
// verdicts must equal Theorem 7.5 read on the instance simple(D), over
// random linear sets whose bodies repeat variables and databases whose
// facts repeat constants.
func TestDecideLMatchesInstances(t *testing.T) {
	cfg := families.DefaultRandomConfig()
	cfg.RepeatProb = 0.5
	rng := rand.New(rand.NewSource(75))
	decisions, infinite := 0, 0
	for range 300 {
		sigma := families.RandomLinear(rng, cfg)
		if sigma.Len() == 0 {
			continue
		}
		sSigma, err := simplify.Set(sigma)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 3 {
			db := families.RandomDatabase(rng, sigma, 2+3*i, 2+i)
			v, err := DecideL(db, sigma, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := instanceVerdict(v, simplify.Database(db), sSigma); v.String() != want {
				t.Fatalf("DecideL says\n  %v\non simple(D):\n  %s\nsigma:\n%v\ndb: %v", v, want, sigma, db)
			}
			decisions++
			if v.Outcome == Infinite {
				infinite++
			}
		}
	}
	if infinite == 0 || infinite == decisions {
		t.Fatalf("%d of %d decisions infinite: the grid must exercise both outcomes", infinite, decisions)
	}
}
