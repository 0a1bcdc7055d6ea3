package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/depgraph"
	"repro/internal/families"
	"repro/internal/parser"
	"repro/internal/tgds"
)

func TestCriticalInstance(t *testing.T) {
	sigma := parser.MustParseRules(`r(X, Y) -> ∃Z s(Y, Z).`)
	crit := CriticalInstance(sigma)
	// One constant, predicates r/2 and s/2: one all-crit atom each.
	if crit.Len() != 2 {
		t.Fatalf("critical instance = %v", crit)
	}
	// Constants in rules join the pool.
	sigma2 := parser.MustParseRules(`r(X, a) -> s(X, X).`)
	crit2 := CriticalInstance(sigma2)
	// Two constants {crit, a}: r/2 has 4 atoms, s/2 has 4 atoms.
	if crit2.Len() != 8 {
		t.Fatalf("critical instance with rule constant = %v", crit2)
	}
}

func TestDecideUniform(t *testing.T) {
	infinite := parser.MustParseRules(`r(X, Y) -> ∃Z r(Y, Z).`)
	v, err := DecideUniform(infinite)
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != Infinite {
		t.Fatalf("verdict = %v", v)
	}
	finite := parser.MustParseRules(`r(X, Y) -> ∃Z s(Y, Z).`)
	v, err = DecideUniform(finite)
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != Finite {
		t.Fatalf("verdict = %v", v)
	}
}

// Classical weak-acyclicity coincides with the critical-instance route
// for SL sets (both characterize uniform termination).
func TestUniformEquivalenceSLProperty(t *testing.T) {
	cfg := families.RandomConfig{Predicates: 3, MaxArity: 3, Rules: 3, MaxHeadAtoms: 2, ExistentialProb: 0.4}
	rng := rand.New(rand.NewSource(73))
	checked := 0
	for trial := 0; trial < 150; trial++ {
		sigma := families.RandomSimpleLinear(rng, cfg)
		if sigma.Len() == 0 || sigma.Classify() != tgds.ClassSL {
			continue
		}
		if err := uniformEquivalenceSL(sigma); err != nil {
			t.Fatalf("trial %d: %v\nsigma:\n%v", trial, err, sigma)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d sets checked", checked)
	}
}

// Uniform termination implies termination on random databases; uniform
// non-termination is witnessed by the critical instance's chase.
func TestUniformSemantics(t *testing.T) {
	cfg := families.RandomConfig{Predicates: 2, MaxArity: 2, Rules: 2, MaxHeadAtoms: 1, ExistentialProb: 0.5}
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 60; trial++ {
		sigma := families.RandomSimpleLinear(rng, cfg)
		if sigma.Len() == 0 || sigma.Classify() != tgds.ClassSL {
			continue
		}
		v, err := DecideUniform(sigma)
		if err != nil {
			t.Fatal(err)
		}
		crit := CriticalInstance(sigma)
		res := chase.Run(crit, sigma, chase.Options{MaxAtoms: 5000})
		if (v.Outcome == Finite) != res.Terminated {
			t.Fatalf("uniform verdict %v vs critical chase terminated=%v\nsigma:\n%v", v, res.Terminated, sigma)
		}
		if v.Outcome == Finite {
			// Spot-check on a random database.
			db := families.RandomDatabase(rng, sigma, 3, 2)
			r2 := chase.Run(db, sigma, chase.Options{MaxAtoms: 5000})
			if !r2.Terminated {
				t.Fatalf("uniformly terminating Σ diverged on %v\nsigma:\n%v", db, sigma)
			}
		}
	}
}

// uniformEquivalenceSL verifies, for a simple linear Σ, that the two
// routes to uniform termination agree: classical weak-acyclicity iff
// D-weak-acyclicity on the critical instance. It returns an error on
// disagreement (the equivalence is a theorem).
func uniformEquivalenceSL(sigma *tgds.Set) error {
	if c := sigma.Classify(); c != tgds.ClassSL {
		return fmt.Errorf("uniformEquivalenceSL requires SL, got %v", c)
	}
	wa, _ := depgraph.IsWeaklyAcyclic(sigma)
	v, err := DecideSL(CriticalInstance(sigma), sigma, nil)
	if err != nil {
		return err
	}
	if wa != (v.Outcome == Finite) {
		return fmt.Errorf("core: weak-acyclicity (%v) disagrees with critical-instance decision (%v)", wa, v.Outcome)
	}
	return nil
}
