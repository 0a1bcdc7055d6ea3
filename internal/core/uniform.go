package core

import (
	"repro/internal/depgraph"
	"repro/internal/logic"
	"repro/internal/tgds"
)

// Uniform chase termination: does the chase terminate for EVERY database?
// For the semi-oblivious chase this reduces to the non-uniform problem on
// the critical instance (all atoms formable from sch(Σ) over a single
// fresh constant, plus any constants mentioned by Σ): the chase of any
// database maps into the chase of the critical instance, so termination
// on the critical instance implies termination everywhere (Marnette,
// PODS 2009; the paper inherits its hardness results through the same
// database, Sections 6–8).

// CriticalInstance returns the critical database of Σ: for every
// predicate of sch(Σ), all atoms over the single constant "crit" and the
// constants occurring in Σ.
func CriticalInstance(sigma *tgds.Set) *logic.Instance {
	consts := []logic.Term{logic.Constant("crit")}
	seen := map[logic.Term]bool{consts[0]: true}
	for _, t := range sigma.TGDs {
		for _, atoms := range [][]*logic.Atom{t.Body, t.Head} {
			for _, a := range atoms {
				for _, term := range a.Args {
					if c, ok := term.(logic.Constant); ok && !seen[c] {
						seen[c] = true
						consts = append(consts, c)
					}
				}
			}
		}
	}
	db := logic.NewInstance()
	for _, p := range sigma.Schema() {
		args := make([]logic.Term, p.Arity)
		var fill func(i int)
		fill = func(i int) {
			if i == p.Arity {
				db.Add(logic.NewAtom(p, append([]logic.Term{}, args...)...))
				return
			}
			for _, c := range consts {
				args[i] = c
				fill(i + 1)
			}
		}
		fill(0)
	}
	return db
}

// UniformAnalyses extends Analyses with the uniform weak-acyclicity
// verdict, itself a Σ-only artifact (internal/compile.Cache implements
// it).
type UniformAnalyses interface {
	Analyses
	WeaklyAcyclic(sigma *tgds.Set) (bool, *depgraph.Certificate)
}

// DecideUniform decides whether Σ ∈ CT (the chase terminates on every
// database) by deciding the non-uniform problem on the critical instance,
// with the Σ-only analyses served by a (nil = uncached). For the classes
// Decide supports that answer is exact. For arbitrary TGD sets it answers
// by classical weak acyclicity, a sufficient condition for uniform
// termination for every class (Fagin et al.): a weakly acyclic set is
// reported Finite, anything else Unknown (the problem is undecidable
// there, so no certificate of non-termination exists).
func DecideUniform(sigma *tgds.Set, a UniformAnalyses) (*Verdict, error) {
	if sigma.Classify() == tgds.ClassTGD {
		var ok bool
		if a != nil {
			ok, _ = a.WeaklyAcyclic(sigma)
		} else {
			ok, _ = depgraph.IsWeaklyAcyclic(sigma)
		}
		v := &Verdict{Class: tgds.ClassTGD, Method: "classical weak-acyclicity (sufficient)"}
		if ok {
			v.Outcome = Finite
		} else {
			v.Outcome = Unknown
			v.Certificate = "not weakly acyclic; uniform ChTrm is undecidable for arbitrary TGDs"
		}
		return v, nil
	}
	var inner Analyses
	if a != nil {
		inner = a
	}
	v, err := Decide(CriticalInstance(sigma), sigma, inner)
	if err != nil {
		return nil, err
	}
	v.Method = "critical instance + " + v.Method
	return v, nil
}
