package core

import (
	"fmt"
	"strings"

	"repro/internal/depgraph"
	"repro/internal/logic"
	"repro/internal/simplify"
	"repro/internal/tgds"
)

// Disjunct is one disjunct of the termination UCQ Q_Σ: an existential
// query over a single database predicate, optionally constrained by an
// equality pattern (for the linear case, proof of Theorem 7.7).
type Disjunct struct {
	// Pred is the database predicate the disjunct queries.
	Pred logic.Predicate
	// Pattern, when non-nil, is the id-pattern ℓ̄ of the dangerous
	// pattern predicate Pred⟨ℓ̄⟩ of simple(Σ); len(Pattern) == Pred.Arity.
	Pattern []int
}

// String renders the disjunct as a conjunctive query.
func (d Disjunct) String() string {
	args := make([]string, d.Pred.Arity)
	for i := range args {
		args[i] = fmt.Sprintf("x%d", i+1)
	}
	if d.Pattern != nil {
		for i, l := range d.Pattern {
			args[i] = fmt.Sprintf("x%d", l)
		}
	}
	return "∃ " + d.Pred.Name + "(" + strings.Join(args, ",") + ")"
}

// UCQ is the union of conjunctive queries Q_Σ of Theorems 6.6 and 7.7:
// it depends only on Σ, and D satisfies Q_Σ iff Σ (resp. simple(Σ)) is
// not D-weakly-acyclic (resp. simple(D)-weakly-acyclic), i.e. iff the
// chase of D is infinite.
type UCQ struct {
	Disjuncts []Disjunct
}

// BuildUCQSL constructs Q_Σ for a simple linear Σ (proof of Theorem 6.6):
// one unconstrained disjunct per predicate of P_Σ.
func BuildUCQSL(sigma *tgds.Set) (UCQ, error) {
	if c := sigma.Classify(); c != tgds.ClassSL {
		return UCQ{}, fmt.Errorf("core: BuildUCQSL requires simple linear TGDs, got class %v", c)
	}
	var q UCQ
	for _, p := range dangerous(sigma) {
		q.Disjuncts = append(q.Disjuncts, Disjunct{Pred: p})
	}
	return q, nil
}

// BuildUCQL constructs Q_Σ for a linear Σ (proof of Theorem 7.7): one
// disjunct per dangerous pattern predicate R⟨ℓ̄⟩ of simple(Σ), over the
// base predicate R with equality pattern ℓ̄.
func BuildUCQL(sigma *tgds.Set) (UCQ, error) {
	if c := sigma.Classify(); c > tgds.ClassL {
		return UCQ{}, fmt.Errorf("core: BuildUCQL requires linear TGDs, got class %v", c)
	}
	sSigma, err := simplify.Set(sigma)
	if err != nil {
		return UCQ{}, err
	}
	var q UCQ
	for _, p := range dangerous(sSigma) {
		base, pattern, ok := simplify.ParsePatternPredicate(p)
		if !ok {
			return UCQ{}, fmt.Errorf("core: dangerous predicate %v of simple(Σ) is not a pattern predicate", p)
		}
		q.Disjuncts = append(q.Disjuncts, Disjunct{
			Pred:    logic.Predicate{Name: base, Arity: len(pattern)},
			Pattern: pattern,
		})
	}
	return q, nil
}

// dangerous returns the set P_Σ of the AC⁰ procedures: the predicates
// whose presence in the database witnesses a supported special cycle.
func dangerous(sigma *tgds.Set) []logic.Predicate {
	return depgraph.DangerousPredicates(sigma)
}

// EvalEquality evaluates the UCQ under the paper's displayed semantics:
// a disjunct is satisfied by an atom R(t̄) if t_i = t_j whenever
// ℓ_i = ℓ_j (atoms with strictly more equalities also satisfy it). See
// DESIGN.md, deviation 3.
func (q UCQ) EvalEquality(db *logic.Instance) bool {
	return q.eval(db, func(args []logic.Term, pattern []int) bool {
		for i := range pattern {
			for j := i + 1; j < len(pattern); j++ {
				if pattern[i] == pattern[j] && logic.IDOf(args[i]) != logic.IDOf(args[j]) {
					return false
				}
			}
		}
		return true
	})
}

// EvalExact evaluates the UCQ under exact pattern semantics: a disjunct is
// satisfied by an atom R(t̄) iff id(t̄) = ℓ̄ (t_i = t_j iff ℓ_i = ℓ_j),
// which matches membership of the corresponding pattern fact in simple(D)
// and therefore provably agrees with the syntactic decider.
func (q UCQ) EvalExact(db *logic.Instance) bool {
	return q.eval(db, func(args []logic.Term, pattern []int) bool {
		got := simplify.IDPattern(args)
		for i := range got {
			if got[i] != pattern[i] {
				return false
			}
		}
		return true
	})
}

func (q UCQ) eval(db *logic.Instance, match func([]logic.Term, []int) bool) bool {
	for _, d := range q.Disjuncts {
		for a := range db.AtomsOf(d.Pred) {
			if d.Pattern == nil || match(a.Args, d.Pattern) {
				return true
			}
		}
	}
	return false
}

// String renders the UCQ as a disjunction.
func (q UCQ) String() string {
	if len(q.Disjuncts) == 0 {
		return "⊥ (no dangerous predicates)"
	}
	parts := make([]string, len(q.Disjuncts))
	for i, d := range q.Disjuncts {
		parts[i] = d.String()
	}
	return strings.Join(parts, " ∨ ")
}
