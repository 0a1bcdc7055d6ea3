package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/chase"
	"repro/internal/depgraph"
	"repro/internal/guarded"
	"repro/internal/logic"
	"repro/internal/simplify"
	"repro/internal/tgds"
)

// Outcome is the answer of a termination decision.
type Outcome int

const (
	// Finite: chase(D, Σ) is finite (Σ ∈ CT_D).
	Finite Outcome = iota
	// Infinite: chase(D, Σ) is infinite (Σ ∉ CT_D).
	Infinite
	// Unknown: the (budgeted) procedure could not decide.
	Unknown
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case Finite:
		return "finite"
	case Infinite:
		return "infinite"
	default:
		return "unknown"
	}
}

// Verdict is the result of a ChTrm decision, with the class and method
// used and a human-readable certificate for negative answers.
type Verdict struct {
	Outcome     Outcome
	Class       tgds.Class
	Method      string
	Certificate string
}

func (v *Verdict) String() string {
	s := fmt.Sprintf("%v [%v, %s]", v.Outcome, v.Class, v.Method)
	if v.Certificate != "" {
		s += ": " + v.Certificate
	}
	return s
}

// Analyses supplies the Σ-only artifacts the deciders consume, so a
// cross-request cache (internal/compile.Cache implements this interface)
// can serve a stream of databases against one ontology without re-deriving
// the simplification or the dependency graphs per request. Methods must be
// semantically equivalent to calling the underlying packages directly;
// a nil Analyses selects exactly that.
type Analyses interface {
	Simplified(sigma *tgds.Set) (*tgds.Set, error)
	DepGraph(sigma *tgds.Set) *depgraph.Graph
	PredGraph(sigma *tgds.Set) *depgraph.PredGraph
}

// directAnalyses is the uncached Analyses: every call derives afresh.
type directAnalyses struct{}

func (directAnalyses) Simplified(s *tgds.Set) (*tgds.Set, error) { return simplify.Set(s) }
func (directAnalyses) DepGraph(s *tgds.Set) *depgraph.Graph      { return depgraph.Build(s) }
func (directAnalyses) PredGraph(s *tgds.Set) *depgraph.PredGraph { return depgraph.BuildPredGraph(s) }

func analysesOr(a Analyses) Analyses {
	if a == nil {
		return directAnalyses{}
	}
	return a
}

// DecideSL decides ChTrm(SL) by Theorem 6.4: Σ ∈ CT_D iff Σ is
// D-weakly-acyclic. The Σ-only graphs are served by a (nil = uncached);
// the verdict is identical either way. It errors when Σ is not simple
// linear.
func DecideSL(db *logic.Instance, sigma *tgds.Set, a Analyses) (*Verdict, error) {
	if c := sigma.Classify(); c != tgds.ClassSL {
		return nil, fmt.Errorf("core: DecideSL requires simple linear TGDs, got class %v", c)
	}
	return weaklyAcyclic(tgds.ClassSL, "D-weak-acyclicity", db.Predicates(), sigma, analysesOr(a)), nil
}

// DecideL decides ChTrm(L) by Theorem 7.5: Σ ∈ CT_D iff simple(Σ) is
// simple(D)-weakly-acyclic. simple(Σ) and its graphs are served by a (nil
// = uncached); the verdict is identical either way. D is read only
// through the predicate set of simple(D), which is computed without
// building simple(D). It errors when Σ is not linear.
func DecideL(db *logic.Instance, sigma *tgds.Set, a Analyses) (*Verdict, error) {
	if c := sigma.Classify(); c > tgds.ClassL {
		return nil, fmt.Errorf("core: DecideL requires linear TGDs, got class %v", c)
	}
	a = analysesOr(a)
	sSigma, err := a.Simplified(sigma)
	if err != nil {
		return nil, err
	}
	return weaklyAcyclic(tgds.ClassL, "simplification + D-weak-acyclicity", simplify.DatabasePredicates(db), sSigma, a), nil
}

// DecideG decides ChTrm(G) by Theorem 8.3: Σ ∈ CT_D iff gsimple(Σ) is
// gsimple(D)-weakly-acyclic. D is read only through the predicate set of
// gsimple(D) = simple(lin(D)), which the linearizer computes in its one
// pass over D, building neither lin(D) nor gsimple(D). It errors when Σ
// is not guarded.
//
// The guarded decider stays uncached, as measured: its one Σ-only
// artifact, linearizeType(τ) per canonical type τ, is keyed by types that
// depend on D. On decide-guarded-shaped requests a shared store of them
// held 925, 3,486 and 6,297 types after 64, 500 and 1,500 requests, still
// growing, and raised peak RSS by 30%, while sharing only the
// completion's child closures saved nothing measurable. DecideG does
// per-request work linear in |D| instead.
func DecideG(db *logic.Instance, sigma *tgds.Set) (*Verdict, error) {
	if c := sigma.Classify(); c > tgds.ClassG {
		return nil, fmt.Errorf("core: DecideG requires guarded TGDs, got class %v", c)
	}
	l, err := guarded.NewLinearizer(sigma)
	if err != nil {
		return nil, err
	}
	preds, linSigma, err := l.LinearizePredicates(db)
	if err != nil {
		return nil, err
	}
	gsSigma, err := simplify.Set(linSigma)
	if err != nil {
		return nil, err
	}
	return weaklyAcyclic(tgds.ClassG, "linearization + simplification + D-weak-acyclicity", preds, gsSigma, directAnalyses{}), nil
}

// weaklyAcyclic decides by Definition 6.1 whether sigma is D-weakly-acyclic
// for a database D with the sorted predicates dbPreds, with sigma's graphs
// served by a.
func weaklyAcyclic(class tgds.Class, method string, dbPreds []logic.Predicate, sigma *tgds.Set, a Analyses) *Verdict {
	ok, cert := depgraph.IsWeaklyAcyclicForGraphs(dbPreds, a.DepGraph(sigma), a.PredGraph(sigma))
	v := &Verdict{Class: class, Method: method, Outcome: Finite}
	if !ok {
		v.Outcome = Infinite
		v.Certificate = cert.String()
	}
	return v
}

// Decide dispatches on the most restrictive class of Σ, with the Σ-only
// analyses of the SL and L deciders served by a (nil = uncached; DecideG
// is always uncached). For arbitrary (unguarded) sets, for which the
// problem is undecidable (Section 3 / [13]), it returns an error;
// DecideNaive is the budgeted materialization probe for classes with a
// size bound.
func Decide(db *logic.Instance, sigma *tgds.Set, a Analyses) (*Verdict, error) {
	switch sigma.Classify() {
	case tgds.ClassSL:
		return DecideSL(db, sigma, a)
	case tgds.ClassL:
		return DecideL(db, sigma, a)
	case tgds.ClassG:
		return DecideG(db, sigma)
	default:
		return nil, fmt.Errorf("core: ChTrm is undecidable for arbitrary TGDs; no decision procedure applies")
	}
}

// ErrUnboundedNaive is returned by DecideNaive when the probe has no
// atom cap and the exact bound |D|·f_C(Σ) is too large to serve as one
// (not materialized, or beyond MaxInt32 atoms): the materialization would
// then run without a bound on a non-terminating Σ. Test with errors.Is.
var ErrUnboundedNaive = errors.New("core: the naive probe needs an atom cap: the bound |D|·f_C(Σ) is too large to materialize")

// NaiveOptions configures DecideNaive's materialization probe. Every
// field but AtomCap is a pure performance or observability knob: the
// verdict is identical for any combination.
type NaiveOptions struct {
	// AtomCap is the practical atom cap bounding the probe's memory; when
	// the exact bound |D|·f_C(Σ) exceeds it the procedure may answer
	// Unknown. Zero means no cap, which requires a bound small enough to
	// materialize (ErrUnboundedNaive otherwise).
	AtomCap int
	// Compiler, when non-nil, serves the probe's compiled per-TGD programs
	// from a cross-request cache.
	Compiler chase.Compiler
	// Progress, when non-nil, receives the probe's statistics at every
	// round boundary (chase.Options.Progress); streaming callers use it to
	// surface the long-running materialization incrementally.
	Progress func(chase.Stats)
}

// DecideNaive runs the paper's naive procedure (Section 3): materialize
// the chase and compare against the bound |D|·f_C(Σ) from item (2) of the
// characterizations. The atom cap bounds memory; when the exact bound
// exceeds the cap the procedure may return Unknown. The materialization
// polls ctx: a probe that ctx stops before the chase terminated or passed
// its budget returns ctx.Err(), never a verdict.
func DecideNaive(ctx context.Context, db *logic.Instance, sigma *tgds.Set, o NaiveOptions) (*Verdict, error) {
	class := sigma.Classify()
	if class == tgds.ClassTGD {
		return nil, fmt.Errorf("core: the naive procedure needs a size bound, unavailable for arbitrary TGDs")
	}
	b := SizeBound(sigma, class)
	budget, exact := NaiveBudget(db.Len(), b, o.AtomCap)
	if !exact && budget <= 0 {
		return nil, fmt.Errorf("%w (class %v, log2 f_C(Σ) ≈ %.1f)", ErrUnboundedNaive, class, b.Log2Size)
	}
	res := chase.Run(db, sigma, chase.Options{
		MaxAtoms:  budget,
		Compile:   o.Compiler,
		Progress:  o.Progress,
		Interrupt: func() bool { return ctx.Err() != nil },
	})
	if !res.Terminated && (budget == 0 || res.Instance.Len() <= budget) {
		// Only ctx stops a run short of both outcomes; an interrupted
		// exact-budget probe must not read as Infinite.
		return nil, ctx.Err()
	}
	v := &Verdict{Class: class, Method: "naive chase materialization"}
	switch {
	case res.Terminated:
		v.Outcome = Finite
		v.Certificate = fmt.Sprintf("chase materialized with %d atoms", res.Instance.Len())
	case exact:
		v.Outcome = Infinite
		v.Certificate = fmt.Sprintf("chase exceeded the bound |D|·f_C(Σ) = %d", budget)
	default:
		v.Outcome = Unknown
		v.Certificate = fmt.Sprintf("chase exceeded the practical cap %d below the bound", budget)
	}
	return v, nil
}
