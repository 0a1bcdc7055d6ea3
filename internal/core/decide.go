package core

import (
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
// D-weakly-acyclic. It errors when Σ is not simple linear.
func DecideSL(db *logic.Instance, sigma *tgds.Set) (*Verdict, error) {
	return DecideSLWith(db, sigma, nil)
}

// DecideSLWith is DecideSL with the Σ-only graphs served by a (nil =
// uncached). The verdict is identical either way.
func DecideSLWith(db *logic.Instance, sigma *tgds.Set, a Analyses) (*Verdict, error) {
	if c := sigma.Classify(); c != tgds.ClassSL {
		return nil, fmt.Errorf("core: DecideSL requires simple linear TGDs, got class %v", c)
	}
	a = analysesOr(a)
	ok, cert := depgraph.IsWeaklyAcyclicForGraphs(db, a.DepGraph(sigma), a.PredGraph(sigma))
	v := &Verdict{Class: tgds.ClassSL, Method: "D-weak-acyclicity"}
	if ok {
		v.Outcome = Finite
	} else {
		v.Outcome = Infinite
		v.Certificate = cert.String()
	}
	return v, nil
}

// DecideL decides ChTrm(L) by Theorem 7.5: Σ ∈ CT_D iff simple(Σ) is
// simple(D)-weakly-acyclic. It errors when Σ is not linear.
func DecideL(db *logic.Instance, sigma *tgds.Set) (*Verdict, error) {
	return DecideLWith(db, sigma, nil)
}

// DecideLWith is DecideL with simple(Σ) and its graphs served by a (nil =
// uncached); only simple(D) remains per-request work. The verdict is
// identical either way.
func DecideLWith(db *logic.Instance, sigma *tgds.Set, a Analyses) (*Verdict, error) {
	if c := sigma.Classify(); c > tgds.ClassL {
		return nil, fmt.Errorf("core: DecideL requires linear TGDs, got class %v", c)
	}
	a = analysesOr(a)
	sSigma, err := a.Simplified(sigma)
	if err != nil {
		return nil, err
	}
	sDB := simplify.Database(db)
	ok, cert := depgraph.IsWeaklyAcyclicForGraphs(sDB, a.DepGraph(sSigma), a.PredGraph(sSigma))
	v := &Verdict{Class: tgds.ClassL, Method: "simplification + D-weak-acyclicity"}
	if ok {
		v.Outcome = Finite
	} else {
		v.Outcome = Infinite
		v.Certificate = cert.String()
	}
	return v, nil
}

// DecideG decides ChTrm(G) by Theorem 8.3: Σ ∈ CT_D iff gsimple(Σ) is
// gsimple(D)-weakly-acyclic. It errors when Σ is not guarded.
func DecideG(db *logic.Instance, sigma *tgds.Set) (*Verdict, error) {
	if c := sigma.Classify(); c > tgds.ClassG {
		return nil, fmt.Errorf("core: DecideG requires guarded TGDs, got class %v", c)
	}
	gsDB, gsSigma, err := guarded.GSimple(db, sigma)
	if err != nil {
		return nil, err
	}
	ok, cert := depgraph.IsWeaklyAcyclicFor(gsDB, gsSigma)
	v := &Verdict{Class: tgds.ClassG, Method: "linearization + simplification + D-weak-acyclicity"}
	if ok {
		v.Outcome = Finite
	} else {
		v.Outcome = Infinite
		v.Certificate = cert.String()
	}
	return v, nil
}

// Decide dispatches on the most restrictive class of Σ. For arbitrary
// (unguarded) sets, for which the problem is undecidable (Section 3 /
// [13]), it returns an error; DecideNaive is the budgeted materialization
// probe for classes with a size bound.
func Decide(db *logic.Instance, sigma *tgds.Set) (*Verdict, error) {
	return DecideWith(db, sigma, nil)
}

// DecideWith is Decide with the Σ-only analyses served by a (nil =
// uncached). The guarded decider stays uncached by construction: its
// gsimple transformation depends on the database, so it has no Σ-only
// artifact to share.
func DecideWith(db *logic.Instance, sigma *tgds.Set, a Analyses) (*Verdict, error) {
	switch sigma.Classify() {
	case tgds.ClassSL:
		return DecideSLWith(db, sigma, a)
	case tgds.ClassL:
		return DecideLWith(db, sigma, a)
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
	// Executor, when non-nil, shards the probe's trigger collection
	// (nil or single-worker executors run sequentially).
	Executor chase.Executor
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
// exceeds the cap the procedure may return Unknown.
func DecideNaive(db *logic.Instance, sigma *tgds.Set, o NaiveOptions) (*Verdict, error) {
	class := sigma.Classify()
	if class == tgds.ClassTGD {
		return nil, fmt.Errorf("core: the naive procedure needs a size bound, unavailable for arbitrary TGDs")
	}
	b := SizeBound(sigma, class)
	budget, exact := NaiveBudget(db.Len(), b, o.AtomCap)
	if !exact && budget <= 0 {
		return nil, fmt.Errorf("%w (class %v, log2 f_C(Σ) ≈ %.1f)", ErrUnboundedNaive, class, b.Log2Size)
	}
	res := chase.Run(db, sigma, chase.Options{MaxAtoms: budget, Executor: o.Executor, Compile: o.Compiler, Progress: o.Progress})
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
