package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/tgds"
)

func init() {
	register(Experiment{
		ID:    "XP-DECIDE",
		Title: "decision procedures: syntactic vs naive (Theorems 6.6/7.7/8.5)",
		Claim: "the syntactic ChTrm procedures scale far below the naive chase materialization",
		Run:   runDeciders,
	})
	register(Experiment{
		ID:    "XP-UCQ",
		Title: "UCQ-based data-complexity procedures (Theorems 6.6/7.7)",
		Claim: "evaluating the Σ-only UCQ Q_Σ over D decides ChTrm; AC⁰ data complexity",
		Run:   runUCQ,
	})
}

func mustRules(src string) *tgds.Set    { return parser.MustParseRules(src) }
func mustDB(src string) *logic.Instance { return parser.MustParseDatabase(src) }
func micros(d time.Duration) string     { return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000) }
func timeIt(f func()) time.Duration     { start := time.Now(); f(); return time.Since(start) }

func runDeciders(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"class", "ℓ=|D|", "syntactic", "verdict", "naive chase", "verdict"},
	}
	ls := []int{1, 4, 16, 64}
	if cfg.Quick {
		ls = []int{1, 4}
	}
	// One lower-bound family per class; Decide dispatches on the class.
	lowerBounds := []func(l int) families.Workload{
		func(l int) families.Workload { return families.SLLower(l, 2, 2) },
		func(l int) families.Workload { return families.LLower(l, 1, 2) },
		func(l int) families.Workload { return families.GLower(l, 1, 1) },
	}
	for _, family := range lowerBounds {
		for _, l := range ls {
			work := family(l)
			var sv, nv *core.Verdict
			var err error
			synTime := timeIt(func() { sv, err = core.Decide(work.Database, work.Sigma, nil) })
			if err != nil {
				return nil, err
			}
			naiveTime := timeIt(func() {
				nv, err = core.DecideNaive(context.Background(), work.Database, work.Sigma, core.NaiveOptions{AtomCap: 500000})
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(sv.Class, l, micros(synTime), sv.Outcome, micros(naiveTime), nv.Outcome)
		}
	}
	t.Note("syntactic times are flat in ℓ (AC⁰/NL-style data complexity); naive times grow with the materialized chase")
	return t, nil
}

func runUCQ(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"class", "trials", "exact = decider", "equality = decider", "equality ⊇ exact"},
	}
	trials := 200
	if cfg.Quick {
		trials = 50
	}
	rcfgSL := families.RandomConfig{Predicates: 3, MaxArity: 3, Rules: 3, MaxHeadAtoms: 2, ExistentialProb: 0.4}
	rng := rand.New(rand.NewSource(67))
	var ran, exactOK, eqOK, superset int
	for trial := 0; trial < trials; trial++ {
		sigma := families.RandomSimpleLinear(rng, rcfgSL)
		if sigma.Len() == 0 || sigma.Classify() != tgds.ClassSL {
			continue
		}
		db := families.RandomDatabase(rng, sigma, 3, 2)
		q, err := core.BuildUCQSL(sigma)
		if err != nil {
			return nil, err
		}
		v, err := core.DecideSL(db, sigma, nil)
		if err != nil {
			return nil, err
		}
		ran++
		infinite := v.Outcome == core.Infinite
		if q.EvalExact(db) == infinite {
			exactOK++
		}
		if q.EvalEquality(db) == infinite {
			eqOK++
		}
		if !q.EvalExact(db) || q.EvalEquality(db) {
			superset++
		}
	}
	t.AddRow("SL", ran, exactOK, eqOK, superset)

	rcfgL := rcfgSL
	rcfgL.RepeatProb = 0.5
	rng = rand.New(rand.NewSource(71))
	ran, exactOK, eqOK, superset = 0, 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		sigma := families.RandomLinear(rng, rcfgL)
		if sigma.Len() == 0 {
			continue
		}
		db := families.RandomDatabase(rng, sigma, 3, 2)
		q, err := core.BuildUCQL(sigma)
		if err != nil {
			return nil, err
		}
		v, err := core.DecideL(db, sigma, nil)
		if err != nil {
			return nil, err
		}
		ran++
		infinite := v.Outcome == core.Infinite
		if q.EvalExact(db) == infinite {
			exactOK++
		}
		if q.EvalEquality(db) == infinite {
			eqOK++
		}
		if !q.EvalExact(db) || q.EvalEquality(db) {
			superset++
		}
	}
	t.AddRow("L", ran, exactOK, eqOK, superset)
	t.Note("'equality' is the paper's displayed UCQ semantics; 'exact' matches simple(D) membership (DESIGN.md deviation 3)")
	return t, nil
}
