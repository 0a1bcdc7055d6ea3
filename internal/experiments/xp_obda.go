package experiments

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/logic"
	"repro/internal/query"
)

func init() {
	register(Experiment{
		ID:    "XP-OBDA",
		Title: "materialization-based OBDA on a university workload (Section 1 motivation)",
		Claim: "once ChTrm accepts, one chase materialization answers all CQs; |chase| stays linear in |D|",
		Run:   runOBDA,
	})
}

func runOBDA(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"scale", "|D|", "decider", "decide time", "|chase|", "|chase|/|D|", "chase time", "certain advised students"},
	}
	scales := []int{1, 4, 16, 64}
	if cfg.Quick {
		scales = []int{1, 4}
	}
	s := logic.Variable("S")
	p := logic.Variable("P")
	q := query.MustCQ([]logic.Variable{s}, []*logic.Atom{
		logic.MakeAtom("advisor", s, p),
		logic.MakeAtom("prof", p),
	})
	for _, scale := range scales {
		w := families.University(scale, int64(scale))
		var verdict *core.Verdict
		var err error
		decideTime := timeIt(func() { verdict, err = core.Decide(w.Database, w.Sigma, nil) })
		if err != nil {
			return nil, err
		}
		var res *chase.Result
		chaseTime := timeIt(func() {
			res = chase.Run(w.Database, w.Sigma, chase.Options{MaxAtoms: 2000000})
		})
		if !res.Terminated {
			t.Note("scale %d: budget exceeded", scale)
			continue
		}
		answers := q.CertainAnswers(res.Instance)
		t.AddRow(scale, w.Database.Len(), verdict.Outcome, micros(decideTime),
			res.Instance.Len(),
			fmt.Sprintf("%.2f", float64(res.Instance.Len())/float64(w.Database.Len())),
			micros(chaseTime), len(answers))
	}
	t.Note("every student is certainly advised (the advisor may be a null); the answer counts all students")
	return t, nil
}
