// Certain-answer query answering over a chase materialization — the OBDA
// workflow the paper's introduction motivates: check termination first
// (Theorem 8.3 machinery), materialize once, then answer conjunctive
// queries under certain-answer semantics (null-free answers only, by the
// universal-model property).
//
//	go run ./examples/queryanswering
package main

import (
	"fmt"
	"log"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/query"
)

func main() {
	prog, err := parser.Parse(`
		% Data.
		paper(chase22).       journal(tods).
		inVenue(chase22, pods22).

		% Ontology (guarded): venues have a series; papers have authors;
		% authors of published papers are researchers.
		inVenue(P, V) -> ∃S series(V, S).
		paper(P) -> ∃A author(P, A).
		author(P, A), paper(P) -> researcher(A).
	`)
	if err != nil {
		log.Fatal(err)
	}

	verdict, err := core.Decide(prog.Database, prog.Rules, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("termination:", verdict)

	res := chase.Run(prog.Database, prog.Rules, chase.Options{MaxAtoms: 10000})
	fmt.Printf("materialized %d atoms (%d nulls)\n\n", res.Instance.Len(), res.Stats.Nulls)

	p, a := logic.Variable("P"), logic.Variable("A")
	queries := []*query.CQ{
		// Which papers certainly have a researcher author? The author is
		// a null, but P is a constant: Boolean-style certainty per paper.
		query.MustCQ([]logic.Variable{p}, []*logic.Atom{
			logic.MakeAtom("author", p, a),
			logic.MakeAtom("researcher", a),
		}),
		// Who are the certain researchers? None by name: every author is
		// an invented witness, so the certain answer set is empty.
		query.MustCQ([]logic.Variable{a}, []*logic.Atom{
			logic.MakeAtom("researcher", a),
		}),
	}
	for _, q := range queries {
		fmt.Printf("query: %v\n", q)
		fmt.Printf("  all answers:     %v\n", q.Answers(res.Instance))
		fmt.Printf("  certain answers: %v\n", q.CertainAnswers(res.Instance))
	}
	fmt.Println("\nNulls witness existentials but never appear in certain answers —")
	fmt.Println("the universal-model property that makes chase materialization sound.")
}
