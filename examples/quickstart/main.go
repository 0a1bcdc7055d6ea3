// Quickstart: parse a small program, check whether its chase terminates,
// materialize it, and query the result.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/parser"
)

const program = `
	% A tiny social database.
	person(alice).
	person(bob).
	knows(alice, bob).

	% Everybody known by a person is a person.
	knows(X, Y) -> person(Y).
	% Every person likes something (an existential rule).
	person(X) -> ∃Y likes(X, Y).
`

func main() {
	prog, err := parser.Parse(program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d facts, ontology: %d TGDs (class %v)\n",
		prog.Database.Len(), prog.Rules.Len(), prog.Rules.Classify())

	// 1. Decide termination before materializing (Theorem 8.3 machinery —
	// the dispatcher picks the right characterization for the class).
	verdict, err := core.Decide(prog.Database, prog.Rules, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("termination:", verdict)

	// 2. Materialize with the semi-oblivious chase.
	res := chase.Run(prog.Database, prog.Rules, chase.Options{MaxAtoms: 100000})
	fmt.Printf("chase: %d atoms, %d nulls, max term depth %d, terminated=%v\n",
		res.Instance.Len(), res.Stats.Nulls, res.MaxDepth(), res.Terminated)

	// 3. Query the materialization: what does bob (a derived person) like?
	x := logic.Variable("X")
	pattern := []*logic.Atom{logic.MakeAtom("likes", logic.Constant("bob"), x)}
	fmt.Print("bob likes:")
	logic.MatchAll(pattern, res.Instance, func(s logic.Substitution) bool {
		fmt.Printf(" %v", s[x])
		return true
	})
	fmt.Println(" (a labeled null: some unknown thing)")
}
