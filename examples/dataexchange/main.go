// Data exchange: materializing a target instance from a source database
// under schema mappings (the chase's original application, Fagin et al.).
// The first mapping is weakly acyclic, so it terminates on every source;
// the second is not, but the non-uniform analysis of the paper still
// certifies termination for sources that cannot feed the cycle.
//
//	go run ./examples/dataexchange
package main

import (
	"fmt"
	"log"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/logic"
	"repro/internal/parser"
)

func main() {
	source, err := parser.ParseDatabase(`
		emp(ada, research).
		emp(grace, systems).
		dept(research).
	`)
	if err != nil {
		log.Fatal(err)
	}

	// Mapping 1: weakly acyclic source-to-target TGDs.
	stMapping := parser.MustParseRules(`
		emp(N, D) -> ∃I worker(I, N), inDept(I, D).
		dept(D) -> ∃M orgUnit(D, M).
	`)
	uok, _ := depgraph.IsWeaklyAcyclic(stMapping)
	fmt.Printf("mapping 1: uniformly weakly acyclic = %v (terminates on every source)\n", uok)
	res := chase.Run(source, stMapping, chase.Options{})
	fmt.Printf("  target instance: %d atoms (universal solution)\n", res.Instance.Len())
	for _, a := range logic.SortAtoms(append([]*logic.Atom{}, res.Instance.Atoms()...)) {
		if a.Pred.Name != "emp" && a.Pred.Name != "dept" {
			fmt.Printf("    %v\n", a)
		}
	}

	// Mapping 2: a target constraint creates a cycle through an
	// existential — not weakly acyclic, and indeed non-terminating on
	// sources with a manager chain seed, but fine on sources without one.
	cyclic := parser.MustParseRules(`
		emp(N, D) -> ∃I worker(I, N).
		boss(X) -> ∃Y managedBy(X, Y).
		managedBy(X, Y) -> boss(Y).
	`)
	uok2, cert := depgraph.IsWeaklyAcyclic(cyclic)
	fmt.Printf("\nmapping 2: uniformly weakly acyclic = %v (%v)\n", uok2, cert)
	for _, srcDB := range []string{`emp(ada, research).`, `boss(ada).`} {
		db := parser.MustParseDatabase(srcDB)
		verdict, err := core.Decide(db, cyclic, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  source %-22s -> %v\n", srcDB, verdict)
	}
	fmt.Println("\nNon-uniform analysis (Theorem 6.4) recovers materializability for")
	fmt.Println("sources that never reach the managedBy cycle, although the mapping")
	fmt.Println("as a whole is rejected by classical weak acyclicity.")
}
