package depgraph

import (
	"math/rand"
	"testing"

	"repro/internal/families"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/tgds"
)

// CheckWA is a faithful (determinized) implementation of Algorithm 1 of
// the paper: it accepts iff Σ is NOT D-weakly-acyclic, by (1) searching
// for a cycle of dg(Σ) through a special edge, and (2) checking that the
// cycle's starting predicate is reachable, in pg(Σ), from a predicate
// occurring in D. The paper's version guesses the two walks in NL; here
// the guesses become explicit graph searches, but the structure — walk
// the dependency graph edge by edge until the start node recurs, with a
// flag recording whether a special edge was crossed, then walk the
// predicate graph — is the same. It is an executable rendering of the
// proof of Theorem 6.6, and the oracle the SCC-based IsWeaklyAcyclicFor
// is cross-tested against.
func CheckWA(db *logic.Instance, sigma *tgds.Set) bool {
	g := Build(sigma)
	pg := BuildPredGraph(sigma)
	dbPreds := db.Predicates()
	for start := range g.Nodes {
		if !cycleWithSpecial(g, start) {
			continue
		}
		// Second phase: guess a database predicate R and walk pg(Σ) to
		// the cycle's predicate P (reachability; reflexive).
		p := g.Nodes[start].Pred
		for _, r := range dbPreds {
			if pg.ReachableFrom([]logic.Predicate{r})[p] {
				return true
			}
		}
	}
	return false
}

// cycleWithSpecial reports whether some cycle through the start node
// crosses a special edge. It mirrors the algorithm's main loop: walk
// edges, set the flag on special ones, accept on return to the start
// with the flag set. Determinized as a flagged reachability search over
// (node, flag) pairs.
func cycleWithSpecial(g *Graph, start int) bool {
	type state struct {
		node    int
		flagged bool
	}
	seen := make(map[state]bool)
	stack := []state{{node: start}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range g.out[s.node] {
			e := g.Edges[ei]
			next := state{node: g.nodeIdx[e.To], flagged: s.flagged || e.Special}
			if next.node == start && next.flagged {
				return true
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// CheckWA (the paper's Algorithm 1, determinized) must agree with the
// SCC-based IsWeaklyAcyclicFor on random SL inputs.
func TestCheckWAAgreesWithSCC(t *testing.T) {
	cfg := families.RandomConfig{Predicates: 3, MaxArity: 3, Rules: 3, MaxHeadAtoms: 2, ExistentialProb: 0.4}
	rng := rand.New(rand.NewSource(101))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		sigma := families.RandomSimpleLinear(rng, cfg)
		if sigma.Len() == 0 || sigma.Classify() != tgds.ClassSL {
			continue
		}
		db := families.RandomDatabase(rng, sigma, 3, 2)
		notWA := CheckWA(db, sigma)
		wa, _ := IsWeaklyAcyclicFor(db, sigma)
		if notWA == wa {
			t.Fatalf("CheckWA = %v, IsWeaklyAcyclicFor = %v\nsigma:\n%v\ndb: %v", notWA, wa, sigma, db)
		}
		checked++
	}
	if checked < 80 {
		t.Fatalf("only %d cases checked", checked)
	}
}

func TestCheckWAExamples(t *testing.T) {
	sigma := parser.MustParseRules(`r(X, Y) -> ∃Z r(Y, Z).`)
	if !CheckWA(parser.MustParseDatabase(`r(a, b).`), sigma) {
		t.Fatal("supported special cycle must be detected")
	}
	if CheckWA(parser.MustParseDatabase(`s(a).`), sigma) {
		t.Fatal("unsupported cycle must be ignored")
	}
}

func TestSupportedRanks(t *testing.T) {
	sigma := parser.MustParseRules(`
		a(X) -> ∃Y b(X, Y).
		b(X, Y) -> ∃Z c(Y, Z).
		unrelated(X) -> ∃W deep(X, W).
	`)
	db := parser.MustParseDatabase(`a(k).`)
	ranks, maxFinite := SupportedRanks(db, sigma)
	if maxFinite != 2 {
		t.Fatalf("max finite supported rank = %d, want 2", maxFinite)
	}
	// The unrelated branch is not supported and must be absent.
	for pos := range ranks {
		if pos.Pred.Name == "unrelated" || pos.Pred.Name == "deep" {
			t.Fatalf("unsupported position %v reported", pos)
		}
	}
}
