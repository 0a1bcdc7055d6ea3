package depgraph

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/tgds"
)

// PredGraph is the predicate graph pg(Σ): nodes are the predicates of
// sch(Σ) and there is an edge (R, P) iff some TGD has R in its body and P
// in its head. The paper's reachability relation R ⇝Σ P is the reflexive-
// transitive closure of this edge relation.
type PredGraph struct {
	adj map[logic.Predicate][]logic.Predicate
}

// BuildPredGraph constructs pg(Σ).
func BuildPredGraph(sigma *tgds.Set) *PredGraph {
	g := &PredGraph{adj: make(map[logic.Predicate][]logic.Predicate)}
	for _, t := range sigma.TGDs {
		seen := make(map[logic.Predicate]bool)
		for _, b := range t.Body {
			if seen[b.Pred] {
				continue
			}
			seen[b.Pred] = true
			headSeen := make(map[logic.Predicate]bool)
			for _, h := range t.Head {
				if headSeen[h.Pred] {
					continue
				}
				headSeen[h.Pred] = true
				g.adj[b.Pred] = append(g.adj[b.Pred], h.Pred)
			}
		}
	}
	return g
}

// ReachableFrom returns the set of predicates reachable (R ⇝ P, reflexive)
// from any of the given start predicates.
func (g *PredGraph) ReachableFrom(start []logic.Predicate) map[logic.Predicate]bool {
	reach := make(map[logic.Predicate]bool)
	var stack []logic.Predicate
	for _, p := range start {
		if !reach[p] {
			reach[p] = true
			stack = append(stack, p)
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range g.adj[p] {
			if !reach[q] {
				reach[q] = true
				stack = append(stack, q)
			}
		}
	}
	return reach
}

// Certificate witnesses a violation of (non-uniform) weak-acyclicity: a
// special edge on a cycle, a position of that cycle, and — in the
// non-uniform case — a database predicate supporting it.
type Certificate struct {
	SpecialEdge Edge
	// Support is the database predicate R with R ⇝ SpecialEdge.From.Pred;
	// its Arity is -1 for uniform (database-free) violations.
	Support logic.Predicate
}

// String renders the certificate.
func (c *Certificate) String() string {
	if c == nil {
		return "weakly acyclic"
	}
	if c.Support.Arity < 0 {
		return fmt.Sprintf("special edge on cycle: %v", c.SpecialEdge)
	}
	return fmt.Sprintf("special edge on cycle: %v, supported by database predicate %v", c.SpecialEdge, c.Support)
}

// IsWeaklyAcyclic reports classical (uniform) weak-acyclicity: dg(Σ) has
// no cycle through a special edge. The certificate is nil when acyclic.
func IsWeaklyAcyclic(sigma *tgds.Set) (bool, *Certificate) {
	g := Build(sigma)
	bad := g.SpecialCycleEdges()
	if len(bad) == 0 {
		return true, nil
	}
	return false, &Certificate{SpecialEdge: bad[0], Support: logic.Predicate{Arity: -1}}
}

// IsWeaklyAcyclicFor implements Definition 6.1: Σ is D-weakly-acyclic iff
// there is no D-supported cycle in dg(Σ) with a special edge. Since every
// dependency-graph edge induces a predicate-graph edge, a cycle is
// D-supported iff its predicates are reachable from a predicate of D, so
// it suffices to test reachability of the special edge's source predicate:
// the check reads nothing of D but its predicate set.
func IsWeaklyAcyclicFor(db *logic.Instance, sigma *tgds.Set) (bool, *Certificate) {
	return IsWeaklyAcyclicForGraphs(db.Predicates(), Build(sigma), BuildPredGraph(sigma))
}

// IsWeaklyAcyclicForGraphs is IsWeaklyAcyclicFor over D's predicates,
// sorted as Instance.Predicates sorts them, and prebuilt graphs: the
// Σ-only dg(Σ) and pg(Σ) can come from a cross-request cache
// (internal/compile), leaving only the D-dependent reachability work per
// request. The certificate's support is the first of dbPreds that reaches
// the violating special edge.
func IsWeaklyAcyclicForGraphs(dbPreds []logic.Predicate, g *Graph, pg *PredGraph) (bool, *Certificate) {
	bad := g.SpecialCycleEdges()
	if len(bad) == 0 {
		return true, nil
	}
	reach := pg.ReachableFrom(dbPreds)
	for _, e := range bad {
		if !reach[e.From.Pred] {
			continue
		}
		// Recover a supporting database predicate for the certificate.
		support := e.From.Pred
		for _, r := range dbPreds {
			if pg.ReachableFrom([]logic.Predicate{r})[e.From.Pred] {
				support = r
				break
			}
		}
		return false, &Certificate{SpecialEdge: e, Support: support}
	}
	return true, nil
}

// DangerousPredicates returns the set P_Σ used by the paper's AC⁰
// data-complexity procedure (proof of Theorem 6.6): all predicates R of
// sch(Σ) such that some position (P, i) lies on a cycle of dg(Σ) with a
// special edge and R ⇝Σ P. For a database D, Σ is not D-weakly-acyclic iff
// D contains an atom whose predicate is in P_Σ.
func DangerousPredicates(sigma *tgds.Set) []logic.Predicate {
	g := Build(sigma)
	bad := g.SpecialCycleEdges()
	if len(bad) == 0 {
		return nil
	}
	// Predicates on supported-checkable cycles: the predicates P with a
	// position on a special cycle.
	targets := make(map[logic.Predicate]bool)
	comp := make([]int, len(g.Nodes))
	for ci, scc := range g.SCCs() {
		for _, v := range scc {
			comp[v] = ci
		}
	}
	badComp := make(map[int]bool)
	for _, e := range bad {
		badComp[comp[g.NodeIndex(e.From)]] = true
	}
	for i, n := range g.Nodes {
		if badComp[comp[i]] {
			targets[n.Pred] = true
		}
	}
	// Backward reachability in pg(Σ): R is dangerous iff it reaches a
	// target predicate.
	pg := BuildPredGraph(sigma)
	var out []logic.Predicate
	for _, r := range sigma.Schema() {
		reach := pg.ReachableFrom([]logic.Predicate{r})
		for p := range targets {
			if reach[p] {
				out = append(out, r)
				break
			}
		}
	}
	return logic.SortPredicates(out)
}
