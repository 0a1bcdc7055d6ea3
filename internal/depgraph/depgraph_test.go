package depgraph

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/parser"
)

func TestBuildEdges(t *testing.T) {
	sigma := parser.MustParseRules(`r(X, Y) -> ∃Z r(Y, Z).`)
	g := Build(sigma)
	if len(g.Nodes) != 2 {
		t.Fatalf("nodes = %v", g.Nodes)
	}
	// Frontier Y at body position (r,2): normal edge to (r,1), special to
	// (r,2).
	var normal, special int
	for _, e := range g.Edges {
		if e.Special {
			special++
			if e.From.Index != 2 || e.To.Index != 2 {
				t.Fatalf("special edge = %v", e)
			}
		} else {
			normal++
			if e.From.Index != 2 || e.To.Index != 1 {
				t.Fatalf("normal edge = %v", e)
			}
		}
	}
	if normal != 1 || special != 1 {
		t.Fatalf("edges: %d normal, %d special", normal, special)
	}
}

func TestUniformWeakAcyclicity(t *testing.T) {
	wa := parser.MustParseRules(`r(X, Y) -> ∃Z s(Y, Z).`)
	if ok, _ := IsWeaklyAcyclic(wa); !ok {
		t.Fatal("acyclic set must be weakly acyclic")
	}
	notWA := parser.MustParseRules(`r(X, Y) -> ∃Z r(Y, Z).`)
	ok, cert := IsWeaklyAcyclic(notWA)
	if ok {
		t.Fatal("self-feeding existential must violate weak acyclicity")
	}
	if cert == nil || !cert.SpecialEdge.Special {
		t.Fatalf("certificate = %v", cert)
	}
}

// The paper's motivating split: Σ = {R(x,y) -> ∃z R(y,z)} is not in CT but
// is in CT_D for every database without (a path to) R atoms.
func TestNonUniformWeakAcyclicity(t *testing.T) {
	sigma := parser.MustParseRules(`r(X, Y) -> ∃Z r(Y, Z).`)
	withR := parser.MustParseDatabase(`r(a, b).`)
	if ok, _ := IsWeaklyAcyclicFor(withR, sigma); ok {
		t.Fatal("database with r atom supports the special cycle")
	}
	withoutR := parser.MustParseDatabase(`s(a).`)
	if ok, _ := IsWeaklyAcyclicFor(withoutR, sigma); !ok {
		t.Fatal("unsupported cycle must be ignored")
	}
}

// Support travels through the predicate graph: P feeds R which cycles.
func TestSupportViaReachability(t *testing.T) {
	sigma := parser.MustParseRules(`
		p(X) -> ∃Y r(X, Y).
		r(X, Y) -> ∃Z r(Y, Z).
	`)
	db := parser.MustParseDatabase(`p(a).`)
	ok, cert := IsWeaklyAcyclicFor(db, sigma)
	if ok {
		t.Fatal("p reaches the r cycle")
	}
	if cert.Support.Name != "p" {
		t.Fatalf("support = %v", cert.Support)
	}
}

// Example 7.1 of the paper: D = {R(a,b)}, Σ = {R(x,x) -> ∃z R(z,x)}. The
// chase is finite (no trigger), yet Σ is NOT D-weakly-acyclic — showing
// that non-uniform weak-acyclicity is not a characterization for
// non-simple linear TGDs.
func TestExample71NotCharacterizingL(t *testing.T) {
	sigma := parser.MustParseRules(`r(X, X) -> ∃Z r(Z, X).`)
	db := parser.MustParseDatabase(`r(a, b).`)
	if ok, _ := IsWeaklyAcyclicFor(db, sigma); ok {
		t.Fatal("Example 7.1: Σ must not be D-weakly-acyclic")
	}
}

func TestPredGraph(t *testing.T) {
	sigma := parser.MustParseRules(`
		a(X) -> b(X).
		b(X) -> c(X).
		d(X) -> d(X).
	`)
	pg := BuildPredGraph(sigma)
	aP := logic.Predicate{Name: "a", Arity: 1}
	cP := logic.Predicate{Name: "c", Arity: 1}
	dP := logic.Predicate{Name: "d", Arity: 1}
	reaches := func(r, p logic.Predicate) bool {
		return pg.ReachableFrom([]logic.Predicate{r})[p]
	}
	if !reaches(aP, cP) {
		t.Fatal("a ⇝ c")
	}
	if reaches(cP, aP) {
		t.Fatal("c must not reach a")
	}
	if !reaches(dP, dP) {
		t.Fatal("reachability is reflexive")
	}
}

func TestSCCs(t *testing.T) {
	sigma := parser.MustParseRules(`
		r(X, Y) -> s(Y, X).
		s(X, Y) -> r(Y, X).
	`)
	g := Build(sigma)
	sccs := g.SCCs()
	// Positions (r,1),(r,2),(s,1),(s,2) all communicate pairwise:
	// (r,1)->(s,2)->(r,1) and (r,2)->(s,1)->(r,2).
	sizes := map[int]int{}
	for _, scc := range sccs {
		sizes[len(scc)]++
	}
	if sizes[2] != 2 {
		t.Fatalf("expected two 2-cycles, got sizes %v", sizes)
	}
}

func TestRanks(t *testing.T) {
	// Chain of two special edges, no cycle: ranks 0,1,2.
	sigma := parser.MustParseRules(`
		a(X) -> ∃Y b(X, Y).
		b(X, Y) -> ∃Z c(Y, Z).
	`)
	g := Build(sigma)
	ranks, maxFinite := g.Ranks()
	if maxFinite != 2 {
		t.Fatalf("max finite rank = %d, want 2", maxFinite)
	}
	for i, n := range g.Nodes {
		switch {
		case n.Pred.Name == "a" && ranks[i] != 0:
			t.Fatalf("rank(a,%d) = %d", n.Index, ranks[i])
		case n.Pred.Name == "c" && n.Index == 2 && ranks[i] != 2:
			t.Fatalf("rank(c,2) = %d", ranks[i])
		}
	}
	// A special cycle gives infinite ranks downstream.
	sigma2 := parser.MustParseRules(`
		r(X, Y) -> ∃Z r(Y, Z).
		r(X, Y) -> out(Y).
	`)
	g2 := Build(sigma2)
	ranks2, _ := g2.Ranks()
	infinite := 0
	for _, r := range ranks2 {
		if r == -1 {
			infinite++
		}
	}
	if infinite == 0 {
		t.Fatal("special cycle must produce infinite ranks")
	}
}

func TestDangerousPredicates(t *testing.T) {
	sigma := parser.MustParseRules(`
		p(X) -> ∃Y r(X, Y).
		r(X, Y) -> ∃Z r(Y, Z).
		q(X) -> out(X).
	`)
	dangerous := DangerousPredicates(sigma)
	names := map[string]bool{}
	for _, p := range dangerous {
		names[p.Name] = true
	}
	if !names["p"] || !names["r"] {
		t.Fatalf("dangerous = %v", dangerous)
	}
	if names["q"] || names["out"] {
		t.Fatalf("q/out must be safe, got %v", dangerous)
	}
}

func TestDangerousEmptyForAcyclic(t *testing.T) {
	sigma := parser.MustParseRules(`r(X, Y) -> ∃Z s(Y, Z).`)
	if d := DangerousPredicates(sigma); len(d) != 0 {
		t.Fatalf("dangerous = %v, want none", d)
	}
}
