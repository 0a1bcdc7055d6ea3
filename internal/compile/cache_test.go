package compile

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/tgds"
)

func TestCacheCompiledChaseHitMiss(t *testing.T) {
	c := NewCache(4)
	sigma := parser.MustParseRules(`p(X) -> ∃Y r(X, Y). r(X, Y) -> q(Y).`)
	cs1, hit := c.CompiledChase(sigma)
	if hit {
		t.Fatal("first request reported a hit")
	}
	cs2, hit := c.CompiledChase(sigma)
	if !hit {
		t.Fatal("second request reported a miss")
	}
	if cs1 != cs2 {
		t.Fatal("second request returned a different compiled set")
	}
	// A textually identical set parsed separately shares the artifact.
	again := parser.MustParseRules(`p(X) -> ∃Y r(X, Y). r(X, Y) -> q(Y).`)
	cs3, hit := c.CompiledChase(again)
	if !hit || cs3 != cs1 {
		t.Fatalf("identical re-parse: hit=%v, shared=%v", hit, cs3 == cs1)
	}
	if !cs3.Matches(again) {
		t.Fatal("shared compiled set fails Matches for the re-parsed set")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 entry", s)
	}
}

func TestCacheAlphaVariantSharesEntryNotView(t *testing.T) {
	c := NewCache(4)
	a := parser.MustParseRules(`p(X) -> ∃Y r(X, Y).`)
	b := parser.MustParseRules(`p(U) -> ∃V r(U, V).`)
	if Of(a) != Of(b) {
		t.Fatal("fixture: α-variants must share a fingerprint")
	}
	csA, _ := c.CompiledChase(a)
	csB, hit := c.CompiledChase(b)
	if hit {
		t.Fatal("α-variant form must compile its own view (miss)")
	}
	if csA == csB {
		t.Fatal("α-variant form shared per-clause artifacts unsafely")
	}
	if !csA.Matches(a) || !csB.Matches(b) || csA.Matches(b) || csB.Matches(a) {
		t.Fatal("Matches must bind each compiled set to its exact form only")
	}
	if c.Len() != 1 {
		t.Fatalf("α-variants occupy %d entries, want 1", c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	sets := []string{
		`p(X) -> q(X).`,
		`q(X) -> r(X).`,
		`r(X) -> s(X).`,
	}
	for _, src := range sets {
		c.CompiledChase(parser.MustParseRules(src))
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", c.Len())
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
	// The first set was least recently used; it must re-miss.
	if _, hit := c.CompiledChase(parser.MustParseRules(sets[0])); hit {
		t.Fatal("evicted entry served a hit")
	}
	// The most recent set must still be cached (it displaced sets[1]).
	if _, hit := c.CompiledChase(parser.MustParseRules(sets[2])); !hit {
		t.Fatal("recently used entry was evicted")
	}
}

func TestCacheMutatedSigmaMisses(t *testing.T) {
	c := NewCache(8)
	base := `p(X) -> ∃Y r(X, Y). r(X, Y) -> q(Y).`
	sigma := parser.MustParseRules(base)
	c.CompiledChase(sigma)
	// "Mutating" Σ means building a new set with an extra clause: the
	// fingerprint changes, so the stale artifacts cannot be served.
	mutated := parser.MustParseRules(base + ` q(X) -> p(X).`)
	if Of(mutated) == Of(sigma) {
		t.Fatal("fixture: mutation must change the fingerprint")
	}
	cs, hit := c.CompiledChase(mutated)
	if hit {
		t.Fatal("mutated Σ served the stale compilation")
	}
	if !cs.Matches(mutated) || cs.Matches(sigma) {
		t.Fatal("mutated Σ's compilation bound to the wrong set")
	}
	if c.Len() != 2 {
		t.Fatalf("entries = %d, want 2 distinct fingerprints", c.Len())
	}
}

func TestCacheNonChaseArtifacts(t *testing.T) {
	c := NewCache(4)
	sigma := parser.MustParseRules(`p(X) -> ∃Y r(X, Y). r(X, Y) -> ∃Z r(Y, Z).`)
	s1, err := c.Simplified(sigma)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := c.Simplified(sigma)
	if s1 != s2 {
		t.Fatal("Simplified not memoized")
	}
	if g1, g2 := c.DepGraph(sigma), c.DepGraph(sigma); g1 != g2 {
		t.Fatal("DepGraph not memoized")
	}
	if g1, g2 := c.PredGraph(sigma), c.PredGraph(sigma); g1 != g2 {
		t.Fatal("PredGraph not memoized")
	}
	ok, _ := c.WeaklyAcyclic(sigma)
	if ok {
		t.Fatal("fixture: the set has a special cycle")
	}
	q1, err := c.UCQSL(sigma)
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := c.UCQSL(sigma)
	if len(q1.Disjuncts) == 0 || len(q1.Disjuncts) != len(q2.Disjuncts) {
		t.Fatalf("UCQSL disjuncts: %d vs %d", len(q1.Disjuncts), len(q2.Disjuncts))
	}
	// Errors are memoized too: UCQL on a non-linear set.
	g := parser.MustParseRules(`p(X, Y), q(Y) -> r(X).`)
	if _, err := c.UCQL(g); err == nil {
		t.Fatal("UCQL on a non-linear set must error")
	}
	if _, err := c.UCQL(g); err == nil {
		t.Fatal("memoized UCQL error lost")
	}
}

func TestCacheConcurrentSharedLookups(t *testing.T) {
	c := NewCache(8)
	var sets []string
	for i := 0; i < 4; i++ {
		sets = append(sets, fmt.Sprintf(`p%d(X) -> ∃Y r%d(X, Y). r%d(X, Y) -> p%d(Y).`, i, i, i, i))
	}
	const goroutines = 16
	results := make([][]*chase.CompiledSet, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]*chase.CompiledSet, len(sets))
			for i, src := range sets {
				cs, _ := c.CompiledChase(parser.MustParseRules(src))
				out[i] = cs
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range sets {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d got a different compiled set for %d", g, i)
			}
		}
	}
	s := c.Stats()
	if s.Entries != len(sets) {
		t.Fatalf("entries = %d, want %d", s.Entries, len(sets))
	}
	if s.Misses != uint64(len(sets)) {
		t.Fatalf("misses = %d, want exactly one build per set", s.Misses)
	}
}

// The cache must serve the syntactic deciders as a core.Analyses /
// core.UniformAnalyses: verdicts identical to the uncached path, for a
// stream of databases against one ontology.
func TestCacheAsDeciderAnalyses(t *testing.T) {
	var _ core.Analyses = (*Cache)(nil)
	var _ core.UniformAnalyses = (*Cache)(nil)
	c := NewCache(8)
	sets := []*tgds.Set{
		parser.MustParseRules(`p(X) -> ∃Y r(X, Y). r(X, Y) -> ∃Z r(Y, Z).`), // SL, cyclic
		parser.MustParseRules(`r(X, X) -> ∃Y r(X, Y).`),                     // L (not SL)
	}
	dbs := []string{`p(a).`, `r(a, a).`, `r(b, c).`, `q2(a).`}
	for si, sigma := range sets {
		for di, src := range dbs {
			db := parser.MustParseDatabase(src)
			want, err := core.Decide(db, sigma, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Decide(db, sigma, c)
			if err != nil {
				t.Fatal(err)
			}
			if *want != *got {
				t.Fatalf("set %d db %d: cached verdict %v differs from direct %v", si, di, got, want)
			}
		}
		wantU, err := core.DecideUniform(sigma, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotU, err := core.DecideUniform(sigma, c)
		if err != nil {
			t.Fatal(err)
		}
		if *wantU != *gotU {
			t.Fatalf("set %d: cached uniform verdict %v differs from direct %v", si, gotU, wantU)
		}
	}
	// Arbitrary TGD sets: DecideUniform answers via the weak-acyclicity
	// sufficient condition.
	arb := parser.MustParseRules(`e(X, Y), f(Y, Z) -> g(X, Z).`)
	v, err := core.DecideUniform(arb, c)
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != core.Finite {
		t.Fatalf("weakly acyclic TGD set: outcome %v, want finite", v.Outcome)
	}
	// Unguarded (no body atom holds X, Y, and Z) with a special self-loop
	// on position e.2: Y feeds the existential W at its own position.
	cyc := parser.MustParseRules(`e(X, Y), p(Z) -> ∃W e(Y, W).`)
	v, err = core.DecideUniform(cyc, c)
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != core.Unknown {
		t.Fatalf("non-WA TGD set: outcome %v, want unknown", v.Outcome)
	}
}

// fixedCompiler serves one precompiled set, reporting a hit when it
// matches: a compiler that can be made to serve the wrong set.
type fixedCompiler struct{ cs *chase.CompiledSet }

func (f fixedCompiler) CompiledChase(sigma *tgds.Set) (*chase.CompiledSet, bool) {
	if f.cs.Matches(sigma) {
		return f.cs, true
	}
	return nil, false
}

// The cache must work as a chase.Compiler end to end, including the
// engine's Matches fallback on a compiler that serves the wrong set.
func TestCacheAsChaseCompiler(t *testing.T) {
	c := NewCache(4)
	sigma := parser.MustParseRules(`e(X, Y) -> ∃Z e(Y, Z).`)
	db := parser.MustParseDatabase(`e(a, b).`)
	res := chase.Run(db, sigma, chase.Options{MaxAtoms: 50, Compile: c})
	if res.Stats.CompileMisses != 1 || res.Stats.CompileHits != 0 {
		t.Fatalf("cold run stats: hits=%d misses=%d", res.Stats.CompileHits, res.Stats.CompileMisses)
	}
	res = chase.Run(db, sigma, chase.Options{MaxAtoms: 50, Compile: c})
	if res.Stats.CompileHits != 1 || res.Stats.CompileMisses != 0 {
		t.Fatalf("warm run stats: hits=%d misses=%d", res.Stats.CompileHits, res.Stats.CompileMisses)
	}
	// A compiler serving a mismatched set degrades to a cold compile.
	other := chase.Compile(parser.MustParseRules(`p(X) -> q(X).`))
	res2 := chase.Run(db, sigma, chase.Options{MaxAtoms: 50, Compile: fixedCompiler{cs: other}})
	if res2.Stats.CompileMisses != 1 {
		t.Fatal("mismatched compiler must count a miss")
	}
	if res2.Instance.CanonicalKey() != res.Instance.CanonicalKey() {
		t.Fatal("fallback run diverged from the cached run")
	}
}
