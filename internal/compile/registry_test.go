package compile

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/tgds"
)

func mustRules(t *testing.T, src string) *tgds.Set {
	t.Helper()
	s, err := parser.ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRegister: registration pins the ontology under its fingerprint,
// resolvable after LRU eviction of its artifact entry; the first
// registration of a fingerprint wins.
func TestRegister(t *testing.T) {
	c := NewCache(2)
	sigma := mustRules(t, "p(X) -> ∃Y r(X, Y).")
	fp := c.Register(sigma)
	if fp != Of(sigma) {
		t.Fatal("Register returned a non-canonical fingerprint")
	}
	if got, ok := c.Registered(fp); !ok || got != sigma {
		t.Fatalf("Registered(fp) = %v, %v; want the registered set", got, ok)
	}
	if _, ok := c.Registered(Fingerprint{}); ok {
		t.Fatal("zero fingerprint resolved")
	}

	// An α-renamed, reordered set fingerprints identically; the first
	// registration keeps winning so fleets share one exact form.
	alpha := mustRules(t, "p(U) -> ∃V r(U, V).")
	if c.Register(alpha) != fp {
		t.Fatal("α-renamed set registered under a different fingerprint")
	}
	if got, _ := c.Registered(fp); got != sigma {
		t.Fatal("second registration displaced the first")
	}

	// Evict sigma's artifact entry by filling the 2-entry LRU with other
	// ontologies; registration must survive.
	c.CompiledChase(sigma)
	c.CompiledChase(mustRules(t, "a(X) -> b(X)."))
	c.CompiledChase(mustRules(t, "b(X) -> c(X)."))
	c.CompiledChase(mustRules(t, "c(X) -> d(X)."))
	if got, ok := c.Registered(fp); !ok || got != sigma {
		t.Fatal("registration lost to LRU eviction")
	}
	if c.Stats().Registered != 1 {
		t.Fatalf("Stats().Registered = %d, want 1", c.Stats().Registered)
	}
}

// TestByteAccounting: building artifacts grows Stats.Bytes; eviction
// returns an entry's bytes.
func TestByteAccounting(t *testing.T) {
	c := NewCache(2)
	sigma := mustRules(t, "p(X) -> ∃Y r(X, Y). r(X, Y) -> p(Y).")
	if got := c.Stats().Bytes; got != 0 {
		t.Fatalf("fresh cache Bytes = %d, want 0", got)
	}
	c.CompiledChase(sigma)
	afterChase := c.Stats().Bytes
	if afterChase <= 0 {
		t.Fatalf("Bytes = %d after building chase programs, want > 0", afterChase)
	}
	c.CompiledChase(sigma) // hit: no growth
	if got := c.Stats().Bytes; got != afterChase {
		t.Fatalf("Bytes grew on a cache hit: %d -> %d", afterChase, got)
	}
	if _, err := c.UCQSL(mustRules(t, "p(X) -> ∃Y p(Y).")); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Bytes; got <= afterChase {
		t.Fatalf("Bytes = %d after a second ontology's artifact, want > %d", got, afterChase)
	}

	// Eviction subtracts the victim's bytes: overfill the 2-entry cache
	// with ontologies costing no more than sigma and check the gauge
	// falls below its peak and stays the sum of live entries (non-
	// negative, bounded by total built).
	peak := c.Stats().Bytes
	for _, src := range []string{"a(X) -> b(X).", "b(X) -> c(X).", "c(X) -> d(X).", "d(X) -> e(X)."} {
		c.CompiledChase(mustRules(t, src))
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions in an overfilled cache")
	}
	if st.Bytes < 0 || st.Bytes >= peak {
		t.Fatalf("Bytes = %d across evictions, want in [0, %d)", st.Bytes, peak)
	}
}

// TestSizeModelScales: the structural cost model must grow with the
// ontology, so the compile_cache_bytes gauge tracks the cache's footprint.
func TestSizeModelScales(t *testing.T) {
	small := mustRules(t, "p(X) -> q(X).")
	big := mustRules(t, `
		p(X, Y), q(Y, Z), r(Z, W) -> ∃V s(X, V), t(V, Y, Z, W).
		s(X, Y), t(Y, Z, A, B) -> ∃W p(X, W), q(W, Z).
		longpredicatename(X1, X2, X3, X4, X5) -> anotherlongname(X5, X4, X3, X2, X1).
	`)
	if setBytes(small) >= setBytes(big) {
		t.Fatal("setBytes does not scale with the set")
	}
	if compiledChaseBytes(small) >= compiledChaseBytes(big) {
		t.Fatal("compiledChaseBytes does not scale with the set")
	}
	if predGraphBytes(small) >= predGraphBytes(big) {
		t.Fatal("predGraphBytes does not scale with the set")
	}
	if setBytes(nil) != 0 {
		t.Fatal("setBytes(nil) != 0")
	}
}
