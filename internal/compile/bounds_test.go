package compile

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/parser"
)

func TestBoundStoreAndOverwrite(t *testing.T) {
	c := NewCache(4)
	fp := Fingerprint{1}
	if _, ok := c.Bound(fp, chase.SemiOblivious); ok {
		t.Fatal("empty cache reported a bound")
	}
	c.StoreBound(fp, chase.SemiOblivious, LearnedBound{Rounds: 4, Atoms: 30, Observed: true})
	b, ok := c.Bound(fp, chase.SemiOblivious)
	if !ok || b != (LearnedBound{Rounds: 4, Atoms: 30, Observed: true}) {
		t.Fatalf("bound = %+v, %v", b, ok)
	}
	// Relearning overwrites; the variant axis stays independent.
	c.StoreBound(fp, chase.SemiOblivious, LearnedBound{Rounds: 2, Atoms: 10})
	if b, _ = c.Bound(fp, chase.SemiOblivious); b.Rounds != 2 || b.Observed {
		t.Fatalf("relearn did not overwrite: %+v", b)
	}
	if _, ok := c.Bound(fp, chase.Restricted); ok {
		t.Fatal("a semi-oblivious bound leaked to the restricted variant")
	}
}

func TestBoundsSortedExport(t *testing.T) {
	c := NewCache(4)
	fp, other := Fingerprint{1}, Fingerprint{2}
	// Store out of variant order, plus a record under another fingerprint
	// that must not leak into the export.
	c.StoreBound(fp, chase.Restricted, LearnedBound{Rounds: 3, Atoms: 20, Observed: true})
	c.StoreBound(fp, chase.SemiOblivious, LearnedBound{Rounds: 5, Atoms: 40, Observed: true})
	c.StoreBound(other, chase.Oblivious, LearnedBound{Rounds: 9, Atoms: 90})
	got := c.Bounds(fp)
	if len(got) != 2 || got[0].Variant != chase.SemiOblivious || got[1].Variant != chase.Restricted {
		t.Fatalf("Bounds(fp) = %+v, want semi-oblivious then restricted", got)
	}
	if got[0].Bound.Rounds != 5 || got[1].Bound.Rounds != 3 {
		t.Fatalf("Bounds(fp) carried the wrong records: %+v", got)
	}
	if len(c.Bounds(Fingerprint{7})) != 0 {
		t.Fatal("an unknown fingerprint exported bounds")
	}
}

// TestBoundSurvivesEvictionAndReregistration: bounds are pinned profiling
// artifacts — entry eviction (capacity pressure) and re-registration of
// the same ontology must both keep them.
func TestBoundSurvivesEvictionAndReregistration(t *testing.T) {
	c := NewCache(1)
	sigma := parser.MustParseRules(`p(X) -> ∃Y r(X, Y). r(X, Y) -> q(Y).`)
	fp := c.Register(sigma)
	c.StoreBound(fp, chase.SemiOblivious, LearnedBound{Rounds: 6, Atoms: 50, Observed: true})

	// Capacity 1: compiling a second ontology evicts the first entry.
	other := parser.MustParseRules(`a(X) -> b(X).`)
	if _, _ = c.CompiledChase(other); c.Stats().Entries > 1 {
		t.Fatalf("capacity-1 cache holds %d entries", c.Stats().Entries)
	}
	if _, ok := c.Bound(fp, chase.SemiOblivious); !ok {
		t.Fatal("entry eviction dropped the learned bound")
	}

	// Re-registering the same ontology resolves to the same fingerprint,
	// so the bound is immediately servable again.
	if again := c.Register(sigma); again != fp {
		t.Fatalf("re-registration changed the fingerprint: %s vs %s", again, fp)
	}
	if b, ok := c.Bound(fp, chase.SemiOblivious); !ok || b.Rounds != 6 {
		t.Fatalf("bound after re-registration: %+v, %v", b, ok)
	}
}

// TestBoundAccounting: each new (fingerprint, variant) record costs
// learnedBoundBytes in Stats.Bytes and one in Stats.Bounds; overwrites
// are free.
func TestBoundAccounting(t *testing.T) {
	c := NewCache(4)
	base := c.Stats().Bytes
	c.StoreBound(Fingerprint{1}, chase.SemiOblivious, LearnedBound{Rounds: 1, Atoms: 1})
	c.StoreBound(Fingerprint{1}, chase.Oblivious, LearnedBound{Rounds: 2, Atoms: 2})
	c.StoreBound(Fingerprint{1}, chase.SemiOblivious, LearnedBound{Rounds: 3, Atoms: 3}) // overwrite
	s := c.Stats()
	if s.Bounds != 2 {
		t.Fatalf("Stats.Bounds = %d, want 2", s.Bounds)
	}
	if got := s.Bytes - base; got != 2*learnedBoundBytes {
		t.Fatalf("bound bytes = %d, want %d", got, 2*learnedBoundBytes)
	}
}
