package core

import (
	"context"
	"errors"
	"math/big"
	"testing"
	"time"

	"repro/internal/parser"
	"repro/internal/tgds"
)

func TestDepthBoundFormulas(t *testing.T) {
	// One predicate r/2: |sch| = 1, ar = 2.
	sigma := parser.MustParseRules(`r(X, Y) -> ∃Z r(Y, Z).`)
	if got := DepthBound(sigma, tgds.ClassSL); got.Int64() != 1*2 {
		t.Fatalf("d_SL = %v, want 2", got)
	}
	if got := DepthBound(sigma, tgds.ClassL); got.Int64() != 1*8 {
		// |sch|·ar^(ar+1) = 1·2^3 = 8.
		t.Fatalf("d_L = %v, want 8", got)
	}
	// d_G = |sch|·ar^(2ar+1)·2^(|sch|·ar^ar) = 1·2^5·2^4 = 512.
	if got := DepthBound(sigma, tgds.ClassG); got.Int64() != 512 {
		t.Fatalf("d_G = %v, want 512", got)
	}
}

func TestDepthBoundEmptySet(t *testing.T) {
	sigma := tgds.NewSet()
	if got := DepthBound(sigma, tgds.ClassG); got.Sign() != 0 {
		t.Fatalf("empty set depth bound = %v", got)
	}
	b := SizeBound(sigma, tgds.ClassSL)
	if b.Size == nil || b.Size.Sign() != 0 {
		t.Fatalf("empty set size bound = %v", b.Size)
	}
}

func TestSizeBoundFormula(t *testing.T) {
	sigma := parser.MustParseRules(`r(X, Y) -> ∃Z r(Y, Z).`)
	b := SizeBound(sigma, tgds.ClassSL)
	// d_SL = 2, ‖Σ‖ = 2 atoms · 1 pred · 2 arity = 4.
	// f_SL = (2+1)·4^(2·2·3) = 3·4^12.
	want := new(big.Int).Exp(big.NewInt(4), big.NewInt(12), nil)
	want.Mul(want, big.NewInt(3))
	if b.Size == nil || b.Size.Cmp(want) != 0 {
		t.Fatalf("f_SL = %v, want %v", b.Size, want)
	}
	if b.Log2Size < 23 || b.Log2Size > 27 {
		// log2(3·4^12) = log2(3) + 24 ≈ 25.58.
		t.Fatalf("log2 f_SL = %v", b.Log2Size)
	}
}

func TestSizeBoundSymbolicForGuarded(t *testing.T) {
	// A slightly larger schema makes f_G unmaterializable.
	sigma := parser.MustParseRules(`
		p(A, B, C), q(A, B) -> ∃D p(B, C, D).
		p(A, B, C) -> q(A, C).
	`)
	b := SizeBound(sigma, tgds.ClassG)
	if b.Size != nil {
		t.Fatalf("f_G should not materialize, got %d bits", b.Size.BitLen())
	}
	if b.Log2Size <= 0 {
		t.Fatalf("log2 f_G = %v", b.Log2Size)
	}
}

func TestVerdictString(t *testing.T) {
	v := &Verdict{Outcome: Infinite, Class: tgds.ClassSL, Method: "m", Certificate: "c"}
	if got := v.String(); got != "infinite [SL, m]: c" {
		t.Fatalf("verdict rendering = %q", got)
	}
	if Unknown.String() != "unknown" {
		t.Fatal("outcome names")
	}
}

func TestDecideNaiveUnguardedRejected(t *testing.T) {
	sigma := parser.MustParseRules(`r(X, Y), r(Y, Z) -> r(X, Z).`)
	if _, err := DecideNaive(context.Background(), parser.MustParseDatabase(`r(a, b).`), sigma, NaiveOptions{AtomCap: 100}); err == nil {
		t.Fatal("unbounded class must be rejected")
	}
}

// With no atom cap, a naive probe whose bound |D|·f_C(Σ) is not
// materialized (every non-trivial guarded set) or overflows MaxInt32
// atoms used to run with MaxAtoms 0 — unlimited — or ~2^31, and never
// returned on a non-terminating Σ. It must fail typed, at once.
func TestDecideNaiveNoCapUnboundedRejected(t *testing.T) {
	cases := []struct{ name, db, rules string }{
		{"guarded, bound not materialized", `r(a, b, c). s(b).`, `
			r(X, Y, W), s(Y) -> ∃Z r(Y, Z, W), s(Z).
			t(X, Y, W) -> r(X, Y, W).
			u(X) -> s(X).`},
		{"simple linear, bound beyond MaxInt32", `r(a, b, c).`, `r(X, Y, W) -> ∃Z r(Y, Z, W).`},
	}
	for _, c := range cases {
		db, sigma := parser.MustParseDatabase(c.db), parser.MustParseRules(c.rules)
		if budget, exact := NaiveBudget(db.Len(), SizeBound(sigma, sigma.Classify()), 0); exact || budget > 0 {
			t.Fatalf("%s: NaiveBudget = (%d, %v), want an inexact non-positive budget", c.name, budget, exact)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := DecideNaive(context.Background(), db, sigma, NaiveOptions{})
			errc <- err
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, ErrUnboundedNaive) {
				t.Fatalf("%s: err = %v, want ErrUnboundedNaive", c.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the uncapped naive probe is still running after 5s", c.name)
		}
	}
}

func TestUCQStringAndEmpty(t *testing.T) {
	sigma := parser.MustParseRules(`r(X, Y) -> ∃Z s(Y, Z).`)
	q, err := BuildUCQSL(sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Disjuncts) != 0 {
		t.Fatalf("acyclic set must have an empty UCQ, got %v", q)
	}
	if q.String() == "" {
		t.Fatal("empty UCQ must render")
	}
	if q.EvalExact(parser.MustParseDatabase(`r(a, b).`)) {
		t.Fatal("empty UCQ is unsatisfiable")
	}
}
