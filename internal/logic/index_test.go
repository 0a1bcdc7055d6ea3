package logic

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// withHash returns a with its identity hash overwritten, forging a hash
// collision between structurally distinct atoms.
func withHash(a *Atom, h uint64) *Atom {
	a.hash = h
	return a
}

// TestInstanceHashCollision drives the atom set's overflow path: two
// distinct atoms that share a hash must both be kept, resolved and matched,
// duplicates of either must be rejected, and a clone's bucket must be its
// own.
func TestInstanceHashCollision(t *testing.T) {
	const h = 0x5eed
	p := Predicate{Name: "coll", Arity: 1}
	atom := func(c string) *Atom { return withHash(NewAtom(p, Constant(c)), h) }
	a, b := atom("a"), atom("b")

	in := NewInstance()
	if !in.Add(a) || !in.Add(b) {
		t.Fatal("distinct atoms with equal hashes must both be added")
	}
	if in.Len() != 2 || len(in.overflow[h]) != 1 {
		t.Fatalf("Len = %d, overflow bucket %v; want 2 atoms, one in overflow", in.Len(), in.overflow[h])
	}
	for want, x := range []*Atom{a, b} {
		twin := atom(x.Args[0].(Constant).String())
		if got := in.Seq(twin); got != want {
			t.Errorf("Seq(%v) = %d, want %d", twin, got, want)
		}
		if got := in.Canonical(twin); got != x {
			t.Errorf("Canonical(%v) = %p, want the stored %p", twin, got, x)
		}
		if !in.Has(twin) {
			t.Errorf("Has(%v) = false", twin)
		}
		if in.Add(twin) {
			t.Errorf("duplicate of %v added", twin)
		}
	}
	if c := atom("c"); in.Has(c) || in.Seq(c) != -1 || in.Canonical(c) != nil {
		t.Error("an absent atom in a collided bucket resolved")
	}
	var got []string
	MatchAll([]*Atom{NewAtom(p, Variable("X"))}, in, -1, func(s Substitution) bool {
		got = append(got, s[Variable("X")].String())
		return true
	})
	if !slices.Equal(got, []string{"a", "b"}) {
		t.Errorf("MatchAll found %v, want [a b]", got)
	}

	// Two more colliding atoms leave the overflow bucket with spare
	// capacity, where an unclipped clone would append in place.
	in.Add(atom("e"))
	in.Add(atom("f"))
	cl := in.Clone()
	c, d := atom("c"), atom("d")
	if !cl.Add(c) {
		t.Fatal("clone rejected a new colliding atom")
	}
	// One more atom on the original first, so d's sequence differs from
	// c's and a shared bucket slot could not hide behind an equal value.
	if !in.Add(NewAtom(p, Constant("g"))) || !in.Add(d) {
		t.Fatal("original rejected a new atom")
	}
	if len(in.overflow[h]) != 4 || len(cl.overflow[h]) != 4 {
		t.Fatalf("overflow buckets: original %v, clone %v; want 4 each", in.overflow[h], cl.overflow[h])
	}
	if in.Has(c) || !in.Has(d) || cl.Has(d) || !cl.Has(c) {
		t.Fatal("an Add on one side of a clone changed the other's bucket")
	}
	if in.Seq(d) != 5 || cl.Seq(c) != 4 || in.Seq(b) != 1 || cl.Seq(b) != 1 {
		t.Fatalf("sequences after divergent Adds: original d=%d b=%d, clone c=%d b=%d", in.Seq(d), in.Seq(b), cl.Seq(c), cl.Seq(b))
	}
}

// indexFixture is a pool of predicates and terms for random instances,
// together with a predicate and a term of each absent kind: interned but
// never inserted, and never interned at all.
type indexFixture struct {
	preds  []Predicate
	terms  []Term
	absent struct {
		preds []Predicate
		terms []Term
	}
}

func newIndexFixture() *indexFixture {
	fx := &indexFixture{
		preds: []Predicate{{Name: "ix:r", Arity: 2}, {Name: "ix:s", Arity: 3}, {Name: "ix:r", Arity: 1}, {Name: "ix:z", Arity: 0}},
		terms: []Term{Constant("ix:a"), Constant("ix:b"), Constant("ix:c"), Fresh(7)},
	}
	nulls := NewNullFactory()
	for i := range 3 {
		n, _ := nulls.Intern(fmt.Sprint(i), i+1)
		fx.terms = append(fx.terms, n)
	}
	interned := Predicate{Name: "ix:absent", Arity: 2}
	PredIDOf(interned)
	fx.absent.preds = []Predicate{interned, {Name: "ix:never-interned", Arity: 2}}
	fx.absent.terms = []Term{Constant("ix:absent"), Constant("ix:never-interned")}
	IDOf(fx.absent.terms[0])
	return fx
}

func (fx *indexFixture) atom(rng *rand.Rand) *Atom {
	p := fx.preds[rng.Intn(len(fx.preds))]
	args := make([]Term, p.Arity)
	for i := range args {
		args[i] = fx.terms[rng.Intn(len(fx.terms))]
	}
	return NewAtom(p, args...)
}

// check compares every index read — ByPred, AtomsOf, AtPosition, Seq,
// HasDeltaFor — with a brute-force filter of in.Atoms().
func (fx *indexFixture) check(t *testing.T, label string, in *Instance, rng *rand.Rand) {
	t.Helper()
	atoms := in.Atoms()
	for _, p := range append(fx.preds, fx.absent.preds...) {
		want := filter(atoms, func(a *Atom) bool { return a.Pred == p })
		if got := in.ByPred(p); !slices.Equal(got, want) {
			t.Fatalf("%s: ByPred(%v) = %v, want %v", label, p, got, want)
		}
		if got := slices.Collect(in.AtomsOf(p)); !slices.Equal(got, want) {
			t.Fatalf("%s: AtomsOf(%v) = %v, want %v", label, p, got, want)
		}
		for a := range in.AtomsOf(p) {
			if a != want[0] {
				t.Fatalf("%s: AtomsOf(%v) starts at %v, want %v", label, p, a, want[0])
			}
			break
		}
		for pos := -1; pos <= p.Arity+1; pos++ {
			for _, tm := range append(fx.terms, fx.absent.terms...) {
				want := filter(atoms, func(a *Atom) bool {
					return a.Pred == p && pos >= 0 && pos < p.Arity && a.Args[pos] == tm
				})
				if got := in.AtPosition(p, pos, tm); !slices.Equal(got, want) {
					t.Fatalf("%s: AtPosition(%v, %d, %v) = %v, want %v", label, p, pos, tm, got, want)
				}
			}
		}
		pid := PredIDOf(p)
		for d := 0; d <= len(atoms)+1; d++ {
			want := slices.ContainsFunc(atoms[min(d, len(atoms)):], func(a *Atom) bool { return a.Pred == p })
			if got := in.HasDeltaFor(pid, d); got != want {
				t.Fatalf("%s: HasDeltaFor(%v, %d) = %v, want %v", label, p, d, got, want)
			}
		}
	}
	for i, a := range atoms {
		if got := in.Seq(NewAtom(a.Pred, a.Args...)); got != i {
			t.Fatalf("%s: Seq(%v) = %d, want %d", label, a, got, i)
		}
	}
	for range 20 {
		a := fx.atom(rng)
		if got, want := in.Seq(a), slices.IndexFunc(atoms, a.Equal); got != want {
			t.Fatalf("%s: Seq(%v) = %d, want %d", label, a, got, want)
		}
	}
}

// TestInstanceIndexAgreesWithScan checks the index against a brute-force
// scan on seeded random instances, including absent predicates and terms,
// out-of-range positions, and a clone that diverges from its source.
func TestInstanceIndexAgreesWithScan(t *testing.T) {
	fx := newIndexFixture()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := NewInstance()
		for range rng.Intn(60) {
			in.Add(fx.atom(rng))
		}
		fx.check(t, fmt.Sprintf("seed %d source", seed), in, rng)
		cl := in.Clone()
		for range rng.Intn(30) {
			in.Add(fx.atom(rng))
		}
		for range rng.Intn(30) {
			cl.Add(fx.atom(rng))
		}
		fx.check(t, fmt.Sprintf("seed %d source after clone", seed), in, rng)
		fx.check(t, fmt.Sprintf("seed %d clone", seed), cl, rng)
	}
}

// TestCloneConcurrentDivergence exercises the clone half of the Instance
// concurrency contract under -race: clones share their source's sequence
// arrays, so goroutines cloning one frozen instance and growing their
// clones, and a source and its clone growing on two goroutines, must
// never touch an element another one reads.
func TestCloneConcurrentDivergence(t *testing.T) {
	fx := newIndexFixture()
	rng := rand.New(rand.NewSource(99))
	base := NewInstance()
	for range 200 {
		base.Add(fx.atom(rng))
	}
	grow := func(in *Instance, seed int64) {
		r := rand.New(rand.NewSource(seed))
		for range 100 {
			in.Add(fx.atom(r))
			MatchAll([]*Atom{NewAtom(fx.preds[0], Variable("X"), Variable("Y")), NewAtom(fx.preds[2], Variable("Y"))}, in, in.Len()-1, func(Substitution) bool { return true })
		}
	}

	const goroutines = 4
	clones := make([]*Instance, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clones[g] = base.Clone()
			grow(clones[g], int64(g))
		}()
	}
	wg.Wait()
	fx.check(t, "frozen source", base, rng)
	for g, cl := range clones {
		fx.check(t, fmt.Sprintf("clone %d", g), cl, rng)
	}

	cl := base.Clone()
	wg.Add(2)
	go func() { defer wg.Done(); grow(base, 100) }()
	go func() { defer wg.Done(); grow(cl, 101) }()
	wg.Wait()
	fx.check(t, "source grown beside its clone", base, rng)
	fx.check(t, "clone grown beside its source", cl, rng)
}

func filter(atoms []*Atom, keep func(*Atom) bool) []*Atom {
	var out []*Atom
	for _, a := range atoms {
		if keep(a) {
			out = append(out, a)
		}
	}
	return out
}
