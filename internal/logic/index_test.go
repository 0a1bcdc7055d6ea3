package logic

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// withHash returns a with its identity hash overwritten, forging a hash
// collision between structurally distinct atoms.
func withHash(a *Atom, h uint64) *Atom {
	a.hash = h
	return a
}

// lastSlotTag returns a hash tag whose probe starts at the last slot of
// every table of up to 2^16 slots, so a chain of entries sharing it wraps
// past the table's end at every size a test reaches.
func lastSlotTag() uint32 {
	for tag := uint32(1); ; tag++ {
		if home(uint64(tag), 1<<16) == 1<<16-1 {
			return tag
		}
	}
}

// checkWrappedChain fails unless the table grew through at least three
// doublings and its probe chain for lastSlotTag runs from the last slot
// into the first.
func checkWrappedChain(t *testing.T, label string, tab tagTable) {
	t.Helper()
	if len(tab.slots) < minSlots<<3 {
		t.Fatalf("%s: table has %d slots; want at least three doublings of %d", label, len(tab.slots), minSlots)
	}
	if tab.slots[len(tab.slots)-1] == 0 || tab.slots[0] == 0 {
		t.Fatalf("%s: the colliding chain does not wrap past the table's end", label)
	}
}

// TestInstanceHashCollision forges atoms that all share one hash, whose
// probe starts at the table's last slot: every atom must be kept,
// resolved, rejected as a duplicate and matched while the chain wraps
// past the table's end and the table doubles under it, and a clone that
// grows apart from its source after that must keep its own table.
func TestInstanceHashCollision(t *testing.T) {
	h := uint64(lastSlotTag())<<32 | 0x5eed
	p := Predicate{Name: "coll", Arity: 1}
	atom := func(i int) *Atom { return withHash(NewAtom(p, Constant(fmt.Sprint("coll:", i))), h) }
	collided := func(in *Instance) []string {
		var got []string
		MatchAll([]*Atom{NewAtom(p, Variable("X"))}, in, func(s Substitution) bool {
			got = append(got, s[Variable("X")].String())
			return true
		})
		return got
	}
	names := func(lo, hi int) []string {
		var out []string
		for i := lo; i < hi; i++ {
			out = append(out, fmt.Sprint("coll:", i))
		}
		return out
	}
	resolves := func(label string, in *Instance, i, want int) {
		t.Helper()
		twin := atom(i)
		if got := in.lookup(twin); got != want {
			t.Fatalf("%s: lookup(%v) = %d, want %d", label, twin, got, want)
		}
		if got := in.Canonical(twin); got != in.Atoms()[want] {
			t.Fatalf("%s: Canonical(%v) = %p, want the stored %p", label, twin, got, in.Atoms()[want])
		}
		if !in.Has(twin) || in.Add(twin) {
			t.Fatalf("%s: %v not found, or added twice", label, twin)
		}
	}
	absent := func(label string, in *Instance, i int) {
		t.Helper()
		if a := atom(i); in.Has(a) || in.lookup(a) != -1 || in.Canonical(a) != nil {
			t.Fatalf("%s: absent %v resolved", label, a)
		}
	}

	const n = 100
	in := NewInstance()
	for i := range n {
		if !in.Add(atom(i)) {
			t.Fatalf("distinct atom %d with an equal hash rejected", i)
		}
	}
	checkWrappedChain(t, "source", in.atoms)
	for i := range n {
		resolves("source", in, i, i)
	}
	absent("source", in, n)
	if got := collided(in); !slices.Equal(got, names(0, n)) {
		t.Fatalf("MatchAll found %v, want %v", got, names(0, n))
	}

	// The clone doubles its table again while the source gains one plain
	// atom and one more colliding atom, so the two chains differ in
	// length, in slots and in the sequences they hold.
	cl := in.Clone()
	for i := n; i < 2*n; i++ {
		if !cl.Add(atom(i)) {
			t.Fatalf("clone rejected colliding atom %d", i)
		}
	}
	if !in.Add(NewAtom(p, Constant("coll:plain"))) || !in.Add(atom(2*n)) {
		t.Fatal("source rejected a new atom after the clone")
	}
	if len(cl.atoms.slots) <= len(in.atoms.slots) {
		t.Fatalf("clone table has %d slots, source %d; want the clone's to have doubled", len(cl.atoms.slots), len(in.atoms.slots))
	}
	for i := range n {
		resolves("source after clone", in, i, i)
		resolves("clone", cl, i, i)
	}
	for i := n; i < 2*n; i++ {
		resolves("clone", cl, i, i)
		absent("source after clone", in, i)
	}
	resolves("source after clone", in, 2*n, n+1)
	absent("clone", cl, 2*n)
	if got := collided(cl); !slices.Equal(got, names(0, 2*n)) {
		t.Fatalf("MatchAll on the clone found %v, want %v", got, names(0, 2*n))
	}
	if got, want := collided(in), append(names(0, n), "coll:plain", fmt.Sprint("coll:", 2*n)); !slices.Equal(got, want) {
		t.Fatalf("MatchAll on the source found %v, want %v", got, want)
	}
}

// TestTupleInternerCollision forges tuples that share one hash through
// the interner's hash seam: each must get its own id while the chain
// wraps past the table's end and the table doubles under it, and Reset
// must forget them all.
func TestTupleInternerCollision(t *testing.T) {
	h := uint64(lastSlotTag())<<32 | 0x5eed
	tuple := func(i int) []int32 { return []int32{int32(i), int32(-i), 7} }
	const n = 100
	ti := NewTupleInterner()
	for range 2 {
		for i := range n {
			if id, fresh := ti.intern(tuple(i), h); id != int32(i) || !fresh {
				t.Fatalf("intern(%v) = %d, %v; want %d, fresh", tuple(i), id, fresh, i)
			}
		}
		checkWrappedChain(t, "interner", ti.ids)
		for i := range n {
			if id, fresh := ti.intern(tuple(i), h); id != int32(i) || fresh {
				t.Fatalf("re-intern(%v) = %d, %v; want %d, known", tuple(i), id, fresh, i)
			}
		}
		if len(ti.starts)-1 != n {
			t.Fatalf("Len = %d, want %d", len(ti.starts)-1, n)
		}
		// An absent tuple on the chain, and a known tuple under another
		// tag, are both new.
		if id, fresh := ti.intern(tuple(n), h); id != n || !fresh {
			t.Fatalf("intern(%v) = %d, %v; want %d, fresh", tuple(n), id, fresh, n)
		}
		if id, fresh := ti.intern(tuple(0), h^1<<32); id != n+1 || !fresh {
			t.Fatalf("intern(%v) under another tag = %d, %v; want %d, fresh", tuple(0), id, fresh, n+1)
		}
		ti.Reset()
		if len(ti.starts)-1 != 0 {
			t.Fatal("Reset kept a tuple")
		}
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

// newIndexFixture draws terms from ix:a, ix:b, ix:c, a fresh term, three
// nulls and consts further constants.
func newIndexFixture(consts int) *indexFixture {
	fx := &indexFixture{
		preds: []Predicate{{Name: "ix:r", Arity: 2}, {Name: "ix:s", Arity: 3}, {Name: "ix:r", Arity: 1}, {Name: "ix:z", Arity: 0}},
		terms: []Term{Constant("ix:a"), Constant("ix:b"), Constant("ix:c"), Fresh(7)},
	}
	nulls := NewNullFactory()
	for i := range 3 {
		n, _ := nulls.Intern(fmt.Sprint(i), i+1)
		fx.terms = append(fx.terms, n)
	}
	for i := range consts {
		fx.terms = append(fx.terms, Constant(fmt.Sprint("ix:k", i)))
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

// check compares every index read — ByPred, AtomsOf, AtomsAt (so every
// posting), Predicates, HasDeltaFor and the atom set — with a brute-force
// filter of in.Atoms().
func (fx *indexFixture) check(t *testing.T, label string, in *Instance, rng *rand.Rand) {
	t.Helper()
	atoms := in.Atoms()
	var preds []Predicate
	for _, p := range fx.preds {
		if slices.ContainsFunc(atoms, func(a *Atom) bool { return a.Pred == p }) {
			preds = append(preds, p)
		}
	}
	slices.SortFunc(preds, func(p, q Predicate) int {
		if p.Name != q.Name {
			return strings.Compare(p.Name, q.Name)
		}
		return p.Arity - q.Arity
	})
	if got := in.Predicates(); !slices.Equal(got, preds) {
		t.Fatalf("%s: Predicates() = %v, want %v", label, got, preds)
	}
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
		pid, pok := lookupPredID(p)
		if !pok {
			continue // AtomsAt and HasDeltaFor take ids; a never-interned predicate has none
		}
		for pos := -1; pos <= p.Arity+1; pos++ {
			for _, tm := range append(fx.terms, fx.absent.terms...) {
				tid, tok := lookupTermID(tm)
				if !tok {
					continue
				}
				want := filter(want, func(a *Atom) bool { return pos >= 0 && pos < p.Arity && a.Args[pos] == tm })
				if got := slices.Collect(in.AtomsAt(pid, pos, tid)); !slices.Equal(got, want) {
					t.Fatalf("%s: AtomsAt(%v, %d, %v) = %v, want %v", label, p, pos, tm, got, want)
				}
				for a := range in.AtomsAt(pid, pos, tid) {
					if a != want[0] {
						t.Fatalf("%s: AtomsAt(%v, %d, %v) starts at %v, want %v", label, p, pos, tm, a, want[0])
					}
					break
				}
			}
		}
		last := -1
		if len(want) > 0 {
			last = slices.Index(atoms, want[len(want)-1])
		}
		for d := 0; d <= len(atoms)+1; d++ {
			if got := in.HasDeltaFor(pid, d); got != (d <= last) {
				t.Fatalf("%s: HasDeltaFor(%v, %d) = %v, want %v", label, p, d, got, d <= last)
			}
		}
	}
	for i, a := range atoms {
		if got := in.lookup(NewAtom(a.Pred, a.Args...)); got != i {
			t.Fatalf("%s: lookup(%v) = %d, want %d", label, a, got, i)
		}
	}
	for range 20 {
		a := fx.atom(rng)
		if got, want := in.lookup(a), slices.IndexFunc(atoms, a.Equal); got != want {
			t.Fatalf("%s: lookup(%v) = %d, want %d", label, a, got, want)
		}
	}
}

// TestInstanceIndexAgreesWithScan checks the index against a brute-force
// scan on seeded random instances, including absent predicates and terms,
// out-of-range positions, and a clone that diverges from its source. The
// small instances cover the edge cases; the large ones, up to 3k atoms,
// cross many doublings of every table and move long postings through the
// sequence arena again and again, on both sides of a clone.
func TestInstanceIndexAgreesWithScan(t *testing.T) {
	for _, tc := range []struct {
		seeds        int64
		consts, size int
	}{{seeds: 20, consts: 0, size: 60}, {seeds: 3, consts: 30, size: 3000}} {
		fx := newIndexFixture(tc.consts)
		for seed := int64(1); seed <= tc.seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			label := fmt.Sprintf("size %d seed %d", tc.size, seed)
			in := NewInstance()
			for range rng.Intn(tc.size) {
				in.Add(fx.atom(rng))
			}
			fx.check(t, label+" source", in, rng)
			cl := in.Clone()
			for range rng.Intn(tc.size / 2) {
				in.Add(fx.atom(rng))
			}
			for range rng.Intn(tc.size / 2) {
				cl.Add(fx.atom(rng))
			}
			fx.check(t, label+" source after clone", in, rng)
			fx.check(t, label+" clone", cl, rng)
		}
	}
}

// TestCloneConcurrentDivergence exercises the clone half of the Instance
// concurrency contract under -race: goroutines cloning one frozen
// instance and growing their clones, and a source and its clone growing on
// two goroutines, must never touch an element another one reads.
func TestCloneConcurrentDivergence(t *testing.T) {
	fx := newIndexFixture(0)
	rng := rand.New(rand.NewSource(99))
	base := NewInstance()
	for range 200 {
		base.Add(fx.atom(rng))
	}
	progs := CompileBodies([][]*Atom{{NewAtom(fx.preds[0], Variable("X"), Variable("Y")), NewAtom(fx.preds[2], Variable("Y"))}})[0]
	grow := func(in *Instance, seed int64) {
		r := rand.New(rand.NewSource(seed))
		var mm Matcher
		for range 100 {
			in.Add(fx.atom(r))
			mm.Match(progs, in, in.Len()-1, func(*Match) bool { return true })
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
