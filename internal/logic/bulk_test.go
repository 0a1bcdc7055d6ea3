package logic

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// CheckBulkMatchesAdd fails t unless NewDatabase(atoms...) builds the
// instance that NewInstance and one Add per atom build: the same
// insertion order, predicates, columns, row lists and postings. It then
// feeds more to a clone of the bulk-built instance and to the incremental
// one, which must agree on every Add's result and end with the same
// index, while the clone's source stays as it was; last the source takes
// the same Adds and must match too. External tests reach it through this
// name to run it over the families' instances.
func CheckBulkMatchesAdd(t *testing.T, atoms, more []*Atom) {
	t.Helper()
	bulk := NewDatabase(atoms...)
	inc := NewInstance()
	for _, a := range atoms {
		inc.Add(a)
	}
	sameIndex(t, "built", bulk, inc)
	built := indexLines(bulk)
	clone := bulk.Clone()
	for i, a := range more {
		if got, want := clone.Add(a), inc.Add(a); got != want {
			t.Fatalf("further Add %d of %v: bulk-built clone says %v, incremental %v", i, a, got, want)
		}
	}
	sameIndex(t, "clone after further Adds", clone, inc)
	if got := indexLines(bulk); !slices.Equal(got, built) {
		t.Fatalf("Adds to a clone changed its bulk-built source:\n%s", firstDiff(got, built))
	}
	for _, a := range more {
		bulk.Add(a)
	}
	sameIndex(t, "source after further Adds", bulk, inc)
}

// sameIndex fails t unless got and want hold the same atoms (the same
// pointers) in the same order and the same index.
func sameIndex(t *testing.T, label string, got, want *Instance) {
	t.Helper()
	if !slices.Equal(got.order, want.order) {
		t.Fatalf("%s: insertion orders differ: %d atoms, want %d", label, len(got.order), len(want.order))
	}
	if g, w := indexLines(got), indexLines(want); !slices.Equal(g, w) {
		t.Fatalf("%s: indexes differ:\n%s", label, firstDiff(g, w))
	}
}

// indexLines renders an instance's index, one line per predicate (id,
// first column, rows) and per posting (column, term id, sequences) in
// key order, plus the table counts.
func indexLines(in *Instance) []string {
	out := []string{fmt.Sprint("atoms ", len(in.order), " set ", in.atoms.used, " columns ", in.ncols, " postings ", in.postings.used)}
	for _, p := range in.preds {
		out = append(out, fmt.Sprint("pred ", p.pid, " col ", p.col, " rows ", in.list(p.rows)))
	}
	var postings []posting
	for _, s := range in.postings.slots {
		if s.list.n != 0 {
			postings = append(postings, s)
		}
	}
	slices.SortFunc(postings, func(a, b posting) int { return cmp.Compare(a.key, b.key) })
	for _, s := range postings {
		out = append(out, fmt.Sprint("posting ", int32(s.key>>32), "/", int32(uint32(s.key)), " ", in.list(s.list)))
	}
	return out
}

func firstDiff(got, want []string) string {
	for i := range max(len(got), len(want)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("line %d: got  %q\n         want %q", i, g, w)
		}
	}
	return "no difference"
}

// randomAtoms returns n atoms over a nullary predicate, two predicates of
// one name at arities 1 and 2, and one of arity 3, with arguments from a
// few constants and nulls, so that repeats, long postings and lists of
// every length up to a few powers of two all occur.
func randomAtoms(rng *rand.Rand, nulls *NullFactory, n int) []*Atom {
	preds := []Predicate{{"z", 0}, {"b", 1}, {"b", 2}, {"t", 3}}
	terms := make([]Term, 0, 12)
	for i := range 8 {
		terms = append(terms, Constant(fmt.Sprint("bulk", i)))
	}
	for i := range 4 {
		nl, _ := nulls.Intern(fmt.Sprint(i), 1+i%2)
		terms = append(terms, nl)
	}
	out := make([]*Atom, n)
	for i := range out {
		p := preds[rng.Intn(len(preds))]
		args := make([]Term, p.Arity)
		for j := range args {
			args[j] = terms[rng.Intn(len(terms))]
		}
		out[i] = NewAtom(p, args...)
	}
	return out
}

// TestNewDatabaseMatchesAdd runs CheckBulkMatchesAdd over 300 random
// instances of up to 300 atoms, each followed by 0 to 100 further Adds,
// and over the edge cases: no atoms, only nullary atoms, one atom
// repeated, and structurally equal atoms built apart.
func TestNewDatabaseMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(2204))
	nulls := NewNullFactory()
	for range 300 {
		CheckBulkMatchesAdd(t, randomAtoms(rng, nulls, rng.Intn(301)), randomAtoms(rng, nulls, rng.Intn(101)))
	}
	z := Predicate{Name: "z", Arity: 0}
	p := MakeAtom("p", Constant("a"), Constant("b"))
	CheckBulkMatchesAdd(t, nil, nil)
	CheckBulkMatchesAdd(t, nil, []*Atom{p, NewAtom(z)})
	CheckBulkMatchesAdd(t, []*Atom{NewAtom(z), NewAtom(z)}, []*Atom{NewAtom(z), p})
	CheckBulkMatchesAdd(t, []*Atom{p, p, p, p, p}, []*Atom{p})
	CheckBulkMatchesAdd(t, []*Atom{p, MakeAtom("p", Constant("a"), Constant("b"))}, []*Atom{MakeAtom("p", Constant("b"), Constant("a"))})
}
