package logic

import (
	"fmt"
	"testing"
)

// A slab hands out exactly-sized, non-overlapping slices, reuses rewound
// blocks, and forgets everything on Abandon.
func TestSlabAllocRewindAbandon(t *testing.T) {
	var s Slab[int32]
	s.block = 8
	a := s.Alloc(3)
	b := s.Alloc(3)
	for i := range a {
		a[i] = 1
	}
	for i := range b {
		b[i] = 2
	}
	if len(a) != 3 || len(b) != 3 || cap(a) != 3 {
		t.Fatalf("alloc shapes: len %d/%d cap %d, want 3/3/3", len(a), len(b), cap(a))
	}
	if a[0] != 1 || b[0] != 2 {
		t.Fatal("allocations overlap")
	}
	// The three-index cap means appending to a cannot clobber b.
	_ = append(a, 99)
	if b[0] != 2 {
		t.Fatal("append to one allocation clobbered its neighbor")
	}
	if got := s.Blocks(); got != 1 {
		t.Fatalf("blocks = %d, want 1 (both fit the first block)", got)
	}
	// An allocation larger than the block size gets its own block.
	big := s.Alloc(32)
	if len(big) != 32 {
		t.Fatalf("oversize alloc len = %d, want 32", len(big))
	}
	blocksBefore := s.Blocks()
	// Rewind recycles: the next same-shaped allocations must not grow the
	// block count.
	s.Rewind()
	for i := 0; i < 4; i++ {
		s.Alloc(3)
	}
	if got := s.Blocks(); got != blocksBefore {
		t.Fatalf("blocks after rewind = %d, want %d (recycled)", got, blocksBefore)
	}
	// Abandon forgets: handed-out values keep their contents (the slab no
	// longer references them), and the counter restarts.
	keep := s.Copy([]int32{7, 8, 9})
	s.Abandon()
	if s.Blocks() != 0 {
		t.Fatalf("blocks after abandon = %d, want 0", s.Blocks())
	}
	if keep[0] != 7 || keep[1] != 8 || keep[2] != 9 {
		t.Fatal("abandon invalidated a handed-out slice")
	}
	fresh := s.Alloc(3)
	for i := range fresh {
		fresh[i] = -1
	}
	if keep[0] != 7 {
		t.Fatal("post-abandon allocation aliased a pre-abandon slice")
	}
}

// Arena-built atoms must be indistinguishable from NewAtomFromIDs-built
// ones — same predicate, ids, hash, and Key — and must not retain the
// caller's slices.
func TestAtomArenaMatchesConstructor(t *testing.T) {
	var ar AtomArena
	pred := Predicate{Name: "p", Arity: 2}
	pid := PredIDOf(pred)
	args := []Term{Constant("a"), Constant("b")}
	ids := []int32{IDOf(args[0]), IDOf(args[1])}
	got := ar.NewAtomFromIDs(pred, args, pid, ids)
	want := NewAtomFromIDs(pred, append([]Term(nil), args...), pid, append([]int32(nil), ids...))
	if got.Key() != want.Key() || got.hash != want.hash || got.PredID() != want.PredID() {
		t.Fatalf("arena atom %v diverges from constructor atom %v", got, want)
	}
	// The arena copied: mutating the caller's slices must not reach the atom.
	args[0], ids[0] = Constant("z"), IDOf(Constant("z"))
	if got.Args[0] != Constant("a") {
		t.Fatal("arena atom aliases the caller's argument slice")
	}
	// Zero-arity atoms work (empty copies, header still arena-backed).
	p0 := Predicate{Name: "q", Arity: 0}
	a0 := ar.NewAtomFromIDs(p0, nil, PredIDOf(p0), nil)
	w0 := NewAtom(p0)
	if a0.Key() != w0.Key() {
		t.Fatalf("zero-arity arena atom %q, want %q", a0.Key(), w0.Key())
	}
}

// Reset abandons: atoms handed out before a Reset stay intact no matter
// how much the arena allocates afterwards — the no-aliasing guarantee
// the chase's pooled scratch relies on across jobs.
func TestAtomArenaResetNeverAliases(t *testing.T) {
	var ar AtomArena
	pred := Predicate{Name: "r", Arity: 1}
	pid := PredIDOf(pred)
	const n = 500 // spans several blocks
	first := make([]*Atom, 0, n)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		c := Constant(fmt.Sprintf("c%d", i))
		a := ar.NewAtomFromIDs(pred, []Term{c}, pid, []int32{IDOf(c)})
		first = append(first, a)
		keys = append(keys, a.Key())
	}
	if ar.Blocks() == 0 {
		t.Fatal("fixture: expected arena blocks")
	}
	ar.Reset()
	if ar.Blocks() != 0 {
		t.Fatalf("blocks after reset = %d, want 0", ar.Blocks())
	}
	// A second "job" allocates heavily with different contents.
	for i := 0; i < n; i++ {
		c := Constant(fmt.Sprintf("other%d", i))
		ar.NewAtomFromIDs(pred, []Term{c}, pid, []int32{IDOf(c)})
	}
	for i, a := range first {
		if a.Key() != keys[i] {
			t.Fatalf("atom %d mutated after reset+reuse: %q -> %q", i, keys[i], a.Key())
		}
	}
}
