package logic

// Slab-based allocation for the chase hot path. The engine's inner loop
// creates three kinds of short-lived-ish values at high rates: atom
// headers with their id tuples and argument slices (which escape into the
// result instance and must live as long as it), and per-trigger integer
// and term tuples (fire keys, frontier images) that die when the round's
// pending triggers are applied. A Slab bump-allocates both kinds in
// blocks, turning three heap allocations per atom or trigger into three
// per block, while AtomArena packages the atom-shaped triple.
//
// The two lifetimes map onto the two ways a slab can be emptied:
//
//   - Abandon drops every block. The slab keeps no reference, so values
//     handed out earlier stay valid for as long as their own referents
//     do — this is the reset for escaping data (atoms in a finished
//     run's instance), and it is what makes a pooled arena safe: a reset
//     arena can never alias a previous run's atoms, because the previous
//     run's blocks are simply never reused.
//   - Rewind retires every block to an internal free list for reuse.
//     This is strictly for data the caller can prove dead (the chase's
//     per-round trigger tuples); previously handed-out slices alias the
//     recycled memory. A rewound block is not zeroed, so a slab may keep
//     old values (and whatever they point to) alive up to its high-water
//     capacity — bounded retention the chase accepts for its largest
//     round.

// slabBlock is the default number of elements per slab block.
const slabBlock = 256

// Slab is a block bump allocator for values of type T. The zero value is
// ready to use. A Slab is not safe for concurrent use; each chase
// scratch owns its own.
type Slab[T any] struct {
	cur    []T   // active block; len = elements handed out from it
	full   [][]T // exhausted blocks, held for Rewind
	free   [][]T // rewound blocks awaiting reuse
	block  int   // elements per block; 0 selects slabBlock
	blocks int   // heap blocks allocated since construction or Abandon
}

// Alloc returns a slice of n elements backed by the slab. The caller may
// write the n elements but must not append beyond them.
func (s *Slab[T]) Alloc(n int) []T {
	l := len(s.cur)
	if l+n > cap(s.cur) {
		s.grow(n)
		l = 0
	}
	s.cur = s.cur[:l+n]
	return s.cur[l : l+n : l+n]
}

// Buf returns an empty slice with capacity n backed by the slab — an
// append target for callers that build a tuple of known maximum size
// (the capacity is reserved whether or not it is filled).
func (s *Slab[T]) Buf(n int) []T {
	return s.Alloc(n)[:0]
}

// Copy returns a slab-backed copy of src.
func (s *Slab[T]) Copy(src []T) []T {
	dst := s.Alloc(len(src))
	copy(dst, src)
	return dst
}

// grow makes room for at least n elements in a fresh active block,
// preferring a rewound block when one is large enough.
func (s *Slab[T]) grow(n int) {
	if cap(s.cur) > 0 {
		s.full = append(s.full, s.cur)
	}
	if k := len(s.free); k > 0 && cap(s.free[k-1]) >= n {
		s.cur = s.free[k-1][:0]
		s.free = s.free[:k-1]
		return
	}
	size := s.block
	if size == 0 {
		size = slabBlock
	}
	if size < n {
		size = n
	}
	s.cur = make([]T, 0, size)
	s.blocks++
}

// Rewind retires every block for reuse. All slices previously handed out
// become invalid: they alias memory future Allocs will overwrite. Only
// call it when every value from the slab is provably dead.
func (s *Slab[T]) Rewind() {
	for _, b := range s.full {
		s.free = append(s.free, b[:0])
	}
	s.full = s.full[:0]
	if cap(s.cur) > 0 {
		s.free = append(s.free, s.cur[:0])
		s.cur = nil
	}
}

// Abandon drops every block without reuse. Slices previously handed out
// remain valid (the slab no longer references them); the slab starts
// empty, and Blocks restarts from zero.
func (s *Slab[T]) Abandon() {
	s.cur, s.full, s.free, s.blocks = nil, nil, nil, 0
}

// Blocks returns the number of heap blocks allocated since construction
// or the last Abandon. The count is a pure function of the allocation
// sequence, so byte-identical runs report identical counts.
func (s *Slab[T]) Blocks() int { return s.blocks }

// Arena block sizes: atom headers are larger than their id/term tuples,
// so the header block holds fewer elements per heap allocation.
const (
	arenaAtomBlock  = 128
	arenaTupleBlock = 512
)

// AtomArena bump-allocates atoms — header, interned-id tuple, and
// argument slice — in blocks. It exists for the chase's head
// instantiation, where the per-atom triple of heap allocations dominates
// the engine's allocation profile. Atoms created here escape into the
// run's result instance, so Reset abandons the blocks rather than
// recycling them: a reset arena can never alias a previous run's atoms.
// The zero value is ready to use; an AtomArena is single-goroutine, like
// the apply phase that owns it.
type AtomArena struct {
	atoms Slab[Atom]
	ids   Slab[int32]
	terms Slab[Term]
}

// NewAtomFromIDs is logic.NewAtomFromIDs backed by the arena: args and
// ids are copied into slab blocks (unlike the package-level constructor,
// the caller may reuse its slices afterwards), and the header comes from
// a header block. pid must be PredIDOf(pred) and ids[i] must be
// IDOf(args[i]); nothing is validated.
func (ar *AtomArena) NewAtomFromIDs(pred Predicate, args []Term, pid int32, ids []int32) *Atom {
	if ar.atoms.block == 0 {
		ar.atoms.block = arenaAtomBlock
		ar.ids.block = arenaTupleBlock
		ar.terms.block = arenaTupleBlock
	}
	ids2 := ar.ids.Copy(ids)
	args2 := ar.terms.Copy(args)
	hdr := ar.atoms.Alloc(1)
	hdr[0] = Atom{Pred: pred, Args: args2, pid: pid, ids: ids2, hash: hashAtom(pid, ids2)}
	return &hdr[0]
}

// Reset abandons every block. Atoms handed out earlier remain valid —
// they are owned by whatever instance they escaped into — and the arena
// never reuses their memory.
func (ar *AtomArena) Reset() {
	ar.atoms.Abandon()
	ar.ids.Abandon()
	ar.terms.Abandon()
}

// Blocks returns the total heap blocks allocated since the last Reset —
// the chase surfaces it as Stats.ArenaBlocks. Deterministic: the count
// depends only on the sequence of atoms created, which the chase's
// byte-identity contract fixes across cache states and scratch reuse.
func (ar *AtomArena) Blocks() int {
	return ar.atoms.Blocks() + ar.ids.Blocks() + ar.terms.Blocks()
}
