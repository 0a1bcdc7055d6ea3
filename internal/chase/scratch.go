package chase

// Scratch owns the reusable allocation state of a chase run: the
// matcher's binding buffers, the fired-trigger interner, the
// atom arena, the per-round trigger slabs, and the engine's assorted
// work buffers. A run without an explicit Scratch allocates a private one
// (Run's pre-scratch behavior); long-lived callers — the runtime
// Scheduler gives each of its worker goroutines one — pass it through
// Options.Scratch so consecutive jobs reset the state instead of
// reallocating it.
//
// The reset discipline follows the data's lifetime. Buffers whose
// contents never escape a run (matcher bindings, key scratch, pending
// list, per-round trigger tuples) are length-reset and their
// capacity reused. The atom arena's contents DO escape — its atoms live
// on in the previous run's result instance — so begin abandons its
// blocks wholesale: a reused Scratch can never alias a previous job's
// atoms (the arena-reuse test pins this down). A Scratch holds its
// buffers' high-water capacity between jobs, which may keep the previous
// job's pointers reachable until overwritten — bounded retention, the
// price of reuse.
//
// A Scratch must never be used by two concurrent runs. One run at a
// time, any number of sequential runs.

import (
	"repro/internal/logic"
)

// trigSlabs are the per-round trigger tuple slabs: interned fire keys and
// frIDs (ints), frontier images (terms). Their contents die when the
// round's pending triggers are applied, so the engine rewinds them at
// every round boundary — within a run and across runs the blocks recycle.
type trigSlabs struct {
	keys  logic.Slab[int32]
	terms logic.Slab[logic.Term]
}

func (s *trigSlabs) rewind() {
	s.keys.Rewind()
	s.terms.Rewind()
}

// Scratch is the pooled allocation state; see the package comment above.
// The zero value is not usable — construct with NewScratch.
type Scratch struct {
	matcher logic.Matcher        // collect's binding buffers
	prefix  logic.Matcher        // resumed runs' prefix searches
	fired   *logic.TupleInterner // fired-trigger keys; Reset keeps table+arena capacity
	arena   logic.AtomArena      // head-instantiation atoms; reset abandons (atoms escape)
	slabs   trigSlabs            // the round's trigger tuples

	keyBuf  []int32          // tuple-building scratch
	nullBuf []*logic.Null    // per-trigger null scratch
	argBuf  []logic.Term     // head-atom argument scratch
	idBuf   []int32          // head-atom id scratch
	headBuf []*logic.Atom    // instantiateHead output buffer
	pending []pendingTrigger // per-round trigger list

	runs int // completed begin calls: how many runs borrowed this scratch
}

// NewScratch returns an empty scratch, ready for Options.Scratch.
func NewScratch() *Scratch {
	return &Scratch{fired: logic.NewTupleInterner()}
}

// Runs reports how many chase runs have used this scratch (including a
// currently active one). The runtime scheduler uses it to count warm
// reuses.
func (s *Scratch) Runs() int { return s.runs }

// begin readies the scratch for a fresh run: escaping state is abandoned,
// everything else is length-reset with capacity retained.
func (s *Scratch) begin() {
	s.runs++
	if s.fired == nil {
		s.fired = logic.NewTupleInterner()
	}
	s.fired.Reset()
	s.arena.Reset()
	s.slabs.rewind()
	s.pending = s.pending[:0]
}
