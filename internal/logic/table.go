package logic

import (
	"math"
	"math/bits"
	"slices"
)

// This file holds the flat tables behind Instance and TupleInterner. Each
// table is open-addressed with linear probing at a load of at most 3/4,
// and each probe starts at a multiplicative mix of the slot's own key, so
// a table doubles by re-placing its slots without reading back what they
// index. No table, and no list arena, holds a pointer: the garbage
// collector never scans them, and a copy is one memmove.

// fibMix is 2^64 divided by the golden ratio. Multiplying a key by it and
// keeping the top bits spreads nearby keys over the table (Fibonacci
// hashing).
const fibMix = 0x9e3779b97f4a7c15

// minSlots is the size of a table's first allocation.
const minSlots = 8

// home returns the slot where the probe for key starts in a table of n
// slots, n a power of two.
func home(key uint64, n int) int {
	return int((key * fibMix) >> (64 - bits.TrailingZeros(uint(n))))
}

// tableSlots returns the number of slots a table needs to hold n entries
// at load at most 3/4.
func tableSlots(n int) int {
	s := minSlots
	for s*3 < n*4 {
		s <<= 1
	}
	return s
}

// rehash returns a table of n slots, n a power of two, with every
// occupied slot of old re-placed by its key. key reports a slot's key and
// whether the slot is occupied.
func rehash[S any](old []S, n int, key func(S) (uint64, bool)) []S {
	out := make([]S, n)
	mask := len(out) - 1
	for _, s := range old {
		k, ok := key(s)
		if !ok {
			continue
		}
		i := home(k, len(out))
		for _, taken := key(out[i]); taken; _, taken = key(out[i]) {
			i = (i + 1) & mask
		}
		out[i] = s
	}
	return out
}

// tagTable maps 32-bit tags to non-negative int32 values; several values
// may share a tag. A slot packs the tag above value+1, and 0 marks an
// empty slot. The atom set and the tuple interner tag a value by the top
// half of its 64-bit hash and resolve equal tags by comparing what the
// value names; the predicate table tags an index by the predicate id
// itself.
type tagTable struct {
	slots []uint64
	used  int
}

// find returns the value under tag for which same reports true, or -1
// and the empty slot that ended the probe (-1 too when the table has no
// slots yet). Reads only.
func (t *tagTable) find(tag uint32, same func(int32) bool) (v int32, free int) {
	if len(t.slots) == 0 {
		return -1, -1
	}
	mask := len(t.slots) - 1
	for i := home(uint64(tag), len(t.slots)); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1, i
		}
		if uint32(s>>32) == tag && same(int32(uint32(s))-1) {
			return int32(uint32(s)) - 1, i
		}
	}
}

// reserve makes room for n more values: afterwards find's free slot can
// take each of them in turn. Growing one value at a time doubles the
// table.
func (t *tagTable) reserve(n int) {
	if (t.used+n)*4 > len(t.slots)*3 {
		t.slots = rehash(t.slots, tableSlots(t.used+n), func(s uint64) (uint64, bool) { return s >> 32, s != 0 })
	}
}

// put stores v under tag in the free slot find returned after reserve.
func (t *tagTable) put(free int, tag uint32, v int32) {
	t.slots[free] = uint64(tag)<<32 | uint64(uint32(v)+1)
	t.used++
}

func (t tagTable) clone() tagTable {
	return tagTable{slots: slices.Clone(t.slots), used: t.used}
}

// anyValue resolves a tag that is the whole key.
func anyValue(int32) bool { return true }

// noValue matches nothing, so find returns the free slot for a value the
// caller knows to be absent.
func noValue(int32) bool { return false }

// Numbering numbers int32 keys densely in first-insertion order: the
// first key gets 0, the next new key 1, and so on. It is a tagTable whose
// tag is the key itself, as the instance's predicate table is, so it
// stores nothing but its slots. The wire codec's manifest indexes are such
// numberings. The zero value is empty; a Numbering is not safe for
// concurrent use.
type Numbering struct {
	slots tagTable
}

// Number returns key's number, numbering it next when it has none; fresh
// reports that it was new.
func (nb *Numbering) Number(key int32) (n int32, fresh bool) {
	nb.slots.reserve(1)
	n, free := nb.slots.find(uint32(key), anyValue)
	if n >= 0 {
		return n, false
	}
	n = int32(nb.slots.used)
	nb.slots.put(free, uint32(key), n)
	return n, true
}

// Grow makes room for n more keys, so a caller that knows how many it will
// number does so without rehashing.
func (nb *Numbering) Grow(n int) { nb.slots.reserve(n) }

// seqList is a list of sequences in an instance's sequence arena: entries
// [off, off+n) of Instance.seqs, with room up to the smallest power of
// two >= n. The zero value is the empty list.
type seqList struct{ off, n int32 }

// posting is one slot of the posting table; an empty list marks an empty
// slot, since a posting exists only once it holds a sequence.
type posting struct {
	key  uint64 // postingKey(column, term id)
	list seqList
}

// postingTable maps postingKey(column, term id) to a list in the arena.
type postingTable struct {
	slots []posting
	used  int
}

// find returns the slot holding key, or the empty slot that ends its
// probe. The table must have slots.
func (t *postingTable) find(key uint64) int {
	mask := len(t.slots) - 1
	for i := home(key, len(t.slots)); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.list.n == 0 || s.key == key {
			return i
		}
	}
}

// claim returns the slot for key, taking the empty slot that ends its
// probe when key is absent; the caller then appends to its list.
func (t *postingTable) claim(key uint64) *posting {
	if (t.used+1)*4 > len(t.slots)*3 {
		t.slots = rehash(t.slots, tableSlots(t.used+1), func(p posting) (uint64, bool) { return p.key, p.list.n != 0 })
	}
	s := &t.slots[t.find(key)]
	if s.list.n == 0 {
		s.key = key
		t.used++
	}
	return s
}

func (t postingTable) clone() postingTable {
	return postingTable{slots: slices.Clone(t.slots), used: t.used}
}

// push appends s to the list l in the arena and returns the grown list. A
// list that is full (its length a power of two) first moves to the
// arena's end with room for twice its length; the last list in the arena
// grows where it is. Offsets are int32 like sequences, so the arena is
// bounded at 2^31-1 entries; push panics rather than wrap past it.
func (in *Instance) push(l seqList, s int32) seqList {
	if l.n&(l.n-1) == 0 {
		l.off = in.relocate(l)
	}
	in.seqs[l.off+l.n] = s
	l.n++
	return l
}

// relocate gives the full list l room for twice its length (for one
// sequence when empty) and returns its new offset.
func (in *Instance) relocate(l seqList) int32 {
	end := len(in.seqs)
	room := max(1, 2*int(l.n))
	if end+room > math.MaxInt32 {
		panic("logic: instance sequence arena exhausted (2^31 entries)")
	}
	if l.n > 0 && int(l.off+l.n) == end {
		in.seqs = slices.Grow(in.seqs, int(l.n))[:end+int(l.n)]
		return l.off
	}
	in.seqs = append(in.seqs, in.seqs[l.off:l.off+l.n]...)
	in.seqs = slices.Grow(in.seqs, room-int(l.n))[:end+room]
	return int32(end)
}

// list returns a list's sequences, clipped so that no caller can append
// into the arena.
func (in *Instance) list(l seqList) []int32 {
	return in.seqs[l.off : l.off+l.n : l.off+l.n]
}
