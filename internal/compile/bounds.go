package compile

import (
	"sort"

	"repro/internal/chase"
)

// LearnedBound is a profiled termination bound for one (ontology,
// variant) pair: the round and atom counts a reference chase reached.
// Observed reports whether that reference run terminated — a bound
// learned from a run that itself hit a budget describes a prefix, not a
// fixpoint, and serving layers surface the difference (internal/qos's
// Bounded mode serves either, but the truncation marker stays honest
// because a budget-stopped run is reported as not terminated either
// way).
//
// A bound of a terminated run includes the final empty round, so serving
// a database of comparable size under MaxRounds = Rounds reaches the
// fixpoint and reports Terminated = true.
type LearnedBound struct {
	Rounds   int
	Atoms    int
	Observed bool
}

// VariantBound pairs a learned bound with the chase variant it was
// profiled under; Bounds returns them sorted by variant so every export
// (wire encoding, fleet cold-pull) is deterministic.
type VariantBound struct {
	Variant chase.Variant
	Bound   LearnedBound
}

// boundKey addresses one learned bound: bounds are per-(fingerprint,
// variant), like every other per-Σ artifact, but the three variants
// saturate differently so they never share a bound.
type boundKey struct {
	fp Fingerprint
	v  chase.Variant
}

// learnedBoundBytes is the accounting cost of one stored bound: the key
// (fingerprint + variant), the two counters, and sync.Map overhead.
const learnedBoundBytes = 96

// StoreBound records the learned bound for (fp, v), overwriting any
// earlier one (relearning wins — the freshest reference run is the
// truth). Bounds are byte-accounted into Stats.Bytes like other per-Σ
// artifacts but, like registrations, they are pinned rather than
// LRU-managed: a bound is a few dozen bytes of hard-won profiling, so it
// survives entry eviction and re-registration for the cache's lifetime.
func (c *Cache) StoreBound(fp Fingerprint, v chase.Variant, b LearnedBound) {
	if _, loaded := c.bounds.Swap(boundKey{fp: fp, v: v}, b); !loaded {
		c.boundCount.Add(1)
		c.bytes.Add(learnedBoundBytes)
	}
}

// Bound returns the learned bound for (fp, v); ok is false when none was
// was ever stored.
func (c *Cache) Bound(fp Fingerprint, v chase.Variant) (LearnedBound, bool) {
	bv, ok := c.bounds.Load(boundKey{fp: fp, v: v})
	if !ok {
		return LearnedBound{}, false
	}
	return bv.(LearnedBound), true
}

// Bounds returns every learned bound stored for the fingerprint, sorted
// by variant — the deterministic export shape the fleet coordinator
// ships to cold workers alongside the ontology pull (internal/qos
// provides the wire encoding).
func (c *Cache) Bounds(fp Fingerprint) []VariantBound {
	var out []VariantBound
	c.bounds.Range(func(k, v any) bool {
		bk := k.(boundKey)
		if bk.fp == fp {
			out = append(out, VariantBound{Variant: bk.v, Bound: v.(LearnedBound)})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Variant < out[j].Variant })
	return out
}
