// Package compile is the cross-request ontology compilation cache. The
// paper's decision problems are parameterized by a fixed TGD set Σ
// evaluated against many databases D, and the runtime layer runs exactly
// that shape of fleet — so every artifact derived from Σ alone is
// memoized here and paid once per ontology instead of once per job: the
// chase engine's compiled per-TGD programs (chase.CompiledSet: head
// programs and per-seed body programs), the Section 7 simplification
// simple(Σ), the dependency- and predicate-graph analyses of Section 6
// (dg(Σ), pg(Σ), uniform weak acyclicity, the dangerous-predicate set),
// and the termination UCQs Q_Σ of Theorems 6.6 and 7.7.
//
// # Keying
//
// The cache key is the canonical Fingerprint of Σ (see fingerprint.go):
// order-insensitive, α-invariant, duplicate-insensitive, and stable
// across processes — the identity fleet jobs and checkpoints carry on
// the wire. Compiled artifacts, however, address clauses by index and
// variables by name, so within a fingerprint entry
// the cache keeps one view per exact clause sequence: fingerprint-equal
// but reordered or α-renamed sets share the entry (and its LRU slot) but
// compile their own view, which is what makes serving a cached artifact
// always safe (chase.Run additionally re-verifies via
// CompiledSet.Matches). TGD sets are immutable by convention — tgds.Set
// deduplicates on Add but callers never mutate a set after handing it to
// a run — so entries never go stale by mutation; "mutating Σ" means
// building a new set, which fingerprints differently and misses.
//
// # Concurrency
//
// Reads are lock-free in the style of logic.Symbols: entry and view
// resolution are sync.Map loads, recency is an atomic clock stamp, and a
// built artifact is an immutable value behind a sync.Once. Only inserting
// a new fingerprint entry (and the LRU eviction it may trigger) takes the
// writer mutex. Concurrent first requests for the same artifact build it
// once; everyone else blocks on the Once and then shares the value.
package compile

import (
	"sync"
	"sync/atomic"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/simplify"
	"repro/internal/tgds"
)

// DefaultCapacity bounds the number of distinct ontology fingerprints the
// default cache retains before evicting the least recently used entry.
const DefaultCapacity = 128

// Cache memoizes per-Σ compilation artifacts, keyed by Fingerprint with
// per-exact-form views. The zero value is not usable; construct with
// NewCache or use the process-wide Global.
type Cache struct {
	capacity int
	clock    atomic.Uint64 // logical time for LRU recency
	entries  sync.Map      // Fingerprint -> *entry
	count    atomic.Int64  // number of entries (tracked outside sync.Map)
	mu       sync.Mutex    // serializes entry insertion and eviction

	// fast short-circuits fingerprint and exact-key hashing for the
	// overwhelmingly common lookup shape — a fleet of jobs sharing one
	// *tgds.Set value. It is keyed by the set pointer and guarded by the
	// clause count, so the supported mutation (Set.Add growing the set)
	// falls back to the slow path; it is cleared wholesale on eviction
	// (a rare event), and size-bounded to a multiple of the entry
	// capacity.
	fast      sync.Map // *tgds.Set -> fastEntry
	fastCount atomic.Int64

	// registered pins ontologies by fingerprint for fingerprint-addressed
	// submission (internal/service): a Registered set is resolvable even
	// after its derived-artifact entry is LRU-evicted, and the first
	// registration of a fingerprint wins, so every job served under it
	// compiles against one stable exact clause form.
	registered sync.Map // Fingerprint -> *tgds.Set
	regCount   atomic.Int64

	// bounds holds the learned termination bounds (bounds.go), keyed by
	// (fingerprint, variant). Like registrations they are pinned — byte-
	// accounted but exempt from LRU eviction — so a bound survives its
	// entry's eviction and the ontology's re-registration.
	bounds     sync.Map // boundKey -> LearnedBound
	boundCount atomic.Int64

	bytes     atomic.Int64 // approximate bytes held by live entries
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type fastEntry struct {
	n  int // sigma.Len() at memoization time
	fp Fingerprint
	v  *view
}

// Stats is a snapshot of the cache's counters. Hits and Misses count
// artifact requests (a request for a not-yet-built artifact of a cached
// ontology counts as a miss). Bytes is the approximate memory held by
// live entries' built artifacts and learned bounds (see size.go for the
// cost model); Registered counts pinned ontologies.
type Stats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
	Registered              int
	Bounds                  int
	Bytes                   int64
}

// NewCache returns a cache bounded to the given number of fingerprint
// entries; capacity <= 0 selects DefaultCapacity.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{capacity: capacity}
}

var global = NewCache(DefaultCapacity)

// Global returns the process-wide cache the command-line tools and the
// default runtime wiring share.
func Global() *Cache { return global }

// entry is one fingerprint's slot: the LRU bookkeeping plus the views.
type entry struct {
	fp      Fingerprint
	lastUse atomic.Uint64
	bytes   atomic.Int64 // approximate bytes of built artifacts, all views
	views   sync.Map     // exactKey -> *view
}

// view holds the artifacts for one exact clause sequence. Every artifact
// is built at most once and immutable afterwards.
type view struct {
	sigma *tgds.Set // representative set (first seen with this exact form)

	chaseSet   lazy[*chase.CompiledSet]
	simplified lazy[setErr]
	graph      lazy[*depgraph.Graph]
	predGraph  lazy[*depgraph.PredGraph]
	uniformWA  lazy[waVerdict]
	ucqSL      lazy[ucqErr]
	ucqL       lazy[ucqErr]
}

type setErr struct {
	set *tgds.Set
	err error
}

type waVerdict struct {
	ok   bool
	cert *depgraph.Certificate
}

type ucqErr struct {
	q   core.UCQ
	err error
}

// lazy is a build-once cell. get reports a miss exactly for the caller
// whose once.Do ran the builder, so concurrent first requests count one
// miss total (waiters block on the Once and report hits — they were
// served a cached value, not a private compilation).
type lazy[T any] struct {
	once sync.Once
	v    T
}

func (l *lazy[T]) get(build func() T) (v T, hit bool) {
	hit = true
	l.once.Do(func() {
		l.v = build()
		hit = false
	})
	return l.v, hit
}

// view resolves the entry and view for sigma, inserting both as needed.
// The read path is lock-free; only a first-seen fingerprint takes the
// writer mutex (and may evict).
func (c *Cache) view(sigma *tgds.Set) (*entry, *view) {
	if fv, ok := c.fast.Load(sigma); ok {
		fe := fv.(fastEntry)
		if fe.n == sigma.Len() {
			if ev, ok := c.entries.Load(fe.fp); ok {
				e := ev.(*entry)
				e.lastUse.Store(c.clock.Add(1))
				return e, fe.v
			}
			// The backing entry was evicted; drop the stale memo and
			// resolve afresh (reinserting the entry below).
			c.fast.Delete(sigma)
			c.fastCount.Add(-1)
		}
	}
	fp := Of(sigma)
	var e *entry
	if ev, ok := c.entries.Load(fp); ok {
		e = ev.(*entry)
	} else {
		c.mu.Lock()
		if ev, ok := c.entries.Load(fp); ok {
			e = ev.(*entry)
		} else {
			e = &entry{fp: fp}
			c.entries.Store(fp, e)
			c.count.Add(1)
			c.evictLocked(e)
		}
		c.mu.Unlock()
	}
	e.lastUse.Store(c.clock.Add(1))
	key := exactKey(sigma)
	vv, ok := e.views.Load(key)
	if !ok {
		vv, _ = e.views.LoadOrStore(key, &view{sigma: sigma})
	}
	v := vv.(*view)
	if c.fastCount.Load() < int64(4*c.capacity) {
		if _, loaded := c.fast.LoadOrStore(sigma, fastEntry{n: sigma.Len(), fp: fp, v: v}); !loaded {
			c.fastCount.Add(1)
		}
	}
	return e, v
}

// addBytes credits an artifact just built in e's views to the entry's
// and the cache's approximate byte accounting. An in-flight build may
// land after its entry was evicted; the accounting is approximate by
// contract, and the discrepancy is one artifact's estimate.
func (c *Cache) addBytes(e *entry, n int) {
	e.bytes.Add(int64(n))
	c.bytes.Add(int64(n))
}

// clearFast drops every pointer memo (after an eviction made some of
// them stale; correctness never depends on them).
func (c *Cache) clearFast() {
	c.fast.Range(func(k, _ any) bool {
		c.fast.Delete(k)
		return true
	})
	c.fastCount.Store(0)
}

// evictLocked drops least-recently-used entries (never keep, the entry
// just inserted) until the capacity holds. Called with mu held.
func (c *Cache) evictLocked(keep *entry) {
	for c.count.Load() > int64(c.capacity) {
		var victim *entry
		c.entries.Range(func(_, v any) bool {
			e := v.(*entry)
			if e == keep {
				return true
			}
			if victim == nil || e.lastUse.Load() < victim.lastUse.Load() {
				victim = e
			}
			return true
		})
		if victim == nil {
			return
		}
		c.entries.Delete(victim.fp)
		c.count.Add(-1)
		c.bytes.Add(-victim.bytes.Load())
		c.evictions.Add(1)
		c.clearFast()
	}
}

// record tallies one artifact request.
func (c *Cache) record(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// CompiledChase returns the chase engine's compiled programs for sigma,
// building them on first request. It implements chase.Compiler, so a
// Cache can be attached directly to chase.Options.Compile.
func (c *Cache) CompiledChase(sigma *tgds.Set) (*chase.CompiledSet, bool) {
	e, v := c.view(sigma)
	cs, hit := v.chaseSet.get(func() *chase.CompiledSet { return chase.Compile(v.sigma) })
	c.record(hit)
	if !hit {
		c.addBytes(e, compiledChaseBytes(v.sigma))
	}
	return cs, hit
}

// Simplified returns simple(Σ) (simplify.Set), memoized. The returned set
// is shared: callers must treat it as immutable.
func (c *Cache) Simplified(sigma *tgds.Set) (*tgds.Set, error) {
	e, v := c.view(sigma)
	r, hit := v.simplified.get(func() setErr {
		s, err := simplify.Set(v.sigma)
		return setErr{set: s, err: err}
	})
	c.record(hit)
	if !hit {
		c.addBytes(e, setBytes(r.set))
	}
	return r.set, r.err
}

// DepGraph returns the dependency graph dg(Σ), memoized.
func (c *Cache) DepGraph(sigma *tgds.Set) *depgraph.Graph {
	e, v := c.view(sigma)
	g, hit := v.graph.get(func() *depgraph.Graph { return depgraph.Build(v.sigma) })
	c.record(hit)
	if !hit {
		c.addBytes(e, graphBytes(g))
	}
	return g
}

// PredGraph returns the predicate graph pg(Σ), memoized.
func (c *Cache) PredGraph(sigma *tgds.Set) *depgraph.PredGraph {
	e, v := c.view(sigma)
	g, hit := v.predGraph.get(func() *depgraph.PredGraph { return depgraph.BuildPredGraph(v.sigma) })
	c.record(hit)
	if !hit {
		c.addBytes(e, predGraphBytes(v.sigma))
	}
	return g
}

// WeaklyAcyclic returns the uniform weak-acyclicity verdict for Σ,
// memoized. The certificate (nil when acyclic) references clause IDs of
// the exact form the view was built from.
func (c *Cache) WeaklyAcyclic(sigma *tgds.Set) (bool, *depgraph.Certificate) {
	e, v := c.view(sigma)
	w, hit := v.uniformWA.get(func() waVerdict {
		ok, cert := depgraph.IsWeaklyAcyclic(v.sigma)
		return waVerdict{ok: ok, cert: cert}
	})
	c.record(hit)
	if !hit {
		c.addBytes(e, certBytes(w.cert))
	}
	return w.ok, w.cert
}

// UCQSL returns the termination UCQ Q_Σ for a simple linear Σ (Theorem
// 6.6), memoized. The dangerous-predicate analysis it runs on is part of
// the memoized value, so there is no separate P_Σ accessor.
func (c *Cache) UCQSL(sigma *tgds.Set) (core.UCQ, error) {
	e, v := c.view(sigma)
	r, hit := v.ucqSL.get(func() ucqErr {
		q, err := core.BuildUCQSL(v.sigma)
		return ucqErr{q: q, err: err}
	})
	c.record(hit)
	if !hit {
		c.addBytes(e, ucqBytes(r.q))
	}
	return r.q, r.err
}

// UCQL returns the termination UCQ Q_Σ for a linear Σ (Theorem 7.7),
// memoized.
func (c *Cache) UCQL(sigma *tgds.Set) (core.UCQ, error) {
	e, v := c.view(sigma)
	r, hit := v.ucqL.get(func() ucqErr {
		q, err := core.BuildUCQL(v.sigma)
		return ucqErr{q: q, err: err}
	})
	c.record(hit)
	if !hit {
		c.addBytes(e, ucqBytes(r.q))
	}
	return r.q, r.err
}

// Register pins the ontology under its canonical fingerprint and returns
// the fingerprint — the identity a remote caller later submits jobs by
// (internal/service.SubmitByFingerprint). The first registration of a
// fingerprint wins: fingerprint-equal but reordered or α-renamed sets
// resolve to the first-registered exact form, so every job served under
// one fingerprint shares one compiled view and fleets stay
// byte-identical. Registration is not subject to the LRU bound; it holds
// the set alive for the cache's lifetime.
func (c *Cache) Register(sigma *tgds.Set) Fingerprint {
	fp := Of(sigma)
	if _, loaded := c.registered.LoadOrStore(fp, sigma); !loaded {
		c.regCount.Add(1)
	}
	return fp
}

// Registered resolves a fingerprint to its pinned ontology; ok is false
// for fingerprints never registered.
func (c *Cache) Registered(fp Fingerprint) (*tgds.Set, bool) {
	v, ok := c.registered.Load(fp)
	if !ok {
		return nil, false
	}
	return v.(*tgds.Set), true
}

// Len returns the number of fingerprint entries.
func (c *Cache) Len() int { return int(c.count.Load()) }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		Entries:    c.Len(),
		Registered: int(c.regCount.Load()),
		Bounds:     int(c.boundCount.Load()),
		Bytes:      c.bytes.Load(),
	}
}
