package chase

// Parallel trigger collection. Each round's candidate space is sharded
// into (TGD index, seed body position, window) tasks that an Executor
// runs across a worker pool. For semi-naive rounds the windows slice the
// delta [deltaStart, inst.Len()) of the standard decomposition; for
// round 1 (deltaStart < 0), where every atom is new, each TGD is sharded
// by windowing the insertion sequence of its join-start atom — the body
// position the sequential full enumeration places first in the join (see
// logic.JoinStart) — over the whole instance. Workers only read: the
// instance (immutable between rounds, see the logic.Instance contract),
// the fired-trigger interner (probed with the read-only Has), and the
// symbol table (lock-free). Each worker owns a reusable logic.Matcher and
// trigger slabs and emits candidate triggers into the task's own buffer;
// the merge then walks the buffers in task order — which, by the
// MatchShard/MatchShardFull order-compatibility guarantees, is exactly
// the order the sequential engine enumerates — and interns trigger keys
// so that the surviving pending list, and hence the applied chase
// sequence, CanonicalKey, forest, and derivation, are byte-identical to
// the sequential engine's for all three variants.
//
// Window widths adapt to observed trigger density: a round that yielded
// many candidate triggers per delta atom gets narrower windows next round
// (so one task stays near shardTargetCands candidates), a sparse round
// gets wider ones (so task dispatch doesn't dominate matching). The width
// only changes how the candidate space is partitioned, never the merge
// order, so adaptivity cannot perturb the byte-identity contract.

import (
	"repro/internal/logic"
	"repro/internal/tgds"
)

// Executor abstracts the worker pool the parallel collector runs on;
// internal/runtime provides the standard implementation. Map must invoke
// task(i, w) exactly once for every i in [0, n), from at most Workers()
// goroutines, where w in [0, min(Workers(), n)) identifies the calling
// worker slot, and must not return before every invocation has completed.
// The collector sizes its worker-slot state by that bound, never by
// Workers() alone, so an executor may report any width.
type Executor interface {
	Workers() int
	Map(n int, task func(task, worker int))
}

// collectTask is one shard: TGD tgdIdx seeded at body position seed, with
// the seed image's insertion sequence in [lo, hi). full marks a round-1
// shard of the unrestricted enumeration (no old/new constraints); a full
// task with seed < 0 is the empty-body singleton, which is not shardable.
type collectTask struct {
	tgdIdx, seed, lo, hi int
	full                 bool
}

// shardCand is a candidate trigger a worker emitted: the pending trigger
// plus its fire key (TGD index, key-variable image ids), interned at merge
// time. Both point into the emitting worker's slabs and die when the
// round's triggers are applied.
type shardCand struct {
	p   pendingTrigger
	key []int32
}

// collectWorker is one worker slot's reusable state. The matcher and
// interner persist across rounds and runs; the slabs are rewound at every
// round boundary by the engine (their tuples die at apply).
type collectWorker struct {
	matcher    logic.Matcher
	keyBuf     []int32
	seen       *logic.TupleInterner // within-task duplicate filter, reset per task
	slabs      trigSlabs            // fire keys and frontier images of emitted triggers
	considered int
}

// Adaptive shard sizing. A window's width is chosen so one task yields
// about shardTargetCands candidate triggers at the trigger density the
// previous round observed (candidates emitted per atom of window span),
// clamped to keep tasks from degenerating into dispatch overhead or into
// worker-starving monoliths. The first parallel round of a run has no
// observation yet and uses defaultShardWidth.
const (
	defaultShardWidth = 128
	minShardWidth     = 16
	maxShardWidth     = 8192
	shardTargetCands  = 512
)

// shardWidth returns the window width for this round from the previous
// round's observed density. Deterministic: span and candidate counts are
// fixed by the chase sequence, independent of worker count.
func (e *engine) shardWidth() int {
	if e.prevSpan <= 0 || e.prevCands <= 0 {
		return defaultShardWidth
	}
	w := e.prevSpan * shardTargetCands / e.prevCands
	if w < minShardWidth {
		w = minShardWidth
	}
	if w > maxShardWidth {
		w = maxShardWidth
	}
	return w
}

// shardChunks splits a span of that many atoms into a chunk count from
// the adaptive width, capped so a single (TGD, seed) pair cannot flood
// the task list with more than a few tasks per worker.
func (e *engine) shardChunks(span, width int) int {
	chunks := span / width
	if max := 4 * e.opts.Executor.Workers(); chunks > max {
		chunks = max
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// collectParallel is collect with an Executor: shard, match concurrently,
// merge deterministically. deltaStart < 0 is round 1 (the unrestricted
// enumeration); otherwise the round's delta begins at deltaStart.
func (e *engine) collectParallel(deltaStart int) []pendingTrigger {
	exec := e.opts.Executor
	sc := e.sc
	deltaEnd := e.inst.Len()
	winLo := deltaStart
	if winLo < 0 {
		winLo = 0
	}
	span := deltaEnd - winLo
	width := e.shardWidth()
	// Task order is the sequential enumeration order: TGD index, then seed
	// position, then window.
	tasks := sc.taskBuf[:0]
	if deltaStart < 0 {
		// Round 1: shard each TGD on its join-start atom, the same start
		// the sequential full enumeration compiles — MatchShardFull's
		// order compatibility holds only for that seed. TGDs whose start
		// atom has no candidates yield nothing and are skipped.
		for ti, t := range e.sigma.TGDs {
			seed, cands := logic.JoinStart(t.Body, e.inst)
			if seed < 0 {
				// Empty body: the sequential enumeration yields exactly one
				// empty match, which no window constraint can express.
				tasks = append(tasks, collectTask{tgdIdx: ti, seed: -1, full: true})
				continue
			}
			if cands == 0 {
				continue
			}
			chunks := e.shardChunks(cands, width)
			for c := 0; c < chunks; c++ {
				lo := winLo + span*c/chunks
				hi := winLo + span*(c+1)/chunks
				if lo < hi {
					tasks = append(tasks, collectTask{tgdIdx: ti, seed: seed, lo: lo, hi: hi, full: true})
				}
			}
		}
	} else {
		// Semi-naive round: every seed position whose predicate gained
		// delta atoms, windowed over the delta — seeds without delta atoms
		// are skipped exactly like the sequential collector does.
		chunks := e.shardChunks(span, width)
		for ti, t := range e.sigma.TGDs {
			for seed := range t.Body {
				if !e.inst.HasDeltaFor(t.Body[seed].PredID(), deltaStart) {
					continue
				}
				for c := 0; c < chunks; c++ {
					lo := deltaStart + span*c/chunks
					hi := deltaStart + span*(c+1)/chunks
					if lo < hi {
						tasks = append(tasks, collectTask{tgdIdx: ti, seed: seed, lo: lo, hi: hi})
					}
				}
			}
		}
	}
	sc.taskBuf = tasks
	if slots := min(exec.Workers(), len(tasks)); len(sc.workers) < slots {
		// Worker-slot state (matchers, interners, slabs) persists across
		// rounds and runs; growing the pool keeps the existing slots.
		ws := make([]collectWorker, slots)
		copy(ws, sc.workers)
		sc.workers = ws
	}
	workers := sc.workers
	out := sc.outBuf[:cap(sc.outBuf)]
	for len(out) < len(tasks) {
		out = append(out, nil)
	}
	out = out[:len(tasks)]
	for i := range out {
		out[i] = out[i][:0]
	}
	sc.outBuf = out
	exec.Map(len(tasks), func(i, w int) {
		e.collectShard(tasks[i], &workers[w], &out[i], deltaStart)
	})
	// Merge: walk the shard buffers in task order and intern fire keys, so
	// within-round duplicates resolve to the same first occurrence the
	// sequential engine keeps.
	pending := sc.pending[:0]
	for i := range out {
		for _, c := range out[i] {
			if _, fresh := sc.fired.Intern(c.key); fresh && (e.prefix == 0 || !e.firedBefore(c.key)) {
				pending = append(pending, c.p)
			}
		}
	}
	roundConsidered := 0
	for i := range workers {
		roundConsidered += workers[i].considered
		workers[i].considered = 0
	}
	e.considered += roundConsidered
	// Feed the adaptive width: this round's candidate density is next
	// round's sizing signal.
	e.prevSpan, e.prevCands = span, roundConsidered
	if e.parStop.Load() {
		e.stop = true
	}
	sc.pending = pending
	return pending
}

// collectShard enumerates one task's matches and emits candidate triggers.
// It mirrors the sequential collector's per-match work exactly, except that
// duplicate rejection is split three ways: triggers fired in earlier
// rounds are dropped through the read-only Has probe, duplicates within
// this task through the worker's local interner (task-internal order
// equals merge order, so keeping the first occurrence is what the merge
// would do), and duplicates across tasks at the deterministic merge.
func (e *engine) collectShard(t collectTask, w *collectWorker, out *[]shardCand, deltaStart int) {
	tgd := e.sigma.TGDs[t.tgdIdx]
	fireVars := fireVarsOf(tgd, e.opts.Variant)
	if w.seen == nil {
		w.seen = logic.NewTupleInterner()
	}
	w.seen.Reset()
	yield := func(m *logic.Match) bool {
		w.considered++
		if e.opts.Interrupt != nil && !e.opts.RoundGranularInterrupt && w.considered&1023 == 0 {
			// Bound cancellation latency: poll the (concurrency-safe, see
			// Options.Interrupt) predicate and fan the verdict out through
			// the shared flag so sibling workers stop too.
			if e.parStop.Load() {
				return false
			}
			if e.opts.Interrupt() {
				e.parStop.Store(true)
				return false
			}
		}
		w.keyBuf = append(w.keyBuf[:0], int32(t.tgdIdx))
		w.keyBuf = m.AppendImageIDs(w.keyBuf, fireVars)
		if e.sc.fired.Has(w.keyBuf) {
			return true // fired in an earlier round
		}
		if _, fresh := w.seen.Intern(w.keyBuf); !fresh {
			return true // duplicate within this task
		}
		key := w.slabs.keys.Copy(w.keyBuf)
		*out = append(*out, shardCand{p: e.buildPending(tgd, t.tgdIdx, key, m, &w.slabs), key: key})
		return true
	}
	switch {
	case t.seed < 0:
		// Empty-body singleton: delegate to the unrestricted enumeration,
		// whose empty-body path yields the one empty match.
		w.matcher.MatchAllExt(tgd.Body, e.inst, -1, yield)
	case t.full:
		w.matcher.MatchShardFull(tgd.Body, e.inst, t.seed, t.lo, t.hi, yield)
	case e.compiled != nil:
		// The shared program is read-only; per-worker matchers install it
		// concurrently and keep their bindings in their own slot arrays.
		w.matcher.MatchShardProg(e.compiled.bodies[t.tgdIdx][t.seed], e.inst, deltaStart, t.lo, t.hi, yield)
	default:
		w.matcher.MatchShard(tgd.Body, e.inst, deltaStart, t.seed, t.lo, t.hi, yield)
	}
}

// fireVarsOf returns the variables whose images key a trigger's firing:
// the frontier for the semi-oblivious chase, all (sorted) body variables
// for the oblivious and restricted chases.
func fireVarsOf(t *tgds.TGD, v Variant) []int32 {
	if v == SemiOblivious {
		return t.FrontierIDs()
	}
	return t.SortedBodyVarIDs()
}
