// Package chase implements the chase procedure of Section 3 of the paper.
//
// The primary engine is the semi-oblivious chase: a trigger (σ, h) maps the
// body of σ into the current instance; the atoms it produces replace each
// existential variable z by the canonical null ⊥^z_{σ, h|fr(σ)}, so the
// result of a trigger depends only on the frontier restriction of h and
// every valid derivation reaches the same result chase(D, Σ). Two baseline
// variants are provided: the oblivious chase (nulls keyed by the full
// homomorphism) and the restricted (standard) chase (a trigger fires only
// if its head is not already satisfied by an extension of h|fr).
//
// Derivations are round-based and fair: every trigger active at the start
// of a round is applied (or found inactive) within that round, and
// semi-naive matching considers only homomorphisms that touch at least one
// atom from the previous round. Budgets on atoms and rounds allow callers
// to run the chase on non-terminating inputs.
package chase

import (
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/tgds"
)

// Variant selects the chase flavor.
type Variant int

const (
	// SemiOblivious is the paper's chase: one firing per (σ, h|fr(σ)).
	SemiOblivious Variant = iota
	// Oblivious fires once per (σ, h) with nulls keyed by the full h.
	Oblivious
	// Restricted fires a trigger only when its head is not satisfied.
	Restricted
)

// String returns the conventional name of the variant.
func (v Variant) String() string {
	switch v {
	case SemiOblivious:
		return "semi-oblivious"
	case Oblivious:
		return "oblivious"
	default:
		return "restricted"
	}
}

// Options configures a chase run. The zero value runs the semi-oblivious
// chase without budgets or forest tracking.
type Options struct {
	Variant Variant
	// MaxAtoms stops the run once the instance holds more than MaxAtoms
	// atoms (0 means unlimited). The run is then reported as not
	// terminated.
	MaxAtoms int
	// MaxRounds bounds the number of saturation rounds (0 = unlimited).
	MaxRounds int
	// TrackForest records the guarded chase forest (parent = image of the
	// guard atom). It requires every TGD to be guarded.
	TrackForest bool
	// RecordDerivation records the sequence of trigger applications so
	// that callers can inspect or Validate the derivation.
	RecordDerivation bool
	// NoSemiNaive disables delta-restricted matching: every round
	// re-enumerates all homomorphisms. It exists for the ablation
	// experiment and produces identical results, slower.
	NoSemiNaive bool
	// Executor, when non-nil with more than one worker, parallelizes the
	// trigger-collection phase of each semi-naive round (see parallel.go).
	// The run remains byte-identical to the sequential engine: shards are
	// merged back in (TGD index, seed atom, delta window) order before the
	// single-goroutine apply phase. internal/runtime provides the standard
	// implementation.
	Executor Executor
	// Interrupt, when non-nil, is polled at round boundaries and
	// periodically inside the collect and apply phases; once it returns
	// true the run stops and is reported as not terminated. When an
	// Executor is attached, Interrupt may be polled from worker
	// goroutines concurrently and must be safe for concurrent use. The
	// multi-job scheduler sets it on every engine job, polling the job's
	// context to enforce wall-clock budgets and cancellation.
	Interrupt func() bool
	// RoundGranularInterrupt confines Interrupt polling to round
	// boundaries: the mid-collect and mid-apply polls are skipped, so a
	// fired interrupt stops the run only between rounds and the result is
	// always a whole-round prefix of the derivation (never dirty, hence
	// checkpointable, and byte-identical to a MaxRounds run of the
	// observed round count for any worker count). The cost is cancellation
	// latency bounded by one round instead of ~1k trigger matches; the
	// anytime QoS tier (internal/qos) accepts that trade for determinism.
	RoundGranularInterrupt bool
	// Progress, when non-nil, is invoked from the engine goroutine at every
	// round boundary — the same barrier at which Interrupt is polled — with
	// the run's statistics so far (the final round included). The engine
	// calls it inline between the apply phase and the next round's
	// collection, so a callback that blocks stalls the run: direct console
	// diagnostics (chtrm's -stream probe) accept that, while the streaming
	// scheduler (internal/runtime's Scheduler) decouples consumers through
	// per-job latest-wins channels so a slow consumer throttles nothing.
	Progress func(Stats)
	// Observer, when non-nil, passively observes the run — every round
	// boundary (right after Progress) and the run's end — so serving
	// layers can meter rounds, derived atoms, and per-round trace spans
	// without the engine knowing about telemetry. See Observer for the
	// contract; nil is the fast path (one nil check per round).
	Observer Observer
	// Scratch, when non-nil, supplies the run's reusable allocation state
	// (matcher buffers, atom arena, trigger slabs, fired-key interner) so
	// long-lived callers amortize it across jobs; see Scratch. A run
	// without one allocates a private scratch. A Scratch must never be
	// shared by two concurrent runs — the runtime Scheduler owns one per
	// worker goroutine. Results are byte-identical with and without it.
	Scratch *Scratch
	// Compile, when non-nil, supplies the run's compiled per-TGD programs
	// (head programs and per-seed body programs) instead of compiling them
	// inside the run; internal/compile.Cache implements it as a
	// cross-request cache. The run records whether the fetch was a cache
	// hit in Stats.CompileHits/CompileMisses and is byte-identical either
	// way. A set that fails the CompiledSet.Matches safety check is
	// discarded (counted as a miss) and the run compiles cold.
	Compile Compiler
	// Checkpoint requests that the run's resumable state — the null
	// factory's high-water mark and the unprocessed delta window — be
	// captured into Result.Resume when the run ends at a clean round
	// boundary (terminated, MaxRounds, or an interrupt between rounds),
	// where a resume can derive the fired-trigger set from the instance.
	// A run stopped mid-round (the MaxAtoms break inside the apply phase,
	// an interrupt inside collect or apply) has triggers interned but
	// never applied, so no state is captured and Result.Resume stays nil.
	Checkpoint bool
}

// Stats aggregates counters of a run.
type Stats struct {
	InitialAtoms       int
	Atoms              int
	Rounds             int
	TriggersConsidered int
	TriggersFired      int
	Nulls              int
	MaxDepth           int
	// CompileHits and CompileMisses count the run's fetches of compiled
	// programs through Options.Compile: at most one fetch per run, so the
	// pair is (1, 0) for a warm cache, (0, 1) for a cold one, and (0, 0)
	// when no Compiler was attached. They describe cache behavior, not the
	// chase itself — every other field is identical between a hit and a
	// miss run.
	CompileHits   int
	CompileMisses int
	// ArenaBlocks counts the heap blocks the run's atom arena allocated —
	// the instrumentation for the slab-allocated hot path (chase -stats
	// surfaces it). Like every other field it is deterministic: the arena
	// serves only the single-goroutine apply phase, whose atom sequence
	// the byte-identity contract fixes across worker counts, cache
	// states, and scratch reuse (a reset arena starts block-free).
	ArenaBlocks int
}

// Result is the outcome of a chase run.
type Result struct {
	// Instance is the constructed instance (the full chase(D, Σ) when
	// Terminated is true, a prefix otherwise).
	Instance *logic.Instance
	// Terminated reports whether a fixpoint was reached within budget.
	Terminated bool
	Stats      Stats
	// Forest is non-nil when Options.TrackForest was set.
	Forest *Forest
	// Derivation is non-nil when Options.RecordDerivation was set.
	Derivation *Derivation
	// Resume is the run's captured resumable state: non-nil exactly when
	// Options.Checkpoint was set and the run ended at a clean round
	// boundary (see Options.Checkpoint). internal/checkpoint persists it.
	Resume *ResumeState

	// nulls is the run's own factory — the nulls it invented, with their
	// naming tuples — retained for NullNames.
	nulls *logic.NullFactory
}

// MaxDepth returns maxdepth(D, Σ) for the constructed prefix.
func (r *Result) MaxDepth() int { return r.Stats.MaxDepth }

// Run chases the database db with the TGD set sigma under the given
// options and returns the result. The input instance is not modified.
func Run(db *logic.Instance, sigma *tgds.Set, opts Options) *Result {
	// Number invented nulls after the input's own nulls, so chasing
	// an instance that already contains nulls (a decoded wire
	// snapshot, a previous chase result) never reuses a
	// factory-local id — and hence a Key — an input null carries.
	e := newEngine(db.Clone(), sigma, opts, db.MaxNullID()+1)
	return e.finish()
}

// newEngine readies an engine over inst (which the engine owns and
// mutates) with nulls numbered from nullBase. Both Run and Resume build
// through it, so compile fetching, forest rooting, and derivation
// recording behave identically on the two paths.
func newEngine(inst *logic.Instance, sigma *tgds.Set, opts Options, nullBase int) *engine {
	sc := opts.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	sc.begin()
	e := &engine{
		sigma:   sigma,
		opts:    opts,
		inst:    inst,
		nulls:   logic.NewNullFactoryAt(nullBase),
		sc:      sc,
		initial: inst.Len(),
	}
	if opts.Compile != nil {
		cs, hit := opts.Compile.CompiledChase(sigma)
		if cs.Matches(sigma) {
			e.compiled = cs
			if hit {
				e.compileHits = 1
			} else {
				e.compileMisses = 1
			}
		} else {
			// The compiler served programs for a different clause sequence;
			// using them would corrupt the run, so compile cold instead.
			e.compileMisses = 1
		}
	}
	if opts.TrackForest {
		e.forest = newForest(e.inst.Atoms())
	}
	if opts.RecordDerivation {
		e.derivation = &Derivation{Initial: inst.Clone()}
	}
	return e
}

// finish saturates the engine's instance and assembles the result.
func (e *engine) finish() *Result {
	terminated := e.run()
	res := &Result{Instance: e.inst, Terminated: terminated, Forest: e.forest, Derivation: e.derivation, nulls: e.nulls}
	res.Stats = e.stats()
	if e.opts.Checkpoint && !e.dirty {
		res.Resume = &ResumeState{NextNullID: e.nulls.NextID(), DeltaStart: e.delta, Variant: e.opts.Variant}
	}
	if e.opts.Observer != nil {
		e.opts.Observer.ObserveDone(res.Stats, terminated)
	}
	return res
}

type pendingTrigger struct {
	tgd *tgds.TGD
	// tgdIdx is the TGD's index within the run's Set; trigger and null
	// keys use it (rather than the mutable TGD.ID) as the TGD component.
	tgdIdx int
	// frImgs and frIDs are the images of the TGD's frontier variables and
	// their interned ids (aligned with Frontier()); the frontier
	// restriction h|fr as flat slices instead of a map.
	frImgs []logic.Term
	frIDs  []int32
	// keyIDs are the interned ids of the images of the trigger's null-key
	// variables: frIDs for the semi-oblivious and restricted chases (the
	// slice is shared), all body variables (sorted) for the oblivious
	// chase.
	keyIDs []int32
	guard  *logic.Atom // image of the guard (forest tracking)
}

// frontierSub materializes h|fr as a Substitution.
func (p pendingTrigger) frontierSub() logic.Substitution {
	mu := make(logic.Substitution, len(p.frImgs))
	for i, x := range p.tgd.Frontier() {
		mu[x] = p.frImgs[i]
	}
	return mu
}

type engine struct {
	sigma *tgds.Set
	opts  Options
	inst  *logic.Instance
	nulls *logic.NullFactory
	// sc holds the run's reusable allocation state — the fired-trigger
	// interner, matcher, atom arena, trigger slabs, and work buffers —
	// either private to this run or pooled by the caller (Options.Scratch).
	sc         *Scratch
	heads      [][]headAtom // per-TGD compiled head programs, by TGD id
	compiled   *CompiledSet // shared precompiled programs (nil: compile lazily)
	forest     *Forest
	derivation *Derivation
	initial    int

	rounds        int
	considered    int
	firedCount    int
	compileHits   int
	compileMisses int
	// prevSpan and prevCands feed the adaptive shard sizing: the previous
	// parallel round's delta span and candidate count (both deterministic),
	// from which collectParallel derives the next round's window width.
	prevSpan  int
	prevCands int
	stop      bool        // set once Options.Interrupt fires
	parStop   atomic.Bool // interrupt verdict shared with collect workers

	// delta is where the current semi-naive window begins: 0 for a fresh
	// run, the checkpoint's recorded window start for a resumed one. run
	// advances it each round; at a clean exit it marks where an unseen
	// suffix (if any) starts, which is what checkpoint capture records.
	delta int
	// prefix is a resumed run's checkpointed prefix length, whose
	// matches count as fired (firedBefore); 0 for a fresh run.
	prefix int
	// resumed disables the first round's full enumeration: a resumed run's
	// round 1 is a semi-naive continuation over [delta, len), not a fresh
	// start.
	resumed bool
	// dirty records a mid-round stop (MaxAtoms break or interrupt inside
	// collect/apply): triggers were interned into the fired set but their
	// atoms never applied, so the state is not a whole-round prefix and
	// must not be checkpointed.
	dirty bool
}

// interrupted polls Options.Interrupt and latches the result.
func (e *engine) interrupted() bool {
	if !e.stop && e.opts.Interrupt != nil && e.opts.Interrupt() {
		e.stop = true
	}
	return e.stop
}

func (e *engine) stats() Stats {
	return Stats{
		InitialAtoms:       e.initial,
		Atoms:              e.inst.Len(),
		Rounds:             e.rounds,
		TriggersConsidered: e.considered,
		TriggersFired:      e.firedCount,
		Nulls:              e.nulls.Len(),
		MaxDepth:           e.nulls.MaxDepth(),
		CompileHits:        e.compileHits,
		CompileMisses:      e.compileMisses,
		ArenaBlocks:        e.sc.arena.Blocks(),
	}
}

// run saturates the instance; it returns true when a fixpoint was reached.
// Rounds are the engine's barrier: collection (possibly sharded across an
// Executor's workers) only reads the instance, and the subsequent apply
// phase mutates it from this goroutine alone.
func (e *engine) run() bool {
	for {
		if e.interrupted() {
			return false
		}
		if e.opts.MaxRounds > 0 && e.rounds >= e.opts.MaxRounds {
			return false
		}
		e.rounds++
		pending := e.collect(e.delta)
		if e.stop {
			// Interrupted mid-collection: discard the partial round so the
			// result is a whole-round prefix of the derivation. The fired
			// set already holds part of the round's keys, so the state is
			// not resumable.
			e.dirty = true
			return false
		}
		e.delta = e.inst.Len()
		added := e.apply(pending)
		// The round's trigger tuples (fire keys, frontier images) are dead
		// once applied: recycle their slab blocks for the next round.
		e.sc.slabs.rewind()
		for i := range e.sc.workers {
			e.sc.workers[i].slabs.rewind()
		}
		if e.opts.Progress != nil || e.opts.Observer != nil {
			st := e.stats()
			if e.opts.Progress != nil {
				e.opts.Progress(st)
			}
			if e.opts.Observer != nil {
				e.opts.Observer.ObserveRound(st)
			}
		}
		if e.stop {
			return false
		}
		if added == 0 {
			return true
		}
		if e.opts.MaxAtoms > 0 && e.inst.Len() > e.opts.MaxAtoms {
			return false
		}
	}
}

// collect gathers the triggers of this round. In the first round all
// homomorphisms are considered; afterwards only those touching the delta.
// Trigger identity is an interned integer tuple (TGD id, key-variable
// image ids), so duplicate triggers are rejected without materializing a
// substitution or building a string key.
func (e *engine) collect(deltaStart int) []pendingTrigger {
	ds := deltaStart
	if (e.rounds == 1 && !e.resumed) || e.opts.NoSemiNaive {
		// A fresh run's first round enumerates the whole instance; a
		// resumed run's first round is a semi-naive continuation over the
		// checkpoint's recorded window (every homomorphism inside the
		// prefix was considered before the checkpoint).
		ds = -1
	}
	if e.opts.Executor != nil && e.opts.Executor.Workers() > 1 && !e.opts.NoSemiNaive {
		// Semi-naive rounds shard the (TGD, seed, delta window) task
		// space; round 1 (ds < 0) shards the full enumeration on the
		// join-start atom's windows. NoSemiNaive stays sequential: the
		// ablation re-enumerates everything each round by design.
		return e.collectParallel(ds)
	}
	pending := e.sc.pending[:0]
	for ti, t := range e.sigma.TGDs {
		ti, t := ti, t
		// Fire at most once per frontier assignment for the semi-oblivious
		// chase, per full homomorphism for the oblivious and restricted
		// chases. Keys and caches are indexed by the TGD's position in
		// this run's set, not TGD.ID: the ID field is mutated by any
		// Set.Add a shared *TGD later participates in.
		fireVars := fireVarsOf(t, e.opts.Variant)
		yield := func(m *logic.Match) bool {
			e.considered++
			if e.opts.Interrupt != nil && !e.opts.RoundGranularInterrupt && e.considered&1023 == 0 && e.interrupted() {
				return false // bound how far a cancelled run overshoots
			}
			e.sc.keyBuf = append(e.sc.keyBuf[:0], int32(ti))
			e.sc.keyBuf = m.AppendImageIDs(e.sc.keyBuf, fireVars)
			if _, fresh := e.sc.fired.Intern(e.sc.keyBuf); !fresh || e.prefix > 0 && e.firedBefore(e.sc.keyBuf) {
				return true
			}
			key := e.sc.slabs.keys.Copy(e.sc.keyBuf)
			pending = append(pending, e.buildPending(t, ti, key, m, &e.sc.slabs))
			return true
		}
		if ds >= 0 && e.compiled != nil {
			// Shared precompiled per-seed body programs; enumeration order
			// is identical to the fresh compile (logic.BodyProgram).
			e.sc.matcher.MatchAllProgs(e.compiled.bodies[ti], e.inst, ds, yield)
		} else {
			// Round 1 and NoSemiNaive enumerate the full instance; that
			// join order is chosen per instance, so it is never cached.
			e.sc.matcher.MatchAllExt(t.Body, e.inst, ds, yield)
		}
		if e.stop {
			break
		}
	}
	e.sc.pending = pending
	return pending
}

// buildPending assembles a fresh trigger from a live match. key is the
// full interned fire key (TGD index, then the key-variable image ids); it
// must be a copy that outlives the round (a trigger-slab copy — the
// trigger's frIDs/keyIDs alias its tail, and everything dies together at
// the round's slab rewind). sl is the caller's trigger slabs: the
// engine's own for the sequential collector, the worker slot's for a
// parallel shard. Both collectors build their triggers here, which is
// what keeps the two byte-identical per match.
func (e *engine) buildPending(t *tgds.TGD, ti int, key []int32, m *logic.Match, sl *trigSlabs) pendingTrigger {
	frVars := t.FrontierIDs()
	p := pendingTrigger{
		tgd:    t,
		tgdIdx: ti,
		frImgs: m.AppendImageTerms(sl.terms.Buf(len(frVars)), frVars),
	}
	switch e.opts.Variant {
	case SemiOblivious:
		// The fire key is (TGD id, frontier image ids): its tail is exactly
		// frIDs.
		p.frIDs = key[1:]
		p.keyIDs = p.frIDs
	case Oblivious:
		// The null key must capture the full homomorphism; the fire key's
		// tail is exactly those sorted body-variable images.
		p.frIDs = m.AppendImageIDs(sl.keys.Buf(len(frVars)), frVars)
		p.keyIDs = key[1:]
	default: // Restricted: fires per full homomorphism, nulls per frontier.
		p.frIDs = m.AppendImageIDs(sl.keys.Buf(len(frVars)), frVars)
		p.keyIDs = p.frIDs
	}
	if e.forest != nil {
		p.guard = e.inst.Canonical(m.Substitution().ApplyAtom(t.Guard()))
	}
	return p
}

// apply fires the pending triggers sequentially and returns the number of
// atoms added. For the restricted variant, each trigger's head
// satisfaction is re-checked against the current instance, so the run is a
// valid (fair) restricted derivation.
func (e *engine) apply(pending []pendingTrigger) int {
	added := 0
	for pi, p := range pending {
		if e.opts.MaxAtoms > 0 && e.inst.Len() > e.opts.MaxAtoms {
			// Triggers pending[pi:] stay interned in the fired set but
			// never fire: the round is cut mid-way, so the state is not a
			// whole-round prefix and cannot be checkpointed.
			e.dirty = true
			break
		}
		if e.opts.Interrupt != nil && !e.opts.RoundGranularInterrupt && pi&255 == 255 && e.interrupted() {
			e.dirty = true
			break
		}
		if e.opts.Variant == Restricted && e.headSatisfied(p) {
			continue
		}
		atoms := e.instantiateHead(p)
		fired := false
		// produced is only materialized when a derivation is recorded —
		// Step.Produced is its sole consumer, and the append per fired
		// trigger would otherwise be pure garbage on the hot path.
		var produced []*logic.Atom
		for _, a := range atoms {
			if e.inst.Add(a) {
				added++
				fired = true
				if e.derivation != nil {
					produced = append(produced, a)
				}
				if e.forest != nil {
					e.forest.setParent(a, p.guard)
				}
			}
		}
		if fired {
			e.firedCount++
		}
		if e.derivation != nil && fired {
			e.derivation.Steps = append(e.derivation.Steps, Step{
				TGD:      p.tgd,
				Frontier: p.frontierSub(),
				Produced: produced,
			})
		}
	}
	return added
}

// headSatisfied reports whether some extension of h|fr maps the head into
// the instance (the restricted chase's activity test).
func (e *engine) headSatisfied(p pendingTrigger) bool {
	return logic.ExtendOne(p.tgd.Head, e.inst, p.frontierSub()) != nil
}

// Head instantiation is precompiled per TGD: every head-atom argument is
// either a ground term of the TGD, the image of the fi-th frontier
// variable, or the null invented for the zi-th existential variable. The
// apply loop then assembles result(σ, h) by copying terms and their
// already-interned ids — no substitution map, no re-interning.
const (
	headGround   = iota // emit the TGD's own term
	headFrontier        // emit the image of frontier variable #idx
	headNull            // emit the null for existential variable #idx
)

type headArg struct {
	src  int8
	idx  int32      // frontier or existential index
	term logic.Term // ground term
	id   int32      // ground term id
}

type headAtom struct {
	pred logic.Predicate
	pid  int32
	args []headArg
}

func compileHead(t *tgds.TGD) []headAtom {
	frIDs := t.FrontierIDs()
	exIDs := make([]int32, len(t.Existential()))
	for i, z := range t.Existential() {
		exIDs[i] = logic.IDOf(z)
	}
	prog := make([]headAtom, len(t.Head))
	for ai, a := range t.Head {
		ha := headAtom{pred: a.Pred, pid: a.PredID(), args: make([]headArg, len(a.Args))}
		for i, trm := range a.Args {
			id := a.ArgID(i)
			if id >= 0 {
				ha.args[i] = headArg{src: headGround, term: trm, id: id}
			} else if fi := indexOf32(frIDs, id); fi >= 0 {
				ha.args[i] = headArg{src: headFrontier, idx: int32(fi)}
			} else {
				// A head variable is frontier or existential by definition.
				ha.args[i] = headArg{src: headNull, idx: int32(indexOf32(exIDs, id))}
			}
		}
		prog[ai] = ha
	}
	return prog
}

func indexOf32(ids []int32, id int32) int {
	for i, x := range ids {
		if x == id {
			return i
		}
	}
	return -1
}

// instantiateHead computes result(σ, h): head atoms with frontier
// variables replaced by their images and existential variables by
// canonical nulls. The canonical name ⊥^z_{σ, h|fr(σ)} (or the oblivious
// ⊥^z_{σ, h}) is realized as the interned integer tuple (TGD id,
// existential index, key-variable image ids).
func (e *engine) instantiateHead(p pendingTrigger) []*logic.Atom {
	var prog []headAtom
	if e.compiled != nil {
		prog = e.compiled.heads[p.tgdIdx]
	} else {
		if e.heads == nil {
			e.heads = make([][]headAtom, len(e.sigma.TGDs))
		}
		prog = e.heads[p.tgdIdx]
		if prog == nil {
			prog = compileHead(p.tgd)
			e.heads[p.tgdIdx] = prog
		}
	}
	depth := 1
	for _, t := range p.frImgs {
		if d := logic.TermDepth(t); d+1 > depth {
			depth = d + 1
		}
	}
	sc := e.sc
	sc.nullBuf = sc.nullBuf[:0]
	for zi := range p.tgd.Existential() {
		sc.keyBuf = append(sc.keyBuf[:0], int32(p.tgdIdx), int32(zi))
		sc.keyBuf = append(sc.keyBuf, p.keyIDs...)
		n, _ := e.nulls.InternTuple(sc.keyBuf, depth)
		sc.nullBuf = append(sc.nullBuf, n)
	}
	// The atoms come from the arena (args and ids are copied into its
	// blocks), the output slice is the scratch's reusable buffer: apply
	// consumes it before the next trigger is instantiated.
	out := sc.headBuf[:0]
	for _, ha := range prog {
		args := sc.argBuf[:0]
		ids := sc.idBuf[:0]
		for _, op := range ha.args {
			switch op.src {
			case headGround:
				args = append(args, op.term)
				ids = append(ids, op.id)
			case headFrontier:
				args = append(args, p.frImgs[op.idx])
				ids = append(ids, p.frIDs[op.idx])
			default:
				n := sc.nullBuf[op.idx]
				args = append(args, n)
				ids = append(ids, logic.IDOf(n))
			}
		}
		out = append(out, sc.arena.NewAtomFromIDs(ha.pred, args, ha.pid, ids))
		sc.argBuf, sc.idBuf = args, ids
	}
	sc.headBuf = out
	return out
}
