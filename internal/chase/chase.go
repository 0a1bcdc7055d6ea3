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
	"fmt"

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
	// Interrupt, when non-nil, is polled from the run's goroutine at round
	// boundaries and periodically inside the collect and apply phases;
	// once it returns true the run stops and is reported as not
	// terminated. The multi-job scheduler sets it on every engine job,
	// polling the job's context to enforce wall-clock budgets and
	// cancellation.
	Interrupt func() bool
	// RoundGranularInterrupt confines Interrupt polling to round
	// boundaries: the mid-collect and mid-apply polls are skipped, so a
	// fired interrupt stops the run only between rounds and the result is
	// always a whole-round prefix of the derivation (never dirty, hence
	// checkpointable, and byte-identical to a MaxRounds run of the
	// observed round count). The cost is cancellation latency bounded by
	// one round instead of ~1k trigger matches; the anytime QoS tier
	// (internal/qos) accepts that trade for determinism.
	RoundGranularInterrupt bool
	// Observer, when non-nil, is the run's round-boundary hook: it sees
	// the run's statistics at every round boundary and at the run's end.
	// It runs inline on the engine goroutine, so one that blocks stalls
	// the run; see Observer for the contract. nil is the fast path (one
	// nil check per round).
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
	// serves only the apply phase, whose atom sequence the byte-identity
	// contract fixes across cache states and scratch reuse (a reset arena
	// starts block-free).
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
// Run has no error result: it panics with an error wrapping
// logic.ErrNullIDsExhausted when the input's nulls leave too few null
// ids for the nulls the run invents (Resume returns that error).
func Run(db *logic.Instance, sigma *tgds.Set, opts Options) *Result {
	// Number invented nulls after the input's own nulls, so chasing
	// an instance that already contains nulls (a decoded wire
	// snapshot, a previous chase result) never reuses the factory id —
	// and hence the identity — of an input null.
	e := newEngine(db.Clone(), sigma, opts, db.MaxNullID()+1)
	res, err := e.finish()
	if err != nil {
		panic(err)
	}
	return res
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
		switch {
		case !cs.Matches(sigma):
			// The compiler served programs for a different clause sequence;
			// using them would corrupt the run, so compile cold below.
			e.compileMisses = 1
		case hit:
			e.compiled, e.compileHits = cs, 1
		default:
			e.compiled, e.compileMisses = cs, 1
		}
	}
	if e.compiled == nil {
		e.compiled = Compile(sigma)
	}
	if opts.TrackForest {
		e.forest = newForest(e.inst.Atoms())
	}
	if opts.RecordDerivation {
		e.derivation = &Derivation{Initial: inst.Clone()}
	}
	return e
}

// finish saturates the engine's instance and assembles the result. A run
// that ran out of null ids has no result, only its error.
func (e *engine) finish() (*Result, error) {
	terminated := e.run()
	if e.err != nil {
		return nil, e.err
	}
	res := &Result{Instance: e.inst, Terminated: terminated, Forest: e.forest, Derivation: e.derivation, nulls: e.nulls}
	res.Stats = e.stats()
	if e.opts.Checkpoint && !e.dirty {
		res.Resume = &ResumeState{NextNullID: e.nulls.NextID(), DeltaStart: e.delta, Variant: e.opts.Variant}
	}
	if e.opts.Observer != nil {
		e.opts.Observer.ObserveDone(res.Stats, terminated)
	}
	return res, nil
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
	compiled   *CompiledSet // the run's programs, shared or compiled cold
	forest     *Forest
	derivation *Derivation
	initial    int

	rounds        int
	considered    int
	firedCount    int
	compileHits   int
	compileMisses int
	stop          bool // set once Options.Interrupt fires

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
	// err fails the run: a trigger's nulls would have left the null id
	// space (logic.ErrNullIDsExhausted).
	err error
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
// Rounds are the engine's barrier: collection only reads the instance, and
// the subsequent apply phase mutates it.
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
		if e.err != nil {
			return false
		}
		// The round's trigger tuples (fire keys, frontier images) are dead
		// once applied: recycle their slab blocks for the next round.
		e.sc.slabs.rewind()
		if e.opts.Observer != nil {
			e.opts.Observer.ObserveRound(e.stats())
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
			pending = append(pending, e.buildPending(t, ti, key, m))
			return true
		}
		e.sc.matcher.Match(e.compiled.bodies[ti], e.inst, ds, yield)
		if e.stop {
			break
		}
	}
	e.sc.pending = pending
	return pending
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

// buildPending assembles a fresh trigger from a live match. key is the
// full interned fire key (TGD index, then the key-variable image ids); it
// must be a copy that outlives the round (a trigger-slab copy — the
// trigger's frIDs/keyIDs alias its tail, and everything dies together at
// the round's slab rewind).
func (e *engine) buildPending(t *tgds.TGD, ti int, key []int32, m *logic.Match) pendingTrigger {
	sl := &e.sc.slabs
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
		if need := len(p.tgd.Existential()); need > logic.NullIDs-e.nulls.NextID() {
			// A fired trigger interns a fresh null per existential (a
			// restricted one may find them interned), so the factory
			// would leave the null id space: fail the run instead.
			e.err = fmt.Errorf("chase: %w: a trigger of TGD %d needs %d nulls from id %d",
				logic.ErrNullIDsExhausted, p.tgdIdx, need, e.nulls.NextID())
			break
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
	prog := e.compiled.heads[p.tgdIdx]
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
