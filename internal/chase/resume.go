package chase

// Incremental re-chase: a finished run's resumable state (ResumeState)
// and the Resume entry point that continues semi-naive iteration from it
// after a base-data delta, instead of re-chasing from scratch.
//
// The state a resumed run needs is two numbers the engine already
// maintains: the null factory's high-water mark (so new nulls never
// reuse the factory id, and hence the identity, of a checkpointed null —
// the NewNullFactoryAt discipline), and the instance length
// where the last unprocessed semi-naive window begins (so a checkpoint
// taken mid-saturation continues with the window its next round would
// have used). The delta atoms a caller injects land after the
// checkpointed atoms in insertion order, so they fall inside the resumed
// first round's window automatically.
//
// The fired-trigger set needs no state: at a clean round boundary the
// run has considered exactly the matches inside the prefix
// P = I[0:DeltaStart), so a resumed run counts a fire key it has not
// seen yet as fired iff some match inside P carries its images
// (firedBefore). Old triggers thus stay fired — for the semi-oblivious
// and oblivious chases that is what makes the result agree with the
// full re-chase, and for the restricted chase what keeps the derivation
// fair.
//
// Equivalence contract, verified by internal/checkpoint's differential
// suite: resuming with an empty delta reproduces the original final
// instance byte-identically (same insertion order, same CanonicalKey,
// same null ids); resuming after a delta agrees with the full re-chase
// of the merged database up to canonical null naming (NullNames /
// CanonicalForm) for the order-insensitive variants, and up to
// homomorphic equivalence for the restricted chase, whose firing is
// order-sensitive.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/logic"
	"repro/internal/tgds"
)

// ResumeState is the engine-level resumable state of a run that ended at
// a clean round boundary (Options.Checkpoint). It holds no symbol ids, so
// it means the same in any process that holds the same instance;
// internal/checkpoint owns the portable, wire-encodable form.
type ResumeState struct {
	// NextNullID is the run's null-factory high-water mark: the first
	// factory-local id a resumed run may assign. It can exceed the
	// largest null id in the instance — a trigger whose atoms were all
	// duplicates still interned its nulls.
	NextNullID int
	// DeltaStart is the instance length at which the run's unprocessed
	// semi-naive window begins: the run's final length when it
	// terminated (empty window), the start of the last round's additions
	// when it stopped on MaxRounds. The atoms before it are the prefix
	// whose matches the run has considered.
	DeltaStart int
	// Variant is the run's chase variant. Fire keys are variant-specific
	// (frontier images vs full homomorphism), so a resume must use the
	// same variant.
	Variant Variant
}

// ErrDeltaNull reports a resume delta atom that carries a null. A null is
// its factory id, and a delta's nulls come from another factory than
// base's, so such a null would be whichever base or invented null shares
// its id. A delta is base data, which holds no nulls: parsed facts
// cannot.
var ErrDeltaNull = errors.New("chase: resume delta carries a null")

// CheckDelta returns ErrDeltaNull, naming the atom, when a delta atom
// carries a null.
func CheckDelta(delta []*logic.Atom) error {
	for _, a := range delta {
		for _, t := range a.Args {
			if _, ok := t.(*logic.Null); ok {
				return fmt.Errorf("%w: %v", ErrDeltaNull, a)
			}
		}
	}
	return nil
}

// Resume continues a chase from a captured ResumeState: base is the
// checkpointed instance, delta the base-data atoms added since (they are
// appended to a clone of base, so they land inside the resumed first
// round's semi-naive window). A delta atom that carries a null fails
// CheckDelta. Triggers whose matches lie inside base's first
// st.DeltaStart atoms count as fired, new nulls are numbered from
// st.NextNullID (or above base's own nulls, whichever is higher), and
// iteration proceeds exactly as Run's would have: budgets, scratch
// pooling, compile cache, forest and derivation tracking all apply
// unchanged. Stats count the resumed rounds only. A run whose nulls would
// leave the null id space fails with an error wrapping
// logic.ErrNullIDsExhausted.
//
// opts.Variant must equal st.Variant — fire keys mean different things
// per variant — and a resumed run may itself set Options.Checkpoint,
// chaining checkpoints. The inputs are not modified.
func Resume(base *logic.Instance, delta []*logic.Atom, sigma *tgds.Set, st *ResumeState, opts Options) (*Result, error) {
	if st == nil {
		return nil, fmt.Errorf("chase: resume without a resume state")
	}
	if err := CheckDelta(delta); err != nil {
		return nil, err
	}
	if opts.Variant != st.Variant {
		return nil, fmt.Errorf("chase: resume under the %v chase, state captured from the %v chase", opts.Variant, st.Variant)
	}
	if st.DeltaStart < 0 || st.DeltaStart > base.Len() {
		return nil, fmt.Errorf("chase: resume window starts at %d, instance holds %d atoms", st.DeltaStart, base.Len())
	}
	inst := base.Clone()
	for _, a := range delta {
		inst.Add(a)
	}
	e := newEngine(inst, sigma, opts, max(st.NextNullID, inst.MaxNullID()+1))
	e.resumed = true
	e.delta = st.DeltaStart
	e.prefix = st.DeltaStart
	return e.finish()
}

// firedBefore reports whether the checkpointed prefix of a resumed run
// fired the trigger with this fire key (TGD index, then key-variable
// image ids), which the run has just interned for the first time. It is
// one search bounded to inst[0:prefix) with the key's images pre-bound:
// for the semi-oblivious chase the paper's (σ, h|fr) identity, for the
// oblivious and restricted chases a membership probe. The collector
// calls it after a fresh intern when prefix > 0; a fresh run never does.
func (e *engine) firedBefore(key []int32) bool {
	ti := key[0]
	return e.sc.prefix.ExistsBefore(e.compiled.bodies[ti], e.inst, e.prefix, fireVarsOf(e.sigma.TGDs[ti], e.opts.Variant), key[1:])
}

// NullNames assigns every null this run invented its canonical,
// run-independent name: the paper's ⊥^z_{σ, h|fr} identity, rendered by
// expanding the null's interning tuple (TGD index, existential index,
// key-variable image ids) with constants under their keys and earlier
// nulls under their own canonical names. Two runs that fire the same
// triggers in any order assign the same names, which is what lets the
// differential suite compare a resumed chase against a full re-chase
// whose factory-local null ids differ.
//
// base carries the names of nulls that predate this run (the checkpointed
// run's names, for a resumed result); the returned map extends it. Nulls
// in the run's input that appear in no map render under their factory
// Key, so callers comparing two results must thread base maps for every
// ancestor run.
type NullNames map[int32]string

// NullNames computes the canonical names of the run's invented nulls,
// extending base (which may be nil). Keys are interned symbol ids
// (logic.IDOf of the null).
func (r *Result) NullNames(base NullNames) NullNames {
	out := make(NullNames, len(base)+16)
	for id, name := range base {
		out[id] = name
	}
	if r.nulls == nil {
		return out
	}
	// Creation order means a null's key-image nulls (strictly older) are
	// already named when it is visited — within this run via out, across
	// runs via base.
	r.nulls.EachTupleNull(func(n *logic.Null, tuple []int32) {
		out[logic.IDOf(n)] = canonicalNullName(tuple, out)
	})
	return out
}

// canonicalNullName renders one interning tuple. tuple[0] is the TGD
// index, tuple[1] the existential index, the rest key-variable image ids.
func canonicalNullName(tuple []int32, names NullNames) string {
	var b strings.Builder
	b.WriteString("⊥{")
	b.WriteString(strconv.Itoa(int(tuple[0])))
	b.WriteByte('.')
	b.WriteString(strconv.Itoa(int(tuple[1])))
	for _, id := range tuple[2:] {
		b.WriteByte('|')
		switch {
		case names[id] != "":
			b.WriteString(names[id])
		case logic.TermOfID(id) != nil:
			b.WriteString(logic.TermOfID(id).Key())
		default:
			// A null with no name in any threaded map: fall back to the
			// symbol id, which is stable within the process at least.
			b.WriteString("null:")
			b.WriteString(strconv.Itoa(int(id)))
		}
	}
	b.WriteByte('}')
	return b.String()
}

// CanonicalForm renders the instance as a sorted atom-key listing with
// every named null replaced by its canonical name — an instance identity
// that is independent of factory-local null numbering, hence of the
// order triggers fired in. Two instances are equal chase results up to
// null renaming iff their canonical forms (under complete name maps) are
// equal.
func CanonicalForm(in *logic.Instance, names NullNames) string {
	keys := make([]string, in.Len())
	for i, a := range in.Atoms() {
		var b strings.Builder
		b.WriteString(a.Pred.Name)
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(a.Pred.Arity))
		for _, t := range a.Args {
			b.WriteByte('(')
			if n, ok := t.(*logic.Null); ok {
				if name := names[logic.IDOf(n)]; name != "" {
					b.WriteString(name)
				} else {
					b.WriteString(n.Key())
				}
			} else {
				b.WriteString(t.Key())
			}
			b.WriteByte(')')
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}
