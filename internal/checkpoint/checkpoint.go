// Package checkpoint persists a finished chase as a portable,
// wire-encodable artifact and resumes it against a base-data delta — the
// serving mode behind incremental re-chase: instead of re-running a
// chase from scratch when the database changed slightly, a service
// checkpoints the previous result and continues semi-naive iteration
// from it, re-deriving only what the delta reaches.
//
// # What a checkpoint holds
//
// A checkpoint is the closure of chase.ResumeState over everything a
// fresh process needs to rebuild it: the final instance as a wire
// snapshot (internal/wire preserves insertion order, null factory ids,
// and depths — the identities semi-naive resume depends on), the
// null-factory high-water mark, the semi-naive window start, the chase
// variant, and the ontology's identity — both the order-insensitive
// canonical fingerprint (compile.Of) and an exact clause-sequence
// digest. It holds no fired-trigger set: at a clean round boundary the
// run had considered exactly the matches inside the snapshot's first
// DeltaStart atoms, so a resumed run derives the set from the snapshot
// (see internal/chase's resume.go). Version-1 artifacts, which carried
// the set, no longer decode.
//
// The exact digest stays necessary without fired keys. The fingerprint
// cannot tell a reordered but logically identical ontology from the
// original, yet the continuation's byte identity and its canonical null
// names (⊥{TGD index...}) follow clause order: resuming against a
// reordered set would fire in another order and name nulls after other
// clause positions than the checkpointed run did. Validate rejects it.
//
// # Trust model
//
// Artifacts are integrity-checked (a truncated or bit-flipped artifact
// fails with ErrCorrupt, never a panic or a silent misdecode — the
// FuzzCheckpointRoundTrip corpus pins this) but not authenticated:
// a checkpoint is as trusted as the store it came from, exactly like a
// wire snapshot.
package checkpoint

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/logic"
	"repro/internal/tgds"
)

// Version is the artifact version this package encodes, and the only
// one Decode reads.
const Version = 2

var (
	// ErrCorrupt reports an artifact this package cannot decode: bad
	// magic, unknown version, checksum mismatch, truncated sections, or
	// contents that violate the format's invariants. It wraps the
	// specific defect and mirrors wire.ErrCorrupt (snapshot defects
	// surface wrapping both).
	ErrCorrupt = errors.New("checkpoint: corrupt artifact")
	// ErrMismatch reports a checkpoint resumed against the wrong
	// ontology: a different canonical fingerprint, or the same
	// fingerprint with a different clause sequence (the continuation's
	// byte identity and canonical null names follow clause order, so
	// even reordering breaks resume).
	ErrMismatch = errors.New("checkpoint: ontology mismatch")
	// ErrNotResumable reports a chase result that carries no resumable
	// state: Options.Checkpoint was off, or the run stopped at a dirty
	// boundary (mid-round interrupt, mid-apply budget cut).
	ErrNotResumable = errors.New("checkpoint: result is not resumable")
)

// Checkpoint is a resumable chase result: the decoded (or captured)
// instance plus everything Resume needs to continue it.
type Checkpoint struct {
	// Fingerprint is the ontology's canonical fingerprint (compile.Of):
	// order-, renaming-, and duplication-insensitive. It addresses the
	// ontology in the service registry.
	Fingerprint compile.Fingerprint
	// Exact is the ontology's exact clause-sequence digest
	// (ExactDigest): the continuation follows clause order, so resume
	// additionally requires this to match.
	Exact [sha256.Size]byte
	// Variant is the chase variant the checkpointed run used; a resume
	// is pinned to it.
	Variant chase.Variant
	// Terminated reports whether the checkpointed run reached a
	// fixpoint. A terminated checkpoint is still resumable — that is
	// the point: new base data arrives and only its consequences run.
	Terminated bool
	// Rounds is the checkpointed run's round count (its resumed rounds
	// continue the same semi-naive sequence).
	Rounds int
	// Instance is the checkpointed instance: for a decoded checkpoint,
	// the one wire snapshot the artifact carries; for a capture, the
	// run's own instance. Resume reads it and never modifies it; new
	// base atoms travel as Resume's delta argument.
	Instance *logic.Instance
	// State is the engine-level resume state.
	State *chase.ResumeState
}

// ExactDigest digests the ontology's exact clause sequence: each TGD's
// canonical rendering (tgds.TGD.Key — deterministic for a given clause)
// in set order. Unlike compile.Of it distinguishes reorderings and
// duplicates, which is exactly what a continuation whose firing order
// and null names follow clause positions needs.
func ExactDigest(sigma *tgds.Set) [sha256.Size]byte {
	h := sha256.New()
	for _, t := range sigma.TGDs {
		h.Write([]byte(t.Key()))
		h.Write([]byte{'\n'})
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Capture wraps a finished run's resumable state as a checkpoint bound
// to sigma. It fails with ErrNotResumable when the run captured none
// (Options.Checkpoint off, or a dirty stop — after a mid-round interrupt
// or mid-apply budget cut the instance no longer tells which triggers
// fired). The checkpoint aliases the result's instance and state; it
// does not copy.
func Capture(sigma *tgds.Set, res *chase.Result) (*Checkpoint, error) {
	if res == nil || res.Resume == nil {
		return nil, fmt.Errorf("%w: the run captured no resume state (Options.Checkpoint off, or a dirty stop)", ErrNotResumable)
	}
	return &Checkpoint{
		Fingerprint: compile.Of(sigma),
		Exact:       ExactDigest(sigma),
		Variant:     res.Resume.Variant,
		Terminated:  res.Terminated,
		Rounds:      res.Stats.Rounds,
		Instance:    res.Instance,
		State:       res.Resume,
	}, nil
}

// Validate checks that sigma is the ontology the checkpoint was captured
// under: same canonical fingerprint, and — because the continuation's
// byte identity and canonical null names follow each clause's position
// in the set — the same exact clause sequence. Both failures are
// ErrMismatch.
func (c *Checkpoint) Validate(sigma *tgds.Set) error {
	if fp := compile.Of(sigma); fp != c.Fingerprint {
		return fmt.Errorf("%w: checkpoint captured under ontology %s, resuming against %s", ErrMismatch, c.Fingerprint, fp)
	}
	if ExactDigest(sigma) != c.Exact {
		return fmt.Errorf("%w: same fingerprint but a different clause sequence; the continuation follows clause order, re-chase from scratch instead", ErrMismatch)
	}
	return nil
}

// Resume validates sigma against the checkpoint and continues the chase
// over it: delta atoms (if any) are injected into the resumed first
// round's semi-naive window, triggers matched inside the checkpointed
// prefix count as fired, null numbering continues from the checkpoint,
// and iteration proceeds under opts — whose Variant field is overwritten
// with the checkpoint's (the run is pinned to it). Set opts.Checkpoint
// to chain a new checkpoint off the resumed run.
func (c *Checkpoint) Resume(sigma *tgds.Set, delta []*logic.Atom, opts chase.Options) (*chase.Result, error) {
	if err := c.Validate(sigma); err != nil {
		return nil, err
	}
	opts.Variant = c.Variant
	return chase.Resume(c.Instance, delta, sigma, c.State, opts)
}
