package service

import (
	"fmt"
	"io"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/logic"
	"repro/internal/qos"
	rt "repro/internal/runtime"
	"repro/internal/tgds"
	"repro/internal/wire"
)

// Op identifies the operation a request envelope asks for.
type Op int

const (
	// OpChase materializes chase(D, Σ) (possibly budget-truncated).
	OpChase Op = iota
	// OpDecide answers a ChTrm termination question.
	OpDecide
	// OpExperiment regenerates one of the paper's experiment tables.
	OpExperiment
	// OpRegistry is ontology registration/resolution — operation-agnostic
	// registry work, named truthfully in error envelopes.
	OpRegistry
	// OpResume continues a checkpointed chase over a base-data delta
	// (DeltaRequest) — the incremental re-chase serving mode.
	OpResume
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpDecide:
		return "decide"
	case OpExperiment:
		return "experiment"
	case OpRegistry:
		return "registry"
	case OpResume:
		return "resume"
	default:
		return "chase"
	}
}

// Priority is the admission lane of a request; the type (and its
// constants) is the scheduler's, re-exported so envelope users need only
// this package.
type Priority = rt.Priority

// Re-exported lane constants.
const (
	PriorityHigh   = rt.PriorityHigh
	PriorityNormal = rt.PriorityNormal
	PriorityLow    = rt.PriorityLow
)

// RequestMeta is the admission metadata of a request: the tenant it is
// billed to (the scheduler dequeues round-robin across tenants within a
// lane, so one tenant's backlog cannot starve another's), its priority
// lane, and its QoS policy — how much chase the request gets
// (internal/qos: Exact, Bounded under the learned round bound, or
// Anytime under a deadline/round quota, plus learn-mode profiling). The
// zero value — anonymous tenant, normal priority, exact serving — is
// what the single-user CLIs submit by default.
type RequestMeta struct {
	Tenant   string
	Priority Priority
	QoS      qos.Policy
}

// jobMeta converts to the scheduler's admission metadata.
func (m RequestMeta) jobMeta() rt.JobMeta {
	return rt.JobMeta{Tenant: m.Tenant, Priority: m.Priority}
}

// ParsePriority parses a lane name ("high", "normal", "low"; "" is
// normal) as rendered by Priority.String — the form request files carry.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	case "low":
		return PriorityLow, nil
	default:
		return 0, fmt.Errorf("unknown priority %q (want high, normal, or low)", s)
	}
}

// ParseVariant parses a chase-variant name as the CLIs spell it.
func ParseVariant(s string) (chase.Variant, error) {
	switch s {
	case "", "semi", "semi-oblivious":
		return chase.SemiOblivious, nil
	case "oblivious":
		return chase.Oblivious, nil
	case "restricted", "standard":
		return chase.Restricted, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (want semi, oblivious, or restricted)", s)
	}
}

// Payload carries a database (or instance) into a request in one of two
// forms: an in-process *logic.Instance, or one portable wire snapshot
// (internal/wire). The in-process form wins when both are set.
type Payload struct {
	Instance *logic.Instance
	Snapshot []byte
}

// load materializes the payload's instance; wire payloads are decoded
// here, at admission, so malformed bytes fail the Submit synchronously
// instead of a worker.
func (p Payload) load() (*logic.Instance, error) {
	if p.Instance != nil {
		return p.Instance, nil
	}
	if p.Snapshot == nil {
		return nil, fmt.Errorf("empty payload: no instance and no snapshot")
	}
	return wire.DecodeSnapshot(p.Snapshot)
}

// OntologyRef names a request's Σ either directly (Set) or by its
// canonical compile fingerprint, under which it must have been
// registered (RegisterOntology) — the remote-worker shape, where Σ
// traveled once and jobs travel as fingerprint + database payload.
type OntologyRef struct {
	Set         *tgds.Set
	Fingerprint compile.Fingerprint
}

// ByFingerprint is the OntologyRef of a registered handle.
func ByFingerprint(fp compile.Fingerprint) OntologyRef {
	return OntologyRef{Fingerprint: fp}
}

// ChaseRequest asks for a chase materialization. The zero value is not a
// valid request: Database and Ontology must be populated.
type ChaseRequest struct {
	Meta RequestMeta
	// Name labels the job in results and diagnostics (default "chase").
	Name     string
	Database Payload
	Ontology OntologyRef
	Variant  chase.Variant
	// MaxAtoms / MaxRounds / Wall bound the run (0 = unlimited); a
	// budget-exhausted run is reported through Result.Chase.Terminated,
	// not as an error.
	MaxAtoms  int
	MaxRounds int
	Wall      time.Duration
	// Checkpoint asks the run to capture resumable state at a clean stop
	// (chase.Options.Checkpoint), so the ticket's EncodeCheckpoint can
	// emit a portable artifact a later DeltaRequest continues from. Off
	// by default.
	Checkpoint bool
}

// DeltaRequest continues a checkpointed chase over a base-data delta —
// the incremental re-chase serving shape: a client holds a checkpoint
// artifact from an earlier run (Ticket.EncodeCheckpoint), new base data
// arrives, and only its consequences are chased. The chase variant is
// pinned by the checkpoint; there is no variant knob here.
type DeltaRequest struct {
	Meta RequestMeta
	// Name labels the job (default "resume").
	Name string
	// Checkpoint is the encoded artifact (internal/checkpoint) the run
	// continues from. Decode failures are KindDecode.
	Checkpoint []byte
	// Ontology optionally names Σ explicitly (inline set or registered
	// fingerprint). When empty, the checkpoint's own fingerprint is
	// resolved through the registry — the steady-state shape: Σ was
	// registered once, checkpoints address it by identity. Either way
	// the set must match the checkpoint exactly (checkpoint.Validate);
	// a mismatch is KindBadRequest wrapping checkpoint.ErrMismatch.
	Ontology OntologyRef
	// Delta carries the new base atoms. They ride the resumed first
	// round's semi-naive window (chase.Resume), so only their
	// consequences are chased.
	Delta []*logic.Atom
	// MaxAtoms / MaxRounds / Wall bound the resumed run (0 = unlimited).
	MaxAtoms  int
	MaxRounds int
	Wall      time.Duration
	// Chain asks the resumed run to capture resumable state of its own,
	// so EncodeCheckpoint on its ticket emits a second-generation
	// artifact (checkpoints compose across cuts).
	Chain bool
}

// DecideRequest asks a ChTrm termination question. Method selects the
// procedure exactly as the chtrm tool spells it: "syntactic" (default,
// the paper's characterizations), "naive" (budgeted materialization),
// "ucq" (UCQ data-complexity procedure), or "uniform" (every-database
// termination, Σ only).
type DecideRequest struct {
	Meta     RequestMeta
	Name     string
	Database Payload // unused by "uniform"
	Ontology OntologyRef
	Method   string
	// AtomCap bounds the naive probe's materialization. Zero means no
	// cap, which only a bound |D|·f_C(Σ) small enough to materialize
	// allows; otherwise the result fails KindBadRequest, wrapping
	// core.ErrUnboundedNaive.
	AtomCap int
	Wall    time.Duration
	// Progress observes the naive probe's rounds (in-process only). It
	// runs inline on the probe's goroutine, so one that blocks stalls the
	// probe and holds its scheduler worker.
	Progress func(chase.Stats)
}

// ExperimentRequest asks for one of the paper's experiment tables.
type ExperimentRequest struct {
	Meta RequestMeta
	Name string
	// ID is the experiment identifier (e.g. "XP-DEPTH").
	ID    string
	Quick bool
	// Workers sizes the experiment's own scheduler for scheduler-backed
	// sweeps.
	Workers int
	Wall    time.Duration
	// Stream, when non-nil, receives per-trial completion events
	// (in-process only).
	Stream io.Writer
}
