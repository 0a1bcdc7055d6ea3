// Package qos is the serving tier's quality-of-service policy layer: it
// decides how much chase each request gets. The paper's central hazard
// is non-uniform termination — whether the chase halts depends on the
// database, not the ontology alone — so a serving system cannot promise
// a latency bound from Σ. This package turns that hazard into a latency
// SLO with the production idiom of PDQ's BoundedChaser/KTerminationChaser:
// chase a reference instance to termination once, record the observed
// round count k as a LearnedBound next to the compile-cache entry, and
// serve subsequent requests under that budget.
//
// Three modes. Exact is today's behavior: run to fixpoint under whatever
// explicit budgets the request carries. Bounded serves under the learned
// round bound for the request's (fingerprint, variant), failing fast
// with ErrNoLearnedBound when none was profiled. Anytime serves whatever
// rounds fit a deadline (or an explicit round quota), stopping only at
// round boundaries (chase.Options.RoundGranularInterrupt) so the result
// is a whole-round prefix — deterministic, and byte-identical in process
// and across the fleet. Learning rides on any exact run: Policy.Learn attaches a
// Recorder that stores the observed bound when the run finishes.
//
// The internal/service layer resolves a request's Policy into a Decision
// via Apply, folds rejections into its error taxonomy, and names the
// budget that stopped a truncated run (Decision.TruncationSource) in the
// CLI's "% truncated" marker. Learned bounds ship to cold fleet workers
// alongside the ontology pull via EncodeBounds/DecodeBounds.
package qos

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
)

// ErrNoLearnedBound reports a Bounded-mode request for an (ontology,
// variant) pair that was never profiled. It is wrap-checkable through
// the service error taxonomy: errors.Is(err, qos.ErrNoLearnedBound)
// holds on the *service.Error a rejected submission returns.
var ErrNoLearnedBound = errors.New("no learned bound")

// Mode selects the serving policy for one request.
type Mode int

const (
	// Exact runs the chase to fixpoint under the request's explicit
	// budgets — the pre-QoS behavior and the zero value.
	Exact Mode = iota
	// Bounded serves under the learned round bound for the request's
	// (fingerprint, variant); absent a bound the request is rejected
	// with ErrNoLearnedBound.
	Bounded
	// Anytime serves whatever whole rounds fit the policy's deadline
	// and/or round quota, with a deterministic truncation marker.
	Anytime
)

// String returns the mode's wire and CLI name.
func (m Mode) String() string {
	switch m {
	case Bounded:
		return "bounded"
	case Anytime:
		return "anytime"
	default:
		return "exact"
	}
}

// Source names the budget that stopped a truncated run — the vocabulary
// of the CLI's "% truncated: <source> budget exhausted" marker.
type Source int

const (
	// SourceFlag is an explicit request budget: the request's MaxAtoms
	// (chase -max-atoms), MaxRounds or Wall.
	SourceFlag Source = iota
	// SourceDeadline is the anytime policy's budget — the wall deadline
	// or its explicit round quota.
	SourceDeadline
	// SourceLearnedBound is the bounded policy's learned round count.
	SourceLearnedBound
)

// String returns the source's marker name.
func (s Source) String() string {
	switch s {
	case SourceDeadline:
		return "deadline"
	case SourceLearnedBound:
		return "learned-bound"
	default:
		return "flag"
	}
}

// Policy is a request's QoS ask. The zero value is Exact with no
// learning — byte-for-byte today's behavior.
type Policy struct {
	Mode Mode
	// Deadline is the anytime wall budget (Anytime mode only).
	Deadline time.Duration
	// Rounds is the anytime round quota (Anytime mode only): serve at
	// most this many rounds. A fixed quota is the deterministic form of
	// anytime — tests and goldens use it because a wall deadline's
	// observed round count depends on machine speed.
	Rounds int
	// Learn profiles this run: when it finishes, the observed round and
	// atom counts are stored as the (fingerprint, variant) learned bound.
	// Only meaningful with Exact — a budget-truncated learn records the
	// prefix with Observed=false.
	Learn bool
}

// IsZero reports whether the policy is the default (exact, no learning).
func (p Policy) IsZero() bool { return p == Policy{} }

// String renders the policy in Parse's grammar.
func (p Policy) String() string {
	switch p.Mode {
	case Bounded:
		return "bounded"
	case Anytime:
		var parts []string
		if p.Deadline > 0 {
			parts = append(parts, p.Deadline.String())
		}
		if p.Rounds > 0 {
			parts = append(parts, strconv.Itoa(p.Rounds)+"r")
		}
		return "anytime:" + strings.Join(parts, ",")
	default:
		if p.Learn {
			return "learn"
		}
		return "exact"
	}
}

// Parse parses the CLI and request-file policy grammar:
//
//	""            exact (the default)
//	"exact"       exact
//	"learn"       exact, storing the learned bound when the run finishes
//	"bounded"     serve under the learned bound
//	"anytime:SPEC" anytime; SPEC is a deadline ("250ms"), a round quota
//	              ("3r"), or both comma-separated ("250ms,3r")
func Parse(s string) (Policy, error) {
	switch s {
	case "", "exact":
		return Policy{}, nil
	case "learn":
		return Policy{Learn: true}, nil
	case "bounded":
		return Policy{Mode: Bounded}, nil
	}
	spec, ok := strings.CutPrefix(s, "anytime:")
	if !ok || spec == "" {
		return Policy{}, fmt.Errorf("unknown QoS policy %q (want exact, learn, bounded, or anytime:<deadline>[,<k>r])", s)
	}
	p := Policy{Mode: Anytime}
	for _, part := range strings.Split(spec, ",") {
		if n, found := strings.CutSuffix(part, "r"); found {
			if k, err := strconv.Atoi(n); err == nil {
				if k <= 0 || p.Rounds != 0 {
					return Policy{}, fmt.Errorf("bad anytime round quota %q", part)
				}
				p.Rounds = k
				continue
			}
		}
		d, err := time.ParseDuration(part)
		if err != nil || d <= 0 || p.Deadline != 0 {
			return Policy{}, fmt.Errorf("bad anytime deadline %q", part)
		}
		p.Deadline = d
	}
	return p, nil
}

// BoundStore is the read side of the learned-bound artifact store;
// *compile.Cache implements it.
type BoundStore interface {
	Bound(fp compile.Fingerprint, v chase.Variant) (compile.LearnedBound, bool)
}

// Decision is a resolved policy: the effective round and wall budgets a
// run executes under, each tagged with the Source that imposed it. The
// zero value is the exact decision with no budgets.
type Decision struct {
	Mode  Mode
	Learn bool
	// Bound is the learned bound a Bounded decision resolved (zero
	// otherwise).
	Bound compile.LearnedBound
	// MaxRounds is the effective round budget (0 = unlimited) and
	// RoundsSource the budget's origin when it is set.
	MaxRounds    int
	RoundsSource Source
	// Wall is the effective wall budget (0 = unlimited) and WallSource
	// its origin.
	Wall       time.Duration
	WallSource Source
	// Deadline is the anytime deadline, kept for slack accounting (how
	// much of the deadline the run left unused).
	Deadline time.Duration
}

// Apply resolves the policy against the learned-bound store into the
// effective budgets for one request. maxRounds and wall are the
// request's explicit budgets; the tighter of the explicit and
// policy-derived budget wins, and the Decision records which one that
// was so truncated output can name its budget source.
func (p Policy) Apply(store BoundStore, fp compile.Fingerprint, v chase.Variant, maxRounds int, wall time.Duration) (Decision, error) {
	d := Decision{Mode: p.Mode, Learn: p.Learn, MaxRounds: maxRounds, RoundsSource: SourceFlag, Wall: wall, WallSource: SourceFlag}
	if p.Deadline < 0 || p.Rounds < 0 {
		return Decision{}, fmt.Errorf("negative QoS budget (deadline %v, rounds %d)", p.Deadline, p.Rounds)
	}
	if p.Learn && p.Mode != Exact {
		return Decision{}, fmt.Errorf("bound learning requires an exact reference run, not %s", p.Mode)
	}
	switch p.Mode {
	case Exact:
	case Bounded:
		b, ok := store.Bound(fp, v)
		if !ok {
			return Decision{}, fmt.Errorf("%w for ontology %s variant %s (profile one with a learn-mode run first)", ErrNoLearnedBound, fp, v)
		}
		d.Bound = b
		if maxRounds == 0 || b.Rounds < maxRounds {
			d.MaxRounds, d.RoundsSource = b.Rounds, SourceLearnedBound
		}
	case Anytime:
		if p.Deadline == 0 && p.Rounds == 0 {
			return Decision{}, errors.New("anytime policy needs a positive deadline or round quota")
		}
		if p.Rounds > 0 && (maxRounds == 0 || p.Rounds <= maxRounds) {
			d.MaxRounds, d.RoundsSource = p.Rounds, SourceDeadline
		}
		if p.Deadline > 0 && (wall == 0 || p.Deadline <= wall) {
			d.Wall, d.WallSource = p.Deadline, SourceDeadline
		}
		d.Deadline = p.Deadline
	default:
		return Decision{}, fmt.Errorf("unknown QoS mode %d", p.Mode)
	}
	return d, nil
}

// RoundGranular reports whether runs under this decision must stop only
// at round boundaries (chase.Options.RoundGranularInterrupt): an anytime
// result is pinned to the MaxRounds run of its round count, so a
// deadline may never tear a round.
func (d Decision) RoundGranular() bool { return d.Mode == Anytime }

// TruncationSource names the budget that stopped a run reported as not
// terminated, given the request's atom budget and the run's final
// statistics. The resolution is deterministic — computed from the
// decision and the stats, never from timing: a round-budget exhaustion
// is attributed to the round budget's source, a mid-round atom-budget
// break to the explicit flag, and anything else (a wall expiry) to the
// wall budget's source.
func (d Decision) TruncationSource(maxAtoms int, st chase.Stats) Source {
	if d.MaxRounds > 0 && st.Rounds >= d.MaxRounds {
		return d.RoundsSource
	}
	if maxAtoms > 0 && st.Atoms > maxAtoms {
		return SourceFlag
	}
	return d.WallSource
}
