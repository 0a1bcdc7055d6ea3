package service

import (
	"fmt"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/qos"
	"repro/internal/tgds"
)

// qosFingerprint resolves the fingerprint a QoS decision keys learned
// bounds by: the request's own fingerprint when it submitted by one,
// else the canonical fingerprint of the resolved set — the same
// identity either way, computed only when the policy needs it.
func qosFingerprint(ref OntologyRef, sigma *tgds.Set) compile.Fingerprint {
	if ref.Fingerprint != (compile.Fingerprint{}) {
		return ref.Fingerprint
	}
	return compile.Of(sigma)
}

// applyQoS validates a chase-shaped request's explicit budgets and
// resolves its QoS policy into the effective Decision. Explicit budget
// validation lives here so every submission path shares it: a negative
// budget was always silently accepted before (a negative Wall built a
// context deadline in the past, i.e. an instant timeout reported as
// TimedOut rather than rejected) — now it is KindBadRequest at
// admission. Zero stays "unlimited" by the established convention.
// Policy rejections — Bounded without a learned bound
// (qos.ErrNoLearnedBound), an anytime policy without a positive
// deadline or round quota, negative policy budgets — are KindBadRequest
// too, with the cause wrap-checkable through the *Error.
func (s *Service) applyQoS(op Op, name string, meta RequestMeta, ref OntologyRef, sigma *tgds.Set,
	variant chase.Variant, maxAtoms, maxRounds int, wall time.Duration) (qos.Decision, compile.Fingerprint, error) {
	if maxAtoms < 0 || maxRounds < 0 || wall < 0 {
		return qos.Decision{}, compile.Fingerprint{}, wrapErr(op, name, KindBadRequest,
			fmt.Errorf("negative budget (max-atoms %d, max-rounds %d, wall %v)", maxAtoms, maxRounds, wall))
	}
	var fp compile.Fingerprint
	if meta.QoS.Mode == qos.Bounded || meta.QoS.Learn {
		fp = qosFingerprint(ref, sigma)
	}
	dec, err := meta.QoS.Apply(s.cache, fp, variant, maxRounds, wall)
	if err != nil {
		return qos.Decision{}, compile.Fingerprint{}, wrapErr(op, name, KindBadRequest, err)
	}
	return dec, fp, nil
}

// applyChaseDecision folds a resolved decision into a run's options: the
// effective round budget, round-granular interrupt polling for anytime
// runs (a deadline stops only between rounds, so the result is a
// whole-round prefix of the derivation), and the
// bound-recording observer for learn-mode runs.
func (s *Service) applyChaseDecision(opts *chase.Options, dec qos.Decision, fp compile.Fingerprint) {
	opts.MaxRounds = dec.MaxRounds
	opts.RoundGranularInterrupt = dec.RoundGranular()
	if dec.Learn {
		qos.NewRecorder(s.cache, fp, opts.Variant).Attach(opts)
	}
}

// Bounds exports the learned termination bounds stored for a registered
// fingerprint, sorted by variant — the artifact a fleet coordinator
// ships to cold workers alongside the ontology pull (the coordinator's
// BoundSource seam).
func (s *Service) Bounds(fp compile.Fingerprint) []compile.VariantBound {
	return s.cache.Bounds(fp)
}

// StoreBounds records externally learned termination bounds for a
// fingerprint — the receiving side of the fleet cold-pull: a worker
// stores the coordinator's shipped bounds so bounded-mode jobs serve
// without a local reference run. Relearning wins, matching the compile
// cache's own StoreBound semantics.
func (s *Service) StoreBounds(fp compile.Fingerprint, bounds []compile.VariantBound) {
	for _, vb := range bounds {
		s.cache.StoreBound(fp, vb.Variant, vb.Bound)
	}
}

// experimentQoS resolves the QoS policy of an experiment request: only
// Anytime's deadline makes sense (it becomes the sweep's wall budget);
// bounded and learn-mode sweeps are rejected — an experiment runs many
// ontologies, so no single learned bound applies.
func (s *Service) experimentQoS(name string, req *ExperimentRequest) (qos.Decision, error) {
	p := req.Meta.QoS
	if req.Wall < 0 {
		return qos.Decision{}, wrapErr(OpExperiment, name, KindBadRequest,
			fmt.Errorf("negative budget (wall %v)", req.Wall))
	}
	dec := qos.Decision{Mode: p.Mode, Wall: req.Wall}
	if p.IsZero() {
		return dec, nil
	}
	if p.Mode != qos.Anytime || p.Learn || p.Rounds > 0 || p.Deadline <= 0 {
		return qos.Decision{}, wrapErr(OpExperiment, name, KindBadRequest,
			fmt.Errorf("experiment requests accept only an anytime deadline QoS policy, not %q", p))
	}
	if req.Wall == 0 || p.Deadline <= req.Wall {
		req.Wall = p.Deadline
		dec.Wall, dec.WallSource = p.Deadline, qos.SourceDeadline
	}
	dec.Deadline = p.Deadline
	return dec, nil
}

// decideQoS resolves the QoS policy of a decide request. Only the naive
// probe materializes a chase, so only it can serve under a policy:
// Bounded caps the probe at the learned atom count (the round-based
// bound does not fit the probe's atom-cap shape), Anytime's deadline
// becomes the job's wall budget. Every other combination is rejected
// rather than silently ignored.
func (s *Service) decideQoS(name string, req DecideRequest, sigma *tgds.Set) (qos.Decision, DecideRequest, error) {
	p := req.Meta.QoS
	if req.AtomCap < 0 || req.Wall < 0 {
		return qos.Decision{}, req, wrapErr(OpDecide, name, KindBadRequest,
			fmt.Errorf("negative budget (atom-cap %d, wall %v)", req.AtomCap, req.Wall))
	}
	dec := qos.Decision{Mode: p.Mode, Wall: req.Wall}
	if p.IsZero() {
		return dec, req, nil
	}
	if p.Learn {
		return qos.Decision{}, req, wrapErr(OpDecide, name, KindBadRequest,
			fmt.Errorf("bound learning rides on chase requests, not termination decisions"))
	}
	method := req.Method
	if method == "" {
		method = "syntactic"
	}
	if method != "naive" {
		return qos.Decision{}, req, wrapErr(OpDecide, name, KindBadRequest,
			fmt.Errorf("QoS policy %q applies to the naive probe only, not method %q", p, method))
	}
	switch p.Mode {
	case qos.Bounded:
		// The naive probe materializes the paper's chase, the
		// semi-oblivious variant; its bound is the one that applies.
		b, ok := s.cache.Bound(qosFingerprint(req.Ontology, sigma), chase.SemiOblivious)
		if !ok {
			return qos.Decision{}, req, wrapErr(OpDecide, name, KindBadRequest,
				fmt.Errorf("%w for the naive probe (profile one with a learn-mode chase first)", qos.ErrNoLearnedBound))
		}
		dec.Bound = b
		if req.AtomCap == 0 || b.Atoms < req.AtomCap {
			req.AtomCap = b.Atoms
		}
	case qos.Anytime:
		if p.Rounds > 0 || p.Deadline <= 0 {
			return qos.Decision{}, req, wrapErr(OpDecide, name, KindBadRequest,
				fmt.Errorf("anytime termination decisions take a deadline, not a round quota"))
		}
		if req.Wall == 0 || p.Deadline <= req.Wall {
			req.Wall = p.Deadline
			dec.Wall, dec.WallSource = p.Deadline, qos.SourceDeadline
		}
		dec.Deadline = p.Deadline
	}
	return dec, req, nil
}
