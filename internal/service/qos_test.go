package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/telemetry"
)

// badRequest asserts an error is a *Error of KindBadRequest.
func badRequest(t *testing.T, err error, what string) *Error {
	t.Helper()
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("%s: %v is not a *service.Error", what, err)
	}
	if se.Kind != KindBadRequest {
		t.Fatalf("%s: kind = %v, want KindBadRequest (%v)", what, se.Kind, err)
	}
	return se
}

// TestServiceQoSBadRequests: negative explicit budgets and invalid
// policies are rejected synchronously as KindBadRequest on every
// submission surface — never silently accepted, never an instant
// timeout.
func TestServiceQoSBadRequests(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	s := newService(t, Config{Workers: 1})
	ctx := context.Background()

	chaseReq := func(mutate func(*ChaseRequest)) ChaseRequest {
		req := ChaseRequest{
			Database: Payload{Instance: prog.Database},
			Ontology: OntologyRef{Set: prog.Rules},
		}
		mutate(&req)
		return req
	}
	cases := []struct {
		name   string
		mutate func(*ChaseRequest)
	}{
		{"negative max-atoms", func(r *ChaseRequest) { r.MaxAtoms = -1 }},
		{"negative max-rounds", func(r *ChaseRequest) { r.MaxRounds = -5 }},
		{"negative wall", func(r *ChaseRequest) { r.Wall = -time.Second }},
		{"anytime without budget", func(r *ChaseRequest) { r.Meta.QoS = qos.Policy{Mode: qos.Anytime} }},
		{"anytime negative deadline", func(r *ChaseRequest) {
			r.Meta.QoS = qos.Policy{Mode: qos.Anytime, Deadline: -time.Millisecond}
		}},
		{"anytime negative quota", func(r *ChaseRequest) { r.Meta.QoS = qos.Policy{Mode: qos.Anytime, Rounds: -2} }},
		{"learn in bounded mode", func(r *ChaseRequest) { r.Meta.QoS = qos.Policy{Mode: qos.Bounded, Learn: true} }},
	}
	for _, c := range cases {
		_, err := s.SubmitChase(ctx, chaseReq(c.mutate))
		badRequest(t, err, c.name)
	}

	// The sibling surfaces share the validation.
	_, err := s.SubmitDecide(ctx, DecideRequest{
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
		AtomCap:  -1,
	})
	badRequest(t, err, "decide negative atom-cap")
	_, err = s.SubmitDecide(ctx, DecideRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Learn: true}},
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	badRequest(t, err, "decide learn policy")
	_, err = s.SubmitExperiment(ctx, ExperimentRequest{ID: "XP-DEPTH", Quick: true, Wall: -time.Second})
	badRequest(t, err, "experiment negative wall")
	_, err = s.SubmitExperiment(ctx, ExperimentRequest{
		ID: "XP-DEPTH", Quick: true,
		Meta: RequestMeta{QoS: qos.Policy{Mode: qos.Bounded}},
	})
	badRequest(t, err, "experiment bounded policy")
}

// TestServiceBoundedNoLearnedBound: a bounded-mode request for an
// unprofiled ontology fails fast, and the cause stays wrap-checkable
// through the service error taxonomy.
func TestServiceBoundedNoLearnedBound(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	s := newService(t, Config{Workers: 1})
	_, err := s.SubmitChase(context.Background(), ChaseRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Bounded}},
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	if !errors.Is(err, qos.ErrNoLearnedBound) {
		t.Fatalf("errors.Is(err, qos.ErrNoLearnedBound) = false: %v", err)
	}
	badRequest(t, err, "bounded without a bound")

	// The fingerprint path rejects identically.
	h, err := s.RegisterOntology(prog.Rules)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.SubmitByFingerprint(context.Background(), h.Fingerprint,
		Payload{Instance: prog.Database},
		ChaseRequest{Meta: RequestMeta{QoS: qos.Policy{Mode: qos.Bounded}}})
	if !errors.Is(err, qos.ErrNoLearnedBound) {
		t.Fatalf("by-fingerprint bounded: %v", err)
	}
}

// TestServiceLearnThenBounded is the serving loop end to end: a
// learn-mode run stores the observed bound, the bound survives
// re-registration, and a bounded run serves under it to the same
// fixpoint. A truncated learn records a prefix, and the bounded replay
// names the learned bound as its truncation source.
func TestServiceLearnThenBounded(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> ∃Y q(X, Y). q(X, Y) -> r(Y).")
	s := newService(t, Config{Workers: 1})
	ctx := context.Background()
	h, err := s.RegisterOntology(prog.Rules)
	if err != nil {
		t.Fatal(err)
	}

	tk, err := s.SubmitChase(ctx, ChaseRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Learn: true}},
		Database: Payload{Instance: prog.Database},
		Ontology: ByFingerprint(h.Fingerprint),
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := tk.Wait()
	if ref.Err != nil || !ref.Chase.Terminated {
		t.Fatalf("learn run: %+v", ref)
	}
	bounds := s.Bounds(h.Fingerprint)
	if len(bounds) != 1 || bounds[0].Variant != chase.SemiOblivious || !bounds[0].Bound.Observed {
		t.Fatalf("learned bounds after reference run: %+v", bounds)
	}
	if bounds[0].Bound.Rounds != ref.Chase.Stats.Rounds {
		t.Fatalf("bound rounds %d != reference rounds %d", bounds[0].Bound.Rounds, ref.Chase.Stats.Rounds)
	}

	// Re-registering the same ontology must not lose the bound.
	if again, err := s.RegisterOntology(prog.Rules); err != nil || again.Fingerprint != h.Fingerprint {
		t.Fatalf("re-registration: %+v, %v", again, err)
	}
	if got := s.Bounds(h.Fingerprint); len(got) != 1 {
		t.Fatalf("bounds after re-registration: %+v", got)
	}

	tk, err = s.SubmitChase(ctx, ChaseRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Bounded}},
		Database: Payload{Instance: prog.Database},
		Ontology: ByFingerprint(h.Fingerprint),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := tk.Wait()
	if r.Err != nil || !r.Chase.Terminated {
		t.Fatalf("bounded run under an observed bound must terminate: %+v", r)
	}
	if r.Chase.Instance.CanonicalKey() != ref.Chase.Instance.CanonicalKey() {
		t.Fatal("bounded run diverged from the reference fixpoint")
	}

	// Non-terminating program: a budget-truncated learn records the
	// prefix (Observed=false), and the bounded replay's truncation is
	// attributed to the learned bound.
	inf := parserProg(t, "e(a, b). e(X, Y) -> ∃Z e(Y, Z).")
	hInf, err := s.RegisterOntology(inf.Rules)
	if err != nil {
		t.Fatal(err)
	}
	tk, err = s.SubmitChase(ctx, ChaseRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Learn: true}},
		Database: Payload{Instance: inf.Database},
		Ontology: ByFingerprint(hInf.Fingerprint),
		MaxAtoms: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r = tk.Wait(); r.Err != nil || r.Chase.Terminated {
		t.Fatalf("truncated learn run: %+v", r)
	}
	if r.BudgetSource != qos.SourceFlag {
		t.Fatalf("truncated learn names %v, want the flag budget", r.BudgetSource)
	}
	b, ok := s.cache.Bound(hInf.Fingerprint, chase.SemiOblivious)
	if !ok || b.Observed {
		t.Fatalf("truncated learn must record an unobserved prefix bound: %+v, %v", b, ok)
	}
	tk, err = s.SubmitChase(ctx, ChaseRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Bounded}},
		Database: Payload{Instance: inf.Database},
		Ontology: ByFingerprint(hInf.Fingerprint),
		MaxAtoms: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r = tk.Wait(); r.Err != nil || r.Chase.Terminated {
		t.Fatalf("bounded replay of a prefix bound: %+v", r)
	}
	if r.BudgetSource != qos.SourceLearnedBound {
		t.Fatalf("bounded replay names %v, want the learned bound", r.BudgetSource)
	}
}

// TestServiceAnytimeTruncationSource: an anytime round quota that stops
// a run is named as the deadline's budget in the result.
func TestServiceAnytimeTruncationSource(t *testing.T) {
	inf := parserProg(t, "e(a, b). e(X, Y) -> ∃Z e(Y, Z).")
	s := newService(t, Config{Workers: 1})
	tk, err := s.SubmitChase(context.Background(), ChaseRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Anytime, Rounds: 3}},
		Database: Payload{Instance: inf.Database},
		Ontology: OntologyRef{Set: inf.Rules},
		MaxAtoms: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := tk.Wait()
	if r.Err != nil || r.Chase.Terminated {
		t.Fatalf("anytime run on the infinite family: %+v", r)
	}
	if r.Chase.Stats.Rounds != 3 {
		t.Fatalf("round quota 3 served %d rounds", r.Chase.Stats.Rounds)
	}
	if r.BudgetSource != qos.SourceDeadline {
		t.Fatalf("anytime truncation names %v, want the deadline", r.BudgetSource)
	}
}

// TestServiceAnytimeDeterminism pins the tier's central contract: at a
// round quota k, the served prefix is the run chase.Run gives under
// MaxRounds k (Options.RoundGranularInterrupt) — the same instance,
// outcome and statistics, apart from the compile-cache counters — for
// every example scenario and every chase variant.
func TestServiceAnytimeDeterminism(t *testing.T) {
	const k = 3
	progs := scenarios(t)
	variants := []chase.Variant{chase.SemiOblivious, chase.Oblivious, chase.Restricted}
	s := newService(t, Config{Workers: 1, Cache: compile.NewCache(0)})
	for name, prog := range progs {
		for _, v := range variants {
			tk, err := s.SubmitChase(context.Background(), ChaseRequest{
				Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Anytime, Rounds: k}},
				Database: Payload{Instance: prog.Database},
				Ontology: OntologyRef{Set: prog.Rules},
				Variant:  v,
				MaxAtoms: 200000,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v, err)
			}
			r := tk.Wait()
			if r.Err != nil {
				t.Fatalf("%s/%s: %v", name, v, r.Err)
			}
			want := chase.Run(prog.Database, prog.Rules, chase.Options{Variant: v, MaxAtoms: 200000, MaxRounds: k})
			got := r.Chase
			if got.Instance.CanonicalKey() != want.Instance.CanonicalKey() {
				t.Errorf("%s/%s: anytime prefix differs from the %d-round run", name, v, k)
			}
			gs := got.Stats
			gs.CompileHits, gs.CompileMisses = 0, 0
			if gs != want.Stats {
				t.Errorf("%s/%s: stats differ: served %+v, direct %+v", name, v, got.Stats, want.Stats)
			}
			if got.Terminated != want.Terminated {
				t.Errorf("%s/%s: served terminated=%v, direct %v", name, v, got.Terminated, want.Terminated)
			}
		}
	}
}

// TestServiceQoSTelemetry: per-mode outcome counters and the
// learned-bound counter bill exactly once per ticket.
func TestServiceQoSTelemetry(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	inf := parserProg(t, "e(a, b). e(X, Y) -> ∃Z e(Y, Z).")
	tel := telemetry.New()
	s := newService(t, Config{Workers: 1, Telemetry: tel})
	ctx := context.Background()

	wait := func(req ChaseRequest) Result {
		tk, err := s.SubmitChase(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		r := tk.Wait()
		tk.Wait() // a second Wait must not double-bill
		return r
	}
	wait(ChaseRequest{ // exact, terminated
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	wait(ChaseRequest{ // learn, terminated: bumps the learned counter
		Meta:     RequestMeta{QoS: qos.Policy{Learn: true}},
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	wait(ChaseRequest{ // anytime, truncated
		Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Anytime, Rounds: 2}},
		Database: Payload{Instance: inf.Database},
		Ontology: OntologyRef{Set: inf.Rules},
		MaxAtoms: 100000,
	})

	snap := s.Metrics()
	for _, c := range []struct {
		mode, outcome string
		want          float64
	}{
		{"exact", "terminated", 2}, // the plain and the learn-mode run
		{"anytime", "truncated", 1},
	} {
		if got, ok := series(snap, "service_qos_requests_total", c.mode, c.outcome); !ok || got != c.want {
			t.Fatalf("service_qos_requests_total{%s,%s} = %v, %v (want %v)", c.mode, c.outcome, got, ok, c.want)
		}
	}
	if got, _ := series(snap, "service_qos_bounds_learned_total"); got != 1 {
		t.Fatalf("service_qos_bounds_learned_total = %v, want 1", got)
	}
}

// TestServiceDecideQoS: the termination-decision surface's policy
// folding — only the naive probe materializes a chase, so only it
// serves under a policy: bounded caps the probe at the learned atom
// count, anytime's deadline becomes the wall budget, and every other
// combination is rejected rather than silently ignored.
func TestServiceDecideQoS(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> ∃Y q(X, Y). q(X, Y) -> r(Y).")
	s := newService(t, Config{Workers: 1})
	ctx := context.Background()

	// Unprofiled bounded probe: typed rejection.
	_, err := s.SubmitDecide(ctx, DecideRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Bounded}},
		Method:   "naive",
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	if !errors.Is(err, qos.ErrNoLearnedBound) {
		t.Fatalf("unprofiled bounded probe: %v", err)
	}

	// Profile, then the bounded probe serves and decides terminating.
	tk, err := s.SubmitChase(ctx, ChaseRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Learn: true}},
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
	tk, err = s.SubmitDecide(ctx, DecideRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Bounded}},
		Method:   "naive",
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); r.Err != nil || r.Verdict == nil {
		t.Fatalf("bounded naive probe: %+v", r)
	}

	// Anytime deadline on a capped probe is accepted. The deadline alone
	// does not bound the probe, and this Σ's bound |D|·f_SL(Σ) exceeds
	// MaxInt32 atoms, so without a cap the probe is a bad request.
	anytime := DecideRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Anytime, Deadline: time.Hour}},
		Method:   "naive",
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	}
	tk, err = s.SubmitDecide(ctx, anytime)
	if err != nil {
		t.Fatal(err)
	}
	if se := badRequest(t, tk.Wait().Err, "uncapped anytime naive probe"); !errors.Is(se, core.ErrUnboundedNaive) {
		t.Fatalf("uncapped anytime naive probe: %v, want core.ErrUnboundedNaive", se)
	}
	anytime.AtomCap = 1000
	tk, err = s.SubmitDecide(ctx, anytime)
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); r.Err != nil || r.Verdict.Outcome != core.Finite {
		t.Fatalf("anytime naive probe: %+v", r)
	}
	// An explicit tighter AtomCap beats the learned one (exercised via a
	// 1-atom cap).
	tk, err = s.SubmitDecide(ctx, DecideRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Bounded}},
		Method:   "naive",
		AtomCap:  1,
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); r.Err != nil {
		t.Fatalf("bounded probe under a tighter explicit cap: %v", r.Err)
	}

	// Rejections: a policy on a non-materializing method, an anytime
	// round quota (the probe has no rounds), negative wall.
	_, err = s.SubmitDecide(ctx, DecideRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Bounded}},
		Method:   "syntactic",
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	badRequest(t, err, "policy on the syntactic decider")
	_, err = s.SubmitDecide(ctx, DecideRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Anytime, Rounds: 3}},
		Method:   "naive",
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	badRequest(t, err, "anytime round quota on the probe")
	_, err = s.SubmitDecide(ctx, DecideRequest{
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
		Wall:     -time.Second,
	})
	badRequest(t, err, "decide negative wall")
}

// TestServiceExperimentQoS: an experiment sweep accepts exactly one
// policy shape — an anytime deadline, which becomes the wall budget.
func TestServiceExperimentQoS(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	ctx := context.Background()
	tk, err := s.SubmitExperiment(ctx, ExperimentRequest{
		ID: "XP-DEPTH", Quick: true,
		Meta: RequestMeta{QoS: qos.Policy{Mode: qos.Anytime, Deadline: time.Hour}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); r.Err != nil || r.Table == nil {
		t.Fatalf("anytime experiment sweep: %+v", r)
	}
	// A loose deadline must not tighten an explicit tighter wall; a
	// round quota is meaningless for a sweep.
	_, err = s.SubmitExperiment(ctx, ExperimentRequest{
		ID: "XP-DEPTH", Quick: true,
		Meta: RequestMeta{QoS: qos.Policy{Mode: qos.Anytime, Rounds: 2}},
	})
	badRequest(t, err, "experiment round quota")
	_, err = s.SubmitExperiment(ctx, ExperimentRequest{
		ID: "XP-DEPTH", Quick: true,
		Meta: RequestMeta{QoS: qos.Policy{Learn: true}},
	})
	badRequest(t, err, "experiment learn policy")
}

// TestServiceStoreBounds: the fleet cold-pull's receiving side — bounds
// stored wholesale are servable and re-exported in canonical order.
func TestServiceStoreBounds(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	s := newService(t, Config{Workers: 1})
	h, err := s.RegisterOntology(prog.Rules)
	if err != nil {
		t.Fatal(err)
	}
	in := []compile.VariantBound{
		{Variant: chase.SemiOblivious, Bound: compile.LearnedBound{Rounds: 3, Atoms: 4, Observed: true}},
		{Variant: chase.Restricted, Bound: compile.LearnedBound{Rounds: 2, Atoms: 3, Observed: true}},
	}
	s.StoreBounds(h.Fingerprint, in)
	got := s.Bounds(h.Fingerprint)
	if len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
		t.Fatalf("Bounds = %+v, want %+v", got, in)
	}
	// And a bounded run serves under the shipped bound immediately.
	tk, err := s.SubmitChase(context.Background(), ChaseRequest{
		Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Bounded}},
		Database: Payload{Instance: prog.Database},
		Ontology: ByFingerprint(h.Fingerprint),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); r.Err != nil || !r.Chase.Terminated {
		t.Fatalf("bounded run under shipped bounds: %+v", r)
	}
}
