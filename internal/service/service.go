// Package service is the job-submission surface of the reproduction: the
// transport-ready layer every front end — the three CLIs today, a
// network listener or distributed shard tomorrow — routes through.
// Instead of handing the runtime ad-hoc func() Job closures, callers
// build typed request envelopes (ChaseRequest, DecideRequest,
// ExperimentRequest), submit them, and receive typed Results carrying
// the outcome, its statistics, a derivation handle, and a classified
// error taxonomy (ErrorKind; sentinels stay wrap-checkable via
// errors.Is).
//
// The paper's non-uniform setting is per-(D, Σ) with Σ fixed across many
// databases, and the service API is shaped by exactly that access
// pattern: RegisterOntology(Σ) pins Σ in the compilation cache under its
// canonical fingerprint (internal/compile) and returns the Handle; a
// submitter that shares the fingerprint with a worker then ships only
// fingerprint + database payload per job (SubmitByFingerprint), with the
// database traveling as a portable wire snapshot (+ per-round deltas,
// internal/wire) when the caller is not in-process. An unregistered
// fingerprint fails typed (ErrUnknownOntology): the submitter registers
// Σ once and resumes. Fleets submitted by fingerprint are byte-identical
// to fleets submitted with Σ attached — the equivalence tests pin that
// down at 1 and 4 workers.
//
// Admission is the scheduler's bounded queue with priority lanes and
// per-tenant fair dequeue; RequestMeta{Tenant, Priority} is the
// envelope-level surface of that queue (internal/runtime.JobMeta
// underneath).
package service

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/chase"
	"repro/internal/checkpoint"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/qos"
	rt "repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/tgds"
	"repro/internal/wire"
)

// Config configures a Service. The zero value serves: GOMAXPROCS
// workers, the scheduler's default queue bound, blocking backpressure,
// the process-wide compilation cache.
type Config struct {
	// Workers is the number of job workers (<= 0 selects GOMAXPROCS).
	Workers int
	// QueueBound caps the admission queue (<= 0 selects the scheduler
	// default).
	QueueBound int
	// Backpressure selects Submit's behavior at the bound: Block
	// (default) or Reject, which surfaces as KindOverloaded.
	Backpressure rt.Backpressure
	// Cache is the compilation cache ontologies are registered in and
	// artifacts served from; nil selects compile.Global().
	Cache *compile.Cache
	// Telemetry, when non-nil with a Registry, turns the serving plane's
	// observability on: request/scheduler/chase metrics feed the
	// registry, the compile cache and wire codec are bridged into it,
	// and (when Telemetry.Trace is set) every job records trace spans.
	// Nil is the default and the benchmarked fast path — no metric is
	// touched anywhere on the submit or run path.
	Telemetry *telemetry.Telemetry
}

// Service is the job-submission layer: a facade over one streaming
// Scheduler plus the ontology registry. Construct with New; a Service is
// live until Close.
type Service struct {
	sched *rt.Scheduler
	cache *compile.Cache

	tel          *telemetry.Telemetry
	stel         *svcTelemetry
	meterRelease func()
}

// New starts a service.
func New(cfg Config) *Service {
	cache := cfg.Cache
	if cache == nil {
		cache = compile.Global()
	}
	s := &Service{
		sched: rt.NewScheduler(rt.SchedulerConfig{
			Workers:      cfg.Workers,
			QueueBound:   cfg.QueueBound,
			Backpressure: cfg.Backpressure,
			Telemetry:    cfg.Telemetry,
		}),
		cache: cache,
		tel:   cfg.Telemetry,
	}
	s.stel, s.meterRelease = newSvcTelemetry(cfg.Telemetry, cache)
	return s
}

// Cache returns the service's compilation cache (for stats surfaces).
func (s *Service) Cache() *compile.Cache { return s.cache }

// ScratchReuses returns how many jobs so far ran on a scheduler worker's
// already-warmed chase scratch (for stats surfaces).
func (s *Service) ScratchReuses() int64 { return s.sched.ScratchReuses() }

// Drain blocks until every admitted job has completed.
func (s *Service) Drain() { s.sched.Drain() }

// Close shuts the service down gracefully: admission stops, admitted
// jobs run to completion, workers exit. A telemetry-enabled service
// also withdraws its wire-meter registration, so codec traffic stops
// billing this service's registry while any other live Service keeps
// its own accounting undisturbed.
func (s *Service) Close() {
	s.sched.Close()
	if s.meterRelease != nil {
		s.meterRelease()
	}
}

// Handle names a registered ontology: the canonical compile fingerprint
// is the cross-process identity jobs are submitted by.
type Handle struct {
	Fingerprint compile.Fingerprint
}

// RegisterOntology pins Σ in the compilation cache under its canonical
// fingerprint and returns the handle. Registering a fingerprint-equal
// (reordered, α-renamed) set again returns the same handle; the first
// registered exact form serves every job under the fingerprint, which is
// what keeps fingerprint-addressed fleets byte-identical.
func (s *Service) RegisterOntology(sigma *tgds.Set) (Handle, error) {
	if sigma == nil {
		return Handle{}, wrapErr(OpRegistry, "register", KindBadRequest, fmt.Errorf("nil ontology"))
	}
	return Handle{Fingerprint: s.cache.Register(sigma)}, nil
}

// Ontology resolves a handle's fingerprint back to the registered set.
func (s *Service) Ontology(fp compile.Fingerprint) (*tgds.Set, error) {
	sigma, ok := s.cache.Registered(fp)
	if !ok {
		return nil, wrapErr(OpRegistry, "resolve", KindUnknownOntology,
			fmt.Errorf("%w: %s", ErrUnknownOntology, fp))
	}
	return sigma, nil
}

// resolve materializes a request's ontology reference.
func (s *Service) resolve(op Op, name string, ref OntologyRef) (*tgds.Set, error) {
	if ref.Set != nil {
		return ref.Set, nil
	}
	if ref.Fingerprint == (compile.Fingerprint{}) {
		return nil, wrapErr(op, name, KindBadRequest, fmt.Errorf("request names no ontology"))
	}
	sigma, ok := s.cache.Registered(ref.Fingerprint)
	if !ok {
		return nil, wrapErr(op, name, KindUnknownOntology,
			fmt.Errorf("%w: %s", ErrUnknownOntology, ref.Fingerprint))
	}
	return sigma, nil
}

// loadPayload materializes a request's database payload with decode
// failures typed.
func loadPayload(op Op, name string, p Payload) (*logic.Instance, error) {
	db, err := p.load()
	if err != nil {
		kind := KindBadRequest
		if p.Instance == nil && p.Snapshot != nil {
			kind = KindDecode
		}
		return nil, wrapErr(op, name, kind, err)
	}
	return db, nil
}

// executor resolves a request's intra-run executor.
func executor(workers int, own chase.Executor) chase.Executor {
	if own != nil {
		return own
	}
	if workers > 1 {
		return rt.NewExecutor(workers)
	}
	return nil
}

func orDefault(name, def string) string {
	if name == "" {
		return def
	}
	return name
}

// SubmitChase admits a chase request and returns its ticket. Validation
// — payload decode included — happens synchronously; the materialization
// runs on the scheduler's workers.
func (s *Service) SubmitChase(ctx context.Context, req ChaseRequest) (*Ticket, error) {
	name := orDefault(req.Name, "chase")
	sigma, err := s.resolve(OpChase, name, req.Ontology)
	if err != nil {
		return nil, err
	}
	db, err := loadPayload(OpChase, name, req.Database)
	if err != nil {
		return nil, err
	}
	dec, fp, err := s.applyQoS(OpChase, name, req.Meta, req.Ontology, sigma,
		req.Variant, req.MaxAtoms, req.MaxRounds, req.Wall)
	if err != nil {
		return nil, err
	}
	opts := chase.Options{
		Variant:          req.Variant,
		MaxAtoms:         req.MaxAtoms,
		TrackForest:      req.TrackForest,
		RecordDerivation: req.RecordDerivation,
		NoSemiNaive:      req.NoSemiNaive,
		Executor:         executor(req.Workers, req.Executor),
		Progress:         req.Progress,
		Compile:          s.cache,
		Checkpoint:       req.Checkpoint,
	}
	s.applyChaseDecision(&opts, dec, fp)
	t, err := s.sched.SubmitChase(ctx, rt.ChaseSpec{
		Name: name, Meta: req.Meta.jobMeta(), Wall: dec.Wall, Options: opts,
		Run: func(o chase.Options) (*chase.Result, error) { return chase.Run(db, sigma, o), nil },
	})
	if err != nil {
		return nil, wrapErr(OpChase, name, KindInternal, err)
	}
	if s.stel != nil {
		s.stel.observeRequest(OpChase, req.Meta, req.Ontology)
	}
	return s.ticket(OpChase, t, sigma, dec, req.MaxAtoms), nil
}

// SubmitDelta admits an incremental re-chase request: the checkpoint
// artifact is decoded, its ontology resolved (explicitly, or — the
// steady-state shape — through the registry by the checkpoint's own
// fingerprint) and validated against it, wire delta blobs are applied
// through the checkpoint's stream, and the resumed run is scheduled
// with the same admission metadata, budgets, and telemetry as a chase
// (its terminal trace span is "resume"). All validation is synchronous:
// a corrupt artifact or blob (KindDecode), an unregistered fingerprint
// (KindUnknownOntology), and a mismatched ontology (KindBadRequest
// wrapping checkpoint.ErrMismatch) fail the Submit, not the worker.
func (s *Service) SubmitDelta(ctx context.Context, req DeltaRequest) (*Ticket, error) {
	name := orDefault(req.Name, "resume")
	if len(req.Checkpoint) == 0 {
		return nil, wrapErr(OpResume, name, KindBadRequest, fmt.Errorf("request carries no checkpoint artifact"))
	}
	cp, err := checkpoint.Decode(req.Checkpoint)
	if err != nil {
		return nil, wrapErr(OpResume, name, KindDecode, err)
	}
	var sigma *tgds.Set
	if req.Ontology.Set != nil || req.Ontology.Fingerprint != (compile.Fingerprint{}) {
		if sigma, err = s.resolve(OpResume, name, req.Ontology); err != nil {
			return nil, err
		}
	} else {
		var ok bool
		if sigma, ok = s.cache.Registered(cp.Fingerprint); !ok {
			return nil, wrapErr(OpResume, name, KindUnknownOntology,
				fmt.Errorf("%w: the checkpoint's ontology %s is not registered (register Σ, or attach it to the request)",
					ErrUnknownOntology, cp.Fingerprint))
		}
	}
	if err := cp.Validate(sigma); err != nil {
		return nil, wrapErr(OpResume, name, KindBadRequest, err)
	}
	for i, blob := range req.Deltas {
		if _, err := cp.ApplyDelta(blob); err != nil {
			return nil, wrapErr(OpResume, name, KindDecode, fmt.Errorf("delta blob %d: %w", i, err))
		}
	}
	if req.Meta.QoS.Learn {
		// A learned bound describes a from-scratch reference run; a
		// continuation's round count would understate it.
		return nil, wrapErr(OpResume, name, KindBadRequest,
			fmt.Errorf("bound learning needs a fresh reference run, not a resumed one"))
	}
	// The variant and fingerprint are pinned by the checkpoint, so
	// Bounded resolves the same learned bound the original run would
	// (its round budget then bounds the continuation's own rounds).
	dec, _, err := s.applyQoS(OpResume, name, req.Meta, OntologyRef{Fingerprint: cp.Fingerprint}, sigma,
		cp.Variant, req.MaxAtoms, req.MaxRounds, req.Wall)
	if err != nil {
		return nil, err
	}
	opts := chase.Options{
		MaxAtoms:         req.MaxAtoms,
		TrackForest:      req.TrackForest,
		RecordDerivation: req.RecordDerivation,
		NoSemiNaive:      req.NoSemiNaive,
		Executor:         executor(req.Workers, req.Executor),
		Progress:         req.Progress,
		Compile:          s.cache,
		Checkpoint:       req.Chain,
	}
	s.applyChaseDecision(&opts, dec, cp.Fingerprint)
	delta := req.Delta
	t, err := s.sched.SubmitChase(ctx, rt.ChaseSpec{
		Name: name, Meta: req.Meta.jobMeta(), Wall: dec.Wall, Options: opts, Resume: true,
		Run: func(o chase.Options) (*chase.Result, error) { return cp.Resume(sigma, delta, o) },
	})
	if err != nil {
		return nil, wrapErr(OpResume, name, KindInternal, err)
	}
	if s.stel != nil {
		s.stel.observeRequest(OpResume, req.Meta, req.Ontology)
	}
	return s.ticket(OpResume, t, sigma, dec, req.MaxAtoms), nil
}

// SubmitByFingerprint is SubmitChase for a remote-shaped submission: the
// ontology only by registered fingerprint, the database only as payload
// (wire bytes or in-process instance). It is exactly equivalent to
// SubmitChase with the resolved set attached.
func (s *Service) SubmitByFingerprint(ctx context.Context, fp compile.Fingerprint, payload Payload, req ChaseRequest) (*Ticket, error) {
	req.Ontology = ByFingerprint(fp)
	req.Database = payload
	return s.SubmitChase(ctx, req)
}

// SubmitDecide admits a termination-decision request.
func (s *Service) SubmitDecide(ctx context.Context, req DecideRequest) (*Ticket, error) {
	name := orDefault(req.Name, "decide")
	sigma, err := s.resolve(OpDecide, name, req.Ontology)
	if err != nil {
		return nil, err
	}
	var db *logic.Instance
	if req.Method != "uniform" {
		if db, err = loadPayload(OpDecide, name, req.Database); err != nil {
			return nil, err
		}
	}
	dec, req, err := s.decideQoS(name, req, sigma)
	if err != nil {
		return nil, err
	}
	run, err := s.decideRun(req, db, sigma)
	if err != nil {
		return nil, wrapErr(OpDecide, name, KindBadRequest, err)
	}
	j := rt.Job{Name: name, Meta: req.Meta.jobMeta(), Wall: req.Wall, Run: run}
	t, err := s.sched.Submit(ctx, j)
	if err != nil {
		return nil, wrapErr(OpDecide, name, KindInternal, err)
	}
	if s.stel != nil {
		s.stel.observeRequest(OpDecide, req.Meta, req.Ontology)
	}
	return s.ticket(OpDecide, t, nil, dec, 0), nil
}

// decideRun builds the decision procedure for the request's method; the
// verdicts are identical to calling internal/core directly (the cache is
// a pure performance knob).
func (s *Service) decideRun(req DecideRequest, db *logic.Instance, sigma *tgds.Set) (func(context.Context) (any, error), error) {
	switch req.Method {
	case "uniform":
		return func(context.Context) (any, error) {
			return core.DecideUniformWith(sigma, s.cache)
		}, nil
	case "", "syntactic":
		return func(context.Context) (any, error) {
			return core.DecideWith(db, sigma, s.cache)
		}, nil
	case "naive":
		exec := executor(req.Workers, nil)
		return func(ctx context.Context) (any, error) {
			return core.DecideNaive(db, sigma, core.NaiveOptions{
				AtomCap:  req.AtomCap,
				Executor: exec,
				Compiler: s.cache,
				Progress: req.Progress,
			})
		}, nil
	case "ucq":
		return func(context.Context) (any, error) {
			return s.decideUCQ(db, sigma)
		}, nil
	default:
		return nil, fmt.Errorf("unknown method %q (want syntactic, naive, ucq, or uniform)", req.Method)
	}
}

// decideUCQ evaluates the termination UCQ Q_Σ (Theorems 6.6 / 7.7) with
// the UCQ built once per ontology through the cache.
func (s *Service) decideUCQ(db *logic.Instance, sigma *tgds.Set) (*core.Verdict, error) {
	var (
		q     core.UCQ
		err   error
		class = sigma.Classify()
	)
	switch class {
	case tgds.ClassSL:
		q, err = s.cache.UCQSL(sigma)
	case tgds.ClassL:
		q, err = s.cache.UCQL(sigma)
	default:
		return nil, fmt.Errorf("the UCQ method applies to simple linear and linear sets only")
	}
	if err != nil {
		return nil, err
	}
	v := &core.Verdict{Class: class, Method: "UCQ evaluation (exact pattern semantics)"}
	if q.EvalExact(db) {
		v.Outcome = core.Infinite
		v.Certificate = "D satisfies " + q.String()
	} else {
		v.Outcome = core.Finite
	}
	return v, nil
}

// SubmitExperiment admits an experiment-table request. The experiment id
// is validated synchronously; the sweep runs on a worker.
func (s *Service) SubmitExperiment(ctx context.Context, req ExperimentRequest) (*Ticket, error) {
	name := orDefault(req.Name, req.ID)
	e, err := experiments.Get(req.ID)
	if err != nil {
		return nil, wrapErr(OpExperiment, name, KindBadRequest, err)
	}
	dec, err := s.experimentQoS(name, &req)
	if err != nil {
		return nil, err
	}
	cfg := experiments.Config{
		Quick:    req.Quick,
		Workers:  req.Workers,
		Compiler: s.cache,
		Stream:   req.Stream,
	}
	j := rt.Job{Name: name, Meta: req.Meta.jobMeta(), Wall: req.Wall,
		Run: func(context.Context) (any, error) { return e.Run(cfg) }}
	t, err := s.sched.Submit(ctx, j)
	if err != nil {
		return nil, wrapErr(OpExperiment, name, KindInternal, err)
	}
	if s.stel != nil {
		s.stel.observeRequest(OpExperiment, req.Meta, OntologyRef{})
	}
	return s.ticket(OpExperiment, t, nil, dec, 0), nil
}

// Ticket is one admitted request's handle: Wait (or Done) for the typed
// Result, Progress for a chase request's round-level statistics stream,
// Cancel to preempt.
type Ticket struct {
	op Op
	rt *rt.Ticket
	// sigma is the resolved ontology of a chase/resume request, retained
	// so EncodeCheckpoint can bind the artifact to it.
	sigma *tgds.Set
	// dec is the request's resolved QoS decision and maxAtoms its
	// explicit atom budget: together they name the budget source of a
	// truncated result (Result.BudgetSource) deterministically.
	dec      qos.Decision
	maxAtoms int
	// stel bills the per-mode QoS outcome metrics exactly once per
	// ticket (Wait may be called repeatedly); nil when telemetry is off.
	stel    *svcTelemetry
	qosOnce sync.Once
}

// ticket assembles a request's handle.
func (s *Service) ticket(op Op, t *rt.Ticket, sigma *tgds.Set, dec qos.Decision, maxAtoms int) *Ticket {
	return &Ticket{op: op, rt: t, sigma: sigma, dec: dec, maxAtoms: maxAtoms, stel: s.stel}
}

// Name returns the job's name.
func (t *Ticket) Name() string { return t.rt.Name() }

// Op returns the request's operation.
func (t *Ticket) Op() Op { return t.op }

// Index returns the scheduler's submission sequence number.
func (t *Ticket) Index() int { return t.rt.Index() }

// Cancel preempts the job (idempotent; the Result still arrives, marked
// Canceled when preemption won).
func (t *Ticket) Cancel() { t.rt.Cancel() }

// Progress returns the round-level statistics stream of a chase request
// (latest-wins, closed when the job finishes). It is never nil: for
// operations without a stream it returns an already-closed channel, so
// a consumer ranging over it falls through immediately instead of
// blocking forever, and a select must honor the ok flag.
func (t *Ticket) Progress() <-chan chase.Stats { return t.rt.Progress() }

// Wait blocks until the job finishes and returns its typed result;
// repeated calls return the same result. A budget-truncated chase
// result carries the budget's source (flag, deadline, or learned-bound)
// resolved from the ticket's QoS decision, and the per-mode QoS
// telemetry — outcome counters and the deadline-slack histogram — is
// billed here, once per ticket.
func (t *Ticket) Wait() Result {
	r := resultOf(t.op, t.rt.Wait())
	if r.Chase != nil && !r.Chase.Terminated {
		r.BudgetSource = t.dec.TruncationSource(t.maxAtoms, r.Chase.Stats)
	}
	if t.stel != nil {
		t.qosOnce.Do(func() { t.stel.observeQoS(t.dec, r) })
	}
	return r
}

// EncodeChase waits for a chase result and encodes its materialized
// instance as a portable wire snapshot — the reply-path encode of a
// remote-shaped serving flow. The encode is metered (wire_encode_bytes
// on a telemetry-enabled service) and, when the job is traced,
// recorded as the job's terminal "encode" span. The bytes are
// byte-identical to calling wire.EncodeSnapshot on the result
// directly.
func (t *Ticket) EncodeChase() ([]byte, error) {
	r := t.Wait()
	if r.Err != nil {
		return nil, r.Err
	}
	if r.Chase == nil {
		return nil, wrapErr(t.op, r.Name, KindBadRequest,
			fmt.Errorf("encode: %s result carries no instance", t.op))
	}
	tr := t.rt.Trace()
	start := tr.Now()
	data := wire.EncodeSnapshot(r.Chase.Instance)
	tr.Span("encode", tr.Now().Sub(start), "bytes", strconv.Itoa(len(data)))
	return data, nil
}

// EncodeCheckpoint waits for a chase or resume result and encodes it as
// a portable checkpoint artifact — the hand-off of the incremental
// re-chase flow: serve the artifact now, continue it later through a
// DeltaRequest. The run must have captured resumable state (the
// request's Checkpoint/Chain flag, and a clean stop); otherwise the
// error wraps checkpoint.ErrNotResumable as KindBadRequest. When the
// job is traced, the encode is recorded as a "checkpoint" span.
func (t *Ticket) EncodeCheckpoint() ([]byte, error) {
	r := t.Wait()
	if r.Err != nil {
		return nil, r.Err
	}
	if r.Chase == nil || t.sigma == nil {
		return nil, wrapErr(t.op, r.Name, KindBadRequest,
			fmt.Errorf("encode-checkpoint: %s result carries no chase run", t.op))
	}
	cp, err := checkpoint.Capture(t.sigma, r.Chase)
	if err != nil {
		return nil, wrapErr(t.op, r.Name, KindBadRequest, err)
	}
	tr := t.rt.Trace()
	start := tr.Now()
	data, err := cp.Encode()
	if err != nil {
		return nil, wrapErr(t.op, r.Name, KindInternal, err)
	}
	tr.Span("checkpoint", tr.Now().Sub(start), "bytes", strconv.Itoa(len(data)))
	return data, nil
}

// Result is the typed response envelope: exactly one of Chase, Verdict,
// Table is populated on success (by Op), and Err carries the classified
// *Error on failure. Budget-truncated chase runs are successes with
// Chase.Terminated == false.
type Result struct {
	Op    Op
	Name  string
	Index int
	// Wall is the job's own wall-clock; TimedOut reports the job's wall
	// budget expiring, Canceled a preemption.
	Wall     time.Duration
	TimedOut bool
	Canceled bool

	Chase   *chase.Result
	Verdict *core.Verdict
	Table   *experiments.Table
	Err     error

	// BudgetSource names the budget that stopped a truncated chase run —
	// the vocabulary of the CLI's "% truncated: <source> budget
	// exhausted" marker. Meaningful only when Chase is non-nil and not
	// terminated; the zero value is qos.SourceFlag, the pre-QoS behavior.
	BudgetSource qos.Source
}

// Stats returns the chase statistics of a chase result (zero otherwise).
func (r Result) Stats() chase.Stats {
	if r.Chase == nil {
		return chase.Stats{}
	}
	return r.Chase.Stats
}

// Derivation returns the recorded derivation handle of a chase run that
// asked for one (RecordDerivation), nil otherwise.
func (r Result) Derivation() *chase.Derivation {
	if r.Chase == nil {
		return nil
	}
	return r.Chase.Derivation
}

// resultOf converts a scheduler JobResult into the typed envelope.
func resultOf(op Op, jr rt.JobResult) Result {
	r := Result{
		Op:       op,
		Name:     jr.Name,
		Index:    jr.Index,
		Wall:     jr.Wall,
		TimedOut: jr.TimedOut,
		Canceled: jr.Canceled,
	}
	if jr.Err != nil {
		kind := KindInternal
		if jr.Canceled {
			kind = KindCanceled
		}
		r.Err = wrapErr(op, jr.Name, kind, jr.Err)
		return r
	}
	switch v := jr.Value.(type) {
	case *chase.Result:
		r.Chase = v
	case *core.Verdict:
		r.Verdict = v
	case *experiments.Table:
		r.Table = v
	}
	return r
}
