// Package repro is a from-scratch Go reproduction of "Non-Uniformly
// Terminating Chase: Size and Complexity" (Calautti, Gottlob, Pieris,
// PODS 2022): the semi-oblivious chase, the non-uniform termination
// characterizations for simple linear, linear, and guarded TGDs, the
// simplification and linearization transformations, the worst-case size
// bound families, and the Appendix A undecidability reduction.
//
// The implementation lives under internal/ (one package per subsystem;
// internal/core carries the termination deciders — the paper's primary
// contribution). DecideSL, DecideL and DecideG (Theorems 6.4, 7.5 and
// 8.3) read D only through a predicate set: D's own, simple(D)'s, or
// gsimple(D) = simple(lin(D))'s, which the linearizer computes in its one
// pass over D, so no decider builds a transformed database. DecideSL,
// DecideL and Decide take the Σ-only analyses from a cross-request cache
// (nil = uncached). Executables live under cmd/ (chase, chtrm, experiments),
// runnable scenarios under examples/, and bench_test.go in this directory
// regenerates every quantitative claim of the paper as a benchmark. See
// README.md for a tour, DESIGN.md for the system inventory and the
// per-experiment index, and EXPERIMENTS.md for recorded paper-vs-measured
// results.
//
// The data plane is integer-interned: internal/logic maintains a
// process-wide symbol table mapping every constant and predicate to a
// dense int32 id below 2^30 (a null's id is 2^30 plus its factory id, so
// creating one touches no shared state), atoms carry their id tuple with a precomputed 64-bit hash,
// instances index atoms by insertion sequence (flat open-addressed tables
// with no pointers map hashes, predicate ids and (column, term id) keys to
// int32 sequence lists kept in one arena, and atoms are read back from
// the insertion order), and the chase keys triggers and canonical nulls by
// interned integer tuples in tables of the same kind. Every join runs a
// logic.BodyProgram, a body compiled once per seed position: the chase
// compiles Σ's bodies once per set, the guarded engine once per engine,
// and a one-shot query compiles the one program it runs. The wire codec
// numbers its manifests in tables of that kind too, and builds and indexes
// a decoded section in bulk. Strings appear only at the boundaries
// (internal/parser and rendering) and as the cross-run canonical identity
// (Instance.CanonicalKey); see the internal/logic package comment for the
// invariants.
//
// The runtime layer (internal/runtime) parallelizes the system across
// jobs: one chase run is sequential (a finite guarded chase is linear in
// |D|, so one request is small), and a streaming Scheduler serves fleets
// of independent chase and decision jobs — one per (D, Σ) request,
// experiment point, or probe — from a long-lived worker set behind a
// bounded admission queue:
// concurrent admission with backpressure at the bound (a Submit waits
// for a slot) through two calls — Submit for opaque jobs, SubmitChase for chase-engine
// jobs whose atom and round budgets live on chase.Options — wall-clock
// budgets and cancellation, per-job results streamed over channels as
// jobs finish, round-level progress events from running chase jobs, and
// a graceful Close that finishes every admitted job. Gather collates a
// fleet's streamed results back into submission order, and a scheduled
// fleet is byte-identical to a direct chase.Run per job (property-tested
// in internal/runtime). The symbol table has lock-free reads and
// instances support concurrent read-only access, so the scheduler's jobs
// may clone one shared input.
// Every tool takes -stream, a pure observability knob; chased and
// experiments take -workers, the width of their scheduler.
//
// The public entry point is the service layer (internal/service): typed
// request envelopes — ChaseRequest, DecideRequest, ExperimentRequest —
// submitted to a Service and answered with typed Results (statistics,
// classified error taxonomy with wrap-checkable sentinels). The
// envelopes carry RequestMeta{Tenant, Priority}, which maps onto the
// scheduler's admission queue: strict priority lanes with round-robin
// per-tenant fair dequeue, so one tenant's backlog cannot starve
// another's. The service realizes the paper's fixed-Σ,
// many-databases access pattern as an API: RegisterOntology(Σ) pins Σ
// under its canonical compile fingerprint and returns the handle, and
// SubmitByFingerprint ships only fingerprint + database per job, with
// the database traveling as one internal/wire portable snapshot. The
// wire codec's symbol manifest (predicates and terms in
// first-occurrence order, nulls as factory id + depth, no process-local
// symbol ids) is the cross-process identity of an instance, exactly as
// CanonicalKey is its cross-run identity and the compile fingerprint is
// the ontology's: a fresh process decodes an instance on which every
// chase run is CanonicalKey- and Stats-identical to the in-process run.
// All three CLIs route through the service layer (and replay JSON
// request files via -request), so the goldens exercise the public
// submission path end to end.
//
// Across requests, internal/compile is the ontology compilation cache:
// every artifact derived from the TGD set Σ alone — the chase engine's
// per-TGD head and body programs (chase.CompiledSet), the simplification
// simple(Σ), the dependency- and predicate-graph analyses, and the
// termination UCQs — is memoized per ontology, so a fleet sharing Σ pays
// analysis once. The cache key is a canonical SHA-256 fingerprint of Σ
// (order-insensitive, α-invariant, duplicate-insensitive, stable across
// processes — the ontology identity fleet jobs and checkpoints carry);
// within a fingerprint entry, compiled artifacts live in
// per-exact-clause-sequence views, because head programs address clauses
// by index and variables by name, and chase.Run re-verifies the match
// before trusting a served compilation. Reads are lock-free (sync.Map +
// atomic recency, in the style of logic.Symbols), entries are
// LRU-bounded, and sets are immutable by convention, so
// "mutating Σ" means building a new set — which fingerprints differently
// and misses. Cached runs are byte-identical to cold runs for all three
// chase variants (property-tested in internal/compile, fuzzed via
// FuzzFingerprint, and pinned end to end by the cmd golden tests);
// chase.Stats reports per-run cache hits and misses.
//
// Incremental re-chase (internal/checkpoint) makes a finished run a
// first-class serving artifact: Capture wraps a chase that ran with
// Options.Checkpoint into a Checkpoint (instance + null high-water mark
// + semi-naive delta window), Encode serializes it portably (a header
// and an embedded wire snapshot, sealed by a checksum; Decode is
// bounds-checked and fuzzed — hostile bytes fail typed, never panic),
// and Resume continues the semi-naive iteration with new base atoms
// landing in the resumed round's delta window, so only the delta's
// consequences are derived. The fired-trigger set does not travel: at a
// clean round boundary it is exactly the keys of the matches inside the
// checkpointed prefix, so a resumed run checks a new key against that
// prefix (one bounded search per fresh key) — for the semi-oblivious
// chase, the paper's (σ, h|fr) trigger identity. The artifact carries
// the ontology's compile fingerprint (service.DeltaRequest resolves Σ
// through the registry by it when none is attached) and an exact
// clause-sequence digest (the continuation's byte identity and
// canonical null names follow clause order, so a resume demands Σ
// verbatim — checkpoint.ErrMismatch otherwise). A differential harness
// pins resume ≡ full re-chase across every example scenario, variant,
// and scheduler width, with checkpoints cut at every intermediate round,
// and over random guarded ontologies; the CLI surface is chase
// -checkpoint/-resume, and scheduler-level resume jobs trace a terminal
// "resume" span.
//
// The distributed fleet (internal/fleet, cmd/chased) puts the service
// layer on the network: chased is a worker daemon serving a framed
// binary protocol over TCP or unix sockets (length-prefixed frames;
// Register/Submit requests, Registered/Progress/Result/Error answers;
// message bodies written and read through internal/codec, every decoder
// bounds-checked and fuzzed), dispatching to an embedded Service. A
// Coordinator fans jobs over N workers with tenant-fair placement,
// warms cold workers through the ontology pull handshake (an unknown
// fingerprint fails typed, the coordinator ships Σ as dlgp text and
// verifies the acked fingerprint), replays exchanges across transport
// tears (a chase job is a pure function of its envelope), and folds
// remote failures back into the service error taxonomy. The three
// portable identities — compile fingerprint for Σ, wire manifest for
// instances, CanonicalKey for results — make the distribution
// invisible: a coordinator fleet over cold chased processes is
// byte-identical (key, stats, result snapshot) to the in-process
// fleet, pinned per scenario and variant by the equivalence suites and
// by cmd/chase -fleet, whose goldens are the single-process ones.
//
// Every binary format — wire snapshots, checkpoint artifacts, fleet
// message bodies, and QoS learned-bound blobs — is written and
// read through one bounds-checked cursor, internal/codec. Each read names
// its bound (a Value fits int32, a Len fits the remaining input, so no
// count sizes an allocation beyond the input), every error wraps the
// owning format's sentinel, and FuzzReader fuzzes the cursor once for
// all four formats. The term-record vocabulary (constants, fresh terms,
// nulls as factory id + depth, variables, foreign keys) lives only in
// internal/wire; a checkpoint artifact carries its terms inside a wire
// snapshot.
//
// The anytime serving tier (internal/qos) turns the paper's central
// hazard — non-uniform termination: whether the chase halts depends on
// the database, not Σ alone — into a latency SLO. A learn-mode run
// profiles a reference chase and stores the observed round and atom
// counts as a LearnedBound pinned next to the compile-cache entry (per
// fingerprint and variant; it survives entry eviction and
// re-registration, and exports as a canonical varint blob the fleet
// coordinator ships to cold workers alongside the ontology pull).
// Requests carry a policy in RequestMeta.QoS: Exact is the default and
// costs nothing (CI pins the zero policy to the hot-path allocation
// baseline); Bounded serves under the learned bound,
// failing fast with the wrap-checkable qos.ErrNoLearnedBound when none
// was profiled; Anytime serves whatever whole rounds fit a deadline or
// an explicit round quota. Anytime truncation happens only at round
// boundaries (chase.Options.RoundGranularInterrupt), so the answer is a
// whole-round prefix — the MaxRounds run of its round count, in process
// and across the fleet. A truncated result
// names the budget that stopped it (flag, deadline, or learned-bound)
// in the CLI's "% truncated" marker, per-mode outcomes and deadline
// slack are billed to telemetry, and XP-QOS quantifies the
// completeness-vs-latency trade the tier offers.
//
// Observability (internal/telemetry) is a zero-dependency layer over the
// serving plane: an atomic metrics Registry (counters, gauges,
// fixed-bucket histograms, capped label vectors), a deterministic
// per-job TraceSink emitting JSON-line spans ordered by (job index,
// seq), and an HTTP Handler serving /healthz, /metrics (Prometheus
// text), and /metrics.json. The layers feed it through seams that keep
// the leaf packages free of telemetry imports: chase.Observer sees
// round boundaries and snapshot-time collectors bridge compile.Stats and
// the symbol table's id high-water mark (symbol_ground_ids); the service
// counts the bytes of its own codec calls. Telemetry is
// opt-in via Config.Telemetry and free when off — every instrumentation
// site is a nil check, and CI pins the disabled path's allocation
// profile against the hot-path baselines its comments record. The CLIs
// surface it as -stats (stderr key-value block), -metrics, and -trace;
// stdout and the goldens stay byte-identical.
package repro
