package runtime

import (
	"strconv"

	"repro/internal/chase"
	"repro/internal/telemetry"
)

// schedTelemetry holds the scheduler's pre-resolved metric handles — the
// registration (names, labels, buckets) happens once at NewScheduler, so
// the per-job path only touches atomics. A nil *schedTelemetry is the
// disabled scheduler: every instrumentation site guards on it, and the
// disabled path's allocation profile is pinned by
// BenchmarkTelemetryOverhead / BENCH_obs.json.
type schedTelemetry struct {
	trace *telemetry.TraceSink // nil when tracing is off

	admitted   *telemetry.CounterVec // scheduler_jobs_admitted_total{lane,tenant}
	completed  *telemetry.CounterVec // scheduler_jobs_completed_total{outcome}
	queueDepth *telemetry.Gauge      // scheduler_queue_depth
	queueWait  [3]*telemetry.Histogram

	rounds   *telemetry.Counter // chase_rounds_total
	atoms    *telemetry.Counter // chase_atoms_derived_total
	triggers *telemetry.Counter // chase_triggers_fired_total
}

// newSchedTelemetry wires the scheduler's families into tel's registry;
// it returns nil (telemetry fully off) unless tel carries a registry.
func newSchedTelemetry(tel *telemetry.Telemetry) *schedTelemetry {
	if !tel.Enabled() {
		return nil
	}
	r := tel.Registry
	m := &schedTelemetry{
		trace: tel.Trace,
		admitted: r.CounterVec("scheduler_jobs_admitted_total",
			"Jobs admitted to the scheduler queue, by priority lane and tenant.",
			"lane", "tenant"),
		completed: r.CounterVec("scheduler_jobs_completed_total",
			"Jobs completed, by outcome (succeeded, failed, canceled, timeout).",
			"outcome"),
		queueDepth: r.Gauge("scheduler_queue_depth",
			"Jobs admitted but not yet claimed by a worker."),
		rounds: r.Counter("chase_rounds_total",
			"Chase saturation rounds completed across all jobs."),
		atoms: r.Counter("chase_atoms_derived_total",
			"Atoms derived (beyond the input database) across all chase jobs."),
		triggers: r.Counter("chase_triggers_fired_total",
			"Triggers fired across all chase jobs."),
	}
	waits := r.HistogramVec("scheduler_queue_wait_seconds",
		"Seconds a job waited between admission and a worker claiming it, by priority lane.",
		telemetry.TimeBuckets, "lane")
	for i, lane := range []Priority{PriorityHigh, PriorityNormal, PriorityLow} {
		m.queueWait[i] = waits.With(lane.String())
	}
	return m
}

// waitHist resolves the pre-registered queue-wait histogram of a lane.
func (m *schedTelemetry) waitHist(p Priority) *telemetry.Histogram {
	switch {
	case p > PriorityNormal:
		return m.queueWait[0]
	case p < PriorityNormal:
		return m.queueWait[2]
	default:
		return m.queueWait[1]
	}
}

// tenantLabel maps the anonymous tenant onto a printable label value.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "anon"
	}
	return tenant
}

// outcomeOf classifies a finished job the way the completion counter
// bills it, mirroring JobResult's flags.
func outcomeOf(r JobResult) string {
	switch {
	case r.Canceled:
		return "canceled"
	case r.TimedOut && r.Err != nil:
		return "timeout"
	case r.Err != nil:
		return "failed"
	default:
		return "succeeded"
	}
}

// chaseObserver adapts chase.Observer onto the scheduler's telemetry:
// per-round counter feeds plus sampled per-round trace spans. One
// observer serves one job; the engine calls it from its own goroutine
// only, so the non-atomic cursor fields are safe.
type chaseObserver struct {
	m     *schedTelemetry
	trace *telemetry.JobTrace // the ticket's trace; nil when tracing is off
	kind  string              // terminal span name: "chase", or "resume" for resumed jobs

	started    bool
	prevAtoms  int
	prevFired  int
	prevRounds int
}

// ObserveRound meters the round's deltas and, for sampled rounds
// (powers of two — a deterministic, log-sized sample of arbitrarily
// long runs), records a round span.
func (o *chaseObserver) ObserveRound(st chase.Stats) {
	o.bill(st)
	if o.trace != nil && sampledRound(st.Rounds) {
		o.trace.Event("round",
			"round", strconv.Itoa(st.Rounds),
			"atoms", strconv.Itoa(st.Atoms),
			"fired", strconv.Itoa(st.TriggersFired))
	}
}

// ObserveDone records the run's compile-cache interaction and terminal
// chase or resume span. Counters were already fed round by round; a run
// interrupted before its first round boundary still reports its final
// stats here, so account any remainder.
func (o *chaseObserver) ObserveDone(st chase.Stats, terminated bool) {
	o.bill(st)
	if o.trace != nil {
		if st.CompileHits+st.CompileMisses > 0 {
			cache := "miss"
			if st.CompileHits > 0 {
				cache = "hit"
			}
			o.trace.Event("compile", "cache", cache)
		}
		o.trace.Event(o.kind,
			"rounds", strconv.Itoa(st.Rounds),
			"atoms", strconv.Itoa(st.Atoms),
			"terminated", strconv.FormatBool(terminated))
	}
}

// bill feeds the counters the deltas since the previous call.
func (o *chaseObserver) bill(st chase.Stats) {
	if !o.started {
		o.started = true
		o.prevAtoms = st.InitialAtoms
	}
	o.m.rounds.Add(uint64(st.Rounds - o.prevRounds))
	o.m.atoms.Add(uint64(st.Atoms - o.prevAtoms))
	o.m.triggers.Add(uint64(st.TriggersFired - o.prevFired))
	o.prevRounds, o.prevAtoms, o.prevFired = st.Rounds, st.Atoms, st.TriggersFired
}

// sampledRound reports whether a round index is in the deterministic
// trace sample: the powers of two (1, 2, 4, 8, ...).
func sampledRound(n int) bool {
	return n > 0 && n&(n-1) == 0
}
