package service

import (
	"encoding/hex"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/compile"
	"repro/internal/logic"
	"repro/internal/qos"
	"repro/internal/telemetry"
)

// svcTelemetry holds the service layer's pre-resolved metric handles.
// Like the scheduler's, it is nil when Config.Telemetry carries no
// registry, and every instrumentation site guards on that — the
// disabled service adds nothing but nil checks to the submit path.
type svcTelemetry struct {
	requests *telemetry.CounterVec // service_requests_total{op,lane,tenant}
	byOnt    *telemetry.CounterVec // service_requests_by_ontology_total{ontology}

	qosRequests *telemetry.CounterVec // service_qos_requests_total{mode,outcome}
	qosSlack    *telemetry.Histogram  // service_qos_deadline_slack_seconds
	qosLearned  *telemetry.Counter    // service_qos_bounds_learned_total

	wireEncoded *telemetry.Counter // wire_encode_bytes
	wireDecoded *telemetry.Counter // wire_decode_bytes
}

// newSvcTelemetry wires the service families into tel's registry and
// bridges the subsystems that keep their own counters, the compile cache
// and the symbol table's id high-water mark, through snapshot
// collectors. The codec byte counters are billed by the service itself,
// at the four codec calls it makes, so each service counts only its own
// payloads and artifacts.
func newSvcTelemetry(tel *telemetry.Telemetry, cache *compile.Cache) *svcTelemetry {
	if !tel.Enabled() {
		return nil
	}
	r := tel.Registry
	m := &svcTelemetry{
		requests: r.CounterVec("service_requests_total",
			"Requests admitted through the service surface, by operation, priority lane, and tenant.",
			"op", "lane", "tenant"),
		byOnt: r.CounterVec("service_requests_by_ontology_total",
			"Requests by ontology fingerprint prefix (inline = ontology attached to the request).",
			"ontology"),
		qosRequests: r.CounterVec("service_qos_requests_total",
			"Finished requests by QoS mode (exact, bounded, anytime) and outcome (terminated, truncated, canceled, error).",
			"mode", "outcome"),
		qosSlack: r.Histogram("service_qos_deadline_slack_seconds",
			"Unused fraction of an anytime deadline: deadline minus the job's wall clock, clamped at zero.",
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}),
		qosLearned: r.Counter("service_qos_bounds_learned_total",
			"Termination bounds stored by learn-mode runs."),
		wireEncoded: r.Counter("wire_encode_bytes",
			"Bytes this service encoded: result snapshots (EncodeChase) and checkpoint artifacts (EncodeCheckpoint)."),
		wireDecoded: r.Counter("wire_decode_bytes",
			"Bytes this service decoded successfully at admission: snapshot payloads and checkpoint artifacts."),
	}
	registerCacheCollector(r, cache)
	symbols := r.Gauge("symbol_ground_ids",
		"Ground symbol ids handed out by the process: one per constant, fresh or foreign term interned, never reused; nulls take none. Interning fails at 2^30.")
	r.AddCollector(func() { symbols.Set(logic.GroundIDs()) })
	return m
}

// observeRequest bills one admitted request. The ontology label is the
// fingerprint's first 8 hex digits — low-cardinality under the family
// cap, yet enough to tell fleets apart — "inline" when the request
// carries Σ itself, "none" for ontology-less requests (experiments).
func (m *svcTelemetry) observeRequest(op Op, meta RequestMeta, ref OntologyRef) {
	tenant := meta.Tenant
	if tenant == "" {
		tenant = "anon"
	}
	m.requests.With(op.String(), meta.Priority.String(), tenant).Inc()
	ont := "none"
	switch {
	case ref.Set != nil:
		ont = "inline"
	case ref.Fingerprint != (compile.Fingerprint{}):
		ont = hex.EncodeToString(ref.Fingerprint[:4])
	}
	m.byOnt.With(ont).Inc()
}

// observeQoS bills one finished request's QoS outcome: the per-mode
// counter, the deadline-slack histogram for anytime runs, and the
// learned-bound counter for learn-mode runs that finished with a result
// to record. Called once per ticket, from the first Wait.
func (m *svcTelemetry) observeQoS(dec qos.Decision, r Result) {
	outcome := "terminated"
	switch {
	case r.Canceled:
		outcome = "canceled"
	case r.Err != nil:
		outcome = "error"
	case r.TimedOut, r.Chase != nil && !r.Chase.Terminated:
		outcome = "truncated"
	}
	m.qosRequests.With(dec.Mode.String(), outcome).Inc()
	if dec.Deadline > 0 {
		slack := (dec.Deadline - r.Wall).Seconds()
		if slack < 0 {
			slack = 0
		}
		m.qosSlack.Observe(slack)
	}
	if dec.Learn && r.Err == nil && r.Chase != nil {
		m.qosLearned.Inc()
	}
}

// registerCacheCollector publishes the compile cache's own counters
// through the registry: a Snapshot-time collector converts the cache's
// cumulative Stats into counter deltas (hits, misses, evictions) and
// gauge levels (bytes, entries). The cache's counters only grow, and the
// collector keeps its last-seen cursor under a lock so concurrent
// snapshots never double-bill.
func registerCacheCollector(r *telemetry.Registry, cache *compile.Cache) {
	hits := r.Counter("compile_cache_hits",
		"Compilation cache artifact hits.")
	misses := r.Counter("compile_cache_misses",
		"Compilation cache artifact misses (first build of an artifact).")
	evictions := r.Counter("compile_cache_evictions",
		"Compilation cache entries evicted by its LRU entry bound.")
	bytes := r.Gauge("compile_cache_bytes",
		"Approximate bytes held by cached compilation artifacts.")
	entries := r.Gauge("compile_cache_entries",
		"Ontology entries resident in the compilation cache.")
	var (
		mu   sync.Mutex
		prev compile.Stats
	)
	r.AddCollector(func() {
		st := cache.Stats()
		mu.Lock()
		hits.Add(st.Hits - prev.Hits)
		misses.Add(st.Misses - prev.Misses)
		evictions.Add(st.Evictions - prev.Evictions)
		prev = st
		mu.Unlock()
		bytes.Set(st.Bytes)
		entries.Set(int64(st.Entries))
	})
}

// Metrics snapshots the service's registry — the programmatic face of
// the /metrics endpoint. It returns nil when the service was built
// without telemetry.
func (s *Service) Metrics() *telemetry.Snapshot {
	if !s.tel.Enabled() {
		return nil
	}
	return s.tel.Registry.Snapshot()
}

// Handler returns the service's serving-plane health surface — the
// telemetry HTTP handler (GET /healthz, /metrics, /metrics.json)
// backed by this service's registry, with live scheduler and cache
// health fields — or nil when the service was built without telemetry.
func (s *Service) Handler() http.Handler {
	if !s.tel.Enabled() {
		return nil
	}
	return telemetry.Handler(s.tel.Registry, func() map[string]string {
		return map[string]string{
			"workers":       strconv.Itoa(s.sched.Workers()),
			"queue_bound":   strconv.Itoa(s.sched.QueueBound()),
			"queue_len":     strconv.Itoa(s.sched.QueueLen()),
			"cache_entries": strconv.Itoa(s.cache.Len()),
		}
	})
}
