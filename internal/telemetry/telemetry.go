// Package telemetry is the observability layer of the serving plane: a
// zero-dependency (stdlib-only) metrics registry plus a per-job trace
// sink, wired through internal/service, internal/runtime,
// internal/compile (via its Stats bridge) and internal/chase (via the
// chase.Observer seam). The service bills the wire codec's bytes at the
// codec calls it makes itself.
//
// The paper's central hazard is non-uniform termination: one ontology's
// chase blows up exponentially while its neighbors finish in
// milliseconds. A fleet can only govern that hazard if it can see it,
// per tenant and per ontology — queue depth and queue wait against the
// tenant-fair lanes, rounds and atoms derived per chase, compile-cache
// hits and evictions, wire bytes in and out. This package is that
// surface.
//
// # Metrics
//
// A Registry holds counters, gauges, and fixed-bucket histograms,
// optionally labeled with a small, capped set of label values (tenant,
// priority lane, ontology fingerprint prefix, job kind — low-cardinality
// by construction: once a family holds SeriesCap distinct label sets,
// further label values collapse into one "other" series, so an abusive
// or misconfigured tenant cannot blow up the registry). The hot path is
// allocation-free: callers resolve a *Counter / *Gauge / *Histogram
// handle once (registration and With are the slow path) and then update
// it with plain atomic operations. Registry.Snapshot() returns a
// deterministic, sorted snapshot with two renderings: Prometheus
// exposition text (WritePrometheus) and an expvar-style JSON object
// (WriteJSON).
//
// # Traces
//
// A TraceSink records per-job spans — admission, queue wait, compile,
// sampled chase rounds, result encode — as structured events. WriteTo
// renders them as JSON lines, one event per line, deterministically
// ordered by (job index, sequence) with a fixed key order, so tests can
// pin a deterministic fleet's span sequence.
//
// # Disabled path
//
// Everything is opt-in. A nil *Telemetry (or nil Observer / JobTrace)
// disables the corresponding instrumentation at the cost of
// one nil check on the hot path; BenchmarkTelemetryOverhead and CI's
// allocs/op ceilings pin that the disabled-path allocation profile of
// the serving benches is unchanged.
//
// Handler exposes a registry (plus a health callback) over HTTP —
// GET /healthz, /metrics, /metrics.json — cmd/chased's health surface.
package telemetry

// Telemetry bundles the two observability channels a serving layer
// threads through its layers: the metrics registry (always present on a
// live Telemetry) and an optional per-job trace sink. A nil *Telemetry
// disables instrumentation entirely — the conventional "off" value the
// scheduler and service check for.
type Telemetry struct {
	Registry *Registry
	// Trace, when non-nil, receives per-job span events.
	Trace *TraceSink
}

// New returns a live Telemetry with a fresh registry and no trace sink.
func New() *Telemetry { return &Telemetry{Registry: NewRegistry()} }

// Enabled reports whether t carries a usable registry; it is nil-safe
// and is the single gate instrumented layers test.
func (t *Telemetry) Enabled() bool { return t != nil && t.Registry != nil }
