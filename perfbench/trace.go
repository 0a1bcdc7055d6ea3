package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one recorded span. Spans of one request share Req; Parent is
// the id of the span that caused this one (0 for a root).
type spanRec struct {
	Req    int    `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-layer values in memory until the run ends.
// A nil *tracer records nothing, so the untraced path pays only the clock
// reads its own latency needs.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []spanRec
	vals  map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), vals: make(map[string][]float64)}
}

// span is an open span; end closes it.
type span struct {
	tr     *tracer
	req    int
	id     int64
	parent int64
	name   string
	start  time.Time
}

func (t *tracer) start(req int, parent int64, name string) span {
	s := span{tr: t, req: req, parent: parent, name: name}
	if t != nil {
		s.id = t.ids.Add(1)
	}
	s.start = time.Now()
	return s
}

// end closes the span, records it (with its duration in ms as a value of
// the same name) when tracing, and returns its duration.
func (s span) end() time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if s.tr != nil {
		s.tr.mu.Lock()
		s.tr.spans = append(s.tr.spans, spanRec{
			Req: s.req, ID: s.id, Parent: s.parent, Name: s.name,
			Start: int64(s.start.Sub(s.tr.epoch)), End: int64(now.Sub(s.tr.epoch)),
		})
		s.tr.vals[s.name] = append(s.tr.vals[s.name], ms(d))
		s.tr.mu.Unlock()
	}
	return d
}

// value records one observation of a layer figure that is not a span.
func (t *tracer) value(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.vals[name] = append(t.vals[name], v)
	t.mu.Unlock()
}

// job records the scheduler's share of an in-process request: the job's
// own run time and the time it waited between admission and its start.
func (t *tracer) job(r *reply) {
	t.value("runtime.job_ms", ms(r.wall))
	t.value("runtime.queue_wait_ms", ms(r.wait-r.wall))
}

// mean is the mean of the values recorded under name; 0 when the layer
// is not on the workload's path.
func (t *tracer) mean(name string) float64 {
	vs := t.vals[name]
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layer is one per-layer metric: its name, unit and how to read it off a
// traced run.
type layer struct {
	name, unit string
	get        func(l *layerRun) float64
}

// layerRun is what the per-layer metrics are computed from.
type layerRun struct {
	tr            *tracer
	timed, replay *phase
	cold          []coldStats
	hits, lookups uint64
}

// layers lists the per-layer metrics in BENCHMARK.json's order. Each is
// timed around calls into that module's public functions on the traced
// run's inputs; README.md maps each to the end-to-end metric it moves.
var layers = []layer{
	{"service.admit_ms", "ms", byName("service.admit")},
	{"runtime.queue_wait_ms", "ms", byName("runtime.queue_wait_ms")},
	{"runtime.job_ms", "ms", byName("runtime.job_ms")},
	{"compile.hit_ratio", "ratio", func(l *layerRun) float64 {
		if l.lookups == 0 {
			return 0
		}
		return float64(l.hits) / float64(l.lookups)
	}},
	{"compile.cold_ms", "ms", func(l *layerRun) float64 {
		return coldMedian(l.cold, func(c coldStats) time.Duration { return c.compile })
	}},
	{"chase.run_ms", "ms", byName("chase.run")},
	{"chase.atoms_per_s", "atoms/s", byName("chase.atoms_per_s")},
	{"chase.atoms", "count", byName("chase.atoms")},
	{"chase.rounds", "count", byName("chase.rounds")},
	{"chase.triggers_considered", "count", byName("chase.triggers_considered")},
	{"chase.triggers_fired", "count", byName("chase.triggers_fired")},
	{"chase.full_rechase_ms", "ms", byName("chase.full_rechase")},
	{"logic.add_ns_per_atom", "ns/atom", byName("logic.add_ns_per_atom")},
	{"logic.clone_ms", "ms", byName("logic.clone")},
	{"wire.encode_ms", "ms", byName("wire.encode")},
	{"wire.decode_ms", "ms", byName("wire.decode")},
	{"wire.bytes_per_req", "B", byName("wire.bytes_per_req")},
	{"fleet.hop_ms", "ms", byName("fleet.hop_ms")},
	{"fleet.cold_pull_ms", "ms", func(l *layerRun) float64 {
		return coldMedian(l.cold, func(c coldStats) time.Duration { return c.coldPull })
	}},
	{"checkpoint.decode_ms", "ms", byName("checkpoint.decode")},
	{"checkpoint.resume_ms", "ms", byName("checkpoint.resume")},
	{"checkpoint.encode_ms", "ms", byName("checkpoint.encode")},
	{"checkpoint.artifact_kb", "KiB", byName("checkpoint.artifact_kb")},
	{"guarded.linearize_ms", "ms", byName("guarded.linearize")},
	{"guarded.linear_rules", "count", byName("guarded.linear_rules")},
	{"simplify.run_ms", "ms", byName("simplify.run")},
	{"depgraph.wa_ms", "ms", byName("depgraph.wa")},
	{"core.decide_ms", "ms", byName("core.decide")},
	{"gc.cpu_frac", "ratio", func(l *layerRun) float64 { return l.replay.gcFrac }},
	{"trace.overhead_pct", "%", func(l *layerRun) float64 {
		return (cpuPerReq(l.replay)/cpuPerReq(l.timed) - 1) * 100
	}},
}

func byName(name string) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return l.tr.mean(name) }
}

func coldMedian(cs []coldStats, f func(coldStats) time.Duration) float64 {
	ds := make([]time.Duration, len(cs))
	for i, c := range cs {
		ds[i] = f(c)
	}
	return median(ds) * 1000
}

func cpuPerReq(p *phase) float64 {
	return ms(p.cpu) / float64(max(1, len(p.replies)))
}

// traced replays the timed phase's requests on a fresh stack with spans
// around every layer call, probes the layers on the first requests, and
// sets out's metrics to the per-layer ones.
func traced(w workload, opt options, clients int, timed *phase, cold []coldStats, out *outcome) error {
	st, _, err := w.coldStart()
	if err != nil {
		return fmt.Errorf("traced cold start: %w", err)
	}
	defer st.close()
	if r, ok := w.(inputReleaser); ok {
		r.releaseInputs()
	}
	cache := st.compileCache()
	before := cache.Stats()
	tr := newTracer()
	n := len(timed.replies)
	replay := drive(st, clients, func(i int) bool { return i < n }, tr)
	after := cache.Stats()
	out.attempted += len(replay.replies)
	for i, r := range replay.replies {
		if err := sameAnswer(r, timed.replies[i]); err != nil {
			out.fail(err)
		}
	}
	for _, r := range replay.replies[:min(n, probeRequests)] {
		if r.err != nil {
			continue
		}
		if err := w.probe(st, replay.replies, r, tr); err != nil {
			out.fail(fmt.Errorf("probe of request %d: %w", r.i, err))
		}
	}
	l := &layerRun{
		tr: tr, timed: timed, replay: replay, cold: cold,
		hits:    after.Hits - before.Hits,
		lookups: after.Hits + after.Misses - before.Hits - before.Misses,
	}
	for _, ly := range layers {
		out.metrics = append(out.metrics, metric{ly.name, ly.get(l), ly.unit})
	}
	if rechase := tr.mean("chase.full_rechase"); rechase > 0 {
		resume := tr.mean("checkpoint.decode") + tr.mean("checkpoint.resume") + tr.mean("checkpoint.encode")
		out.extra = append(out.extra, metric{"ratio.resume_vs_rechase", resume / rechase, "x"})
	}
	if enc := tr.mean("wire.encode"); enc > 0 {
		out.extra = append(out.extra, metric{"ratio.wire_decode_vs_encode", tr.mean("wire.decode") / enc, "x"})
	}
	if enc := tr.mean("checkpoint.encode"); enc > 0 {
		out.extra = append(out.extra, metric{"ratio.checkpoint_decode_vs_encode", tr.mean("checkpoint.decode") / enc, "x"})
	}
	path := filepath.Join(opt.traceDir, fmt.Sprintf("perfbench-trace-%s-seed%d.jsonl", opt.workload, opt.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	out.notes = append(out.notes, fmt.Sprintf("trace %d spans written to %s; %d requests replayed, %d probed",
		len(tr.spans), path, len(replay.replies), min(n, probeRequests)))
	return nil
}

// sameAnswer checks a replayed answer against the checked answer the
// timed phase got for the same request.
func sameAnswer(r, want *reply) error {
	if r.err != nil {
		return fmt.Errorf("replayed request %d: %w", r.i, r.err)
	}
	if r.atoms != want.atoms || r.rounds != want.rounds || r.terminated != want.terminated {
		return fmt.Errorf("replayed request %d: %d atoms in %d rounds, the timed phase got %d in %d",
			r.i, r.atoms, r.rounds, want.atoms, want.rounds)
	}
	if (r.verdict == nil) != (want.verdict == nil) ||
		r.verdict != nil && r.verdict.String() != want.verdict.String() {
		return fmt.Errorf("replayed request %d: verdict %v, the timed phase got %v", r.i, r.verdict, want.verdict)
	}
	return nil
}
