package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value that may move both ways.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String returns the Prometheus type name.
func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// SeriesCap is the per-family bound on distinct label sets. Once a
// family holds this many series, every further label combination
// collapses into one series whose label values are all "other" — the
// cardinality cap that keeps an abusive tenant from growing the
// registry without bound.
const SeriesCap = 64

// OverflowLabel is the label value of the capped overflow series.
const OverflowLabel = "other"

// TimeBuckets is the conventional latency bucket ladder (seconds) used
// by the queue-wait and encode histograms: 10µs to 10s, decades.
var TimeBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// Counter is a monotone event or byte count. Handles are resolved once
// (Registry.Counter or CounterVec.With) and updated with one atomic add
// — the allocation-free hot path.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer value (queue depth, cache bytes).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-boundary distribution: Observe finds the first
// bucket whose upper bound holds v (the last, implicit +Inf bucket
// catches the rest) and bumps it, the total count, and the sum — all
// atomically, allocation-free.
type Histogram struct {
	bounds  []float64 // upper bounds, strictly increasing
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// labeled is one series slot: exactly one of c/g/h is live, per the
// family's kind.
type labeled struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one metric name's registration: its kind, label keys, and
// the capped series map.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram families only

	mu       sync.RWMutex
	series   map[string]*labeled
	overflow *labeled // lazily created cap spill, all labels "other"
}

// Registry is a set of metric families. Registration is idempotent:
// asking for an existing name with the same kind and label keys returns
// the same family (and therefore the same handles), so layers sharing a
// registry converge on one series; a kind or label mismatch panics, as
// a programming error would under any metrics library.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// AddCollector registers fn to run at the start of every Snapshot —
// the bridge for subsystems that keep their own counters (the compile
// cache's Stats) and only need them published, not re-instrumented.
func (r *Registry) AddCollector(fn func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// validName matches the conventional metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register resolves or creates the named family.
func (r *Registry) register(name, help string, kind Kind, bounds []float64, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %s", l, name))
		}
	}
	if kind == KindHistogram {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("telemetry: histogram %s needs at least one bucket bound", name))
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %s bounds must be strictly increasing", name))
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: %s re-registered with a different kind or label set", name))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: make(map[string]*labeled),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or resolves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, nil, nil).slot(nil).c
}

// Gauge registers (or resolves) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, nil, nil).slot(nil).g
}

// Histogram registers (or resolves) an unlabeled fixed-bucket
// histogram; bounds are the buckets' upper limits, strictly increasing
// (an implicit +Inf bucket is appended).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, KindHistogram, bounds, nil).slot(nil).h
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("telemetry: %s: a vec needs labels (use Counter)", name))
	}
	return &CounterVec{r.register(name, help, KindCounter, nil, labels)}
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("telemetry: %s: a vec needs labels (use Histogram)", name))
	}
	return &HistogramVec{r.register(name, help, KindHistogram, bounds, labels)}
}

// CounterVec is a labeled counter family; With resolves one series.
type CounterVec struct{ fam *family }

// With resolves the series for the given label values (one per label
// key, in registration order). Resolution is the slow path — hold the
// returned handle where updates are hot.
func (v *CounterVec) With(values ...string) *Counter { return v.fam.slot(values).c }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ fam *family }

// With resolves the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.fam.slot(values).h }

// slot resolves (creating if necessary, capping if full) the series for
// the given label values.
func (f *family) slot(values []string) *labeled {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x1f")
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	if len(f.series) >= SeriesCap {
		// Cardinality cap: the family is full, so this — and every further
		// unknown — label combination shares the "other" series.
		if f.overflow == nil {
			over := make([]string, len(f.labels))
			for i := range over {
				over[i] = OverflowLabel
			}
			f.overflow = f.newSeries(over)
			f.series[strings.Join(over, "\x1f")] = f.overflow
		}
		return f.overflow
	}
	s = f.newSeries(append([]string(nil), values...))
	f.series[key] = s
	return s
}

func (f *family) newSeries(values []string) *labeled {
	s := &labeled{values: values}
	switch f.kind {
	case KindCounter:
		s.c = &Counter{}
	case KindGauge:
		s.g = &Gauge{}
	default:
		s.h = &Histogram{
			bounds: f.bounds,
			counts: make([]atomic.Uint64, len(f.bounds)+1),
		}
	}
	return s
}

// Snapshot materializes a deterministic snapshot: collectors run first,
// then every family (sorted by name) and every series (sorted by label
// values) is copied out. Concurrent writers are fine — each value is an
// atomic read — though a snapshot taken mid-update is only per-value
// consistent, as with any live metrics endpoint.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	collectors := append([]func(){}, r.collectors...)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn()
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	snap := &Snapshot{Families: make([]Family, 0, len(fams))}
	for _, f := range fams {
		snap.Families = append(snap.Families, f.snapshot())
	}
	return snap
}

func (f *family) snapshot() Family {
	f.mu.RLock()
	series := make([]*labeled, 0, len(f.series))
	for _, s := range f.series {
		series = append(series, s)
	}
	f.mu.RUnlock()
	sort.Slice(series, func(i, j int) bool {
		a, b := series[i].values, series[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	fam := Family{
		Name:   f.name,
		Help:   f.help,
		Kind:   f.kind,
		Labels: append([]string(nil), f.labels...),
		Series: make([]Series, 0, len(series)),
	}
	for _, s := range series {
		out := Series{Values: append([]string(nil), s.values...)}
		switch f.kind {
		case KindCounter:
			out.Value = float64(s.c.Value())
		case KindGauge:
			out.Value = float64(s.g.Value())
		default:
			h := HistValue{
				Bounds: append([]float64(nil), f.bounds...),
				Counts: make([]uint64, len(s.h.counts)),
				Sum:    s.h.Sum(),
				Count:  s.h.Count(),
			}
			for i := range s.h.counts {
				h.Counts[i] = s.h.counts[i].Load()
			}
			out.Hist = &h
		}
		fam.Series = append(fam.Series, out)
	}
	return fam
}
