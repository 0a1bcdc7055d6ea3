package telemetry

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// series returns the value of the named counter or gauge series
// identified by its label values in registration order (none for an
// unlabeled family).
func series(s *Snapshot, name string, values ...string) (float64, bool) {
	for _, f := range s.Families {
		for _, sr := range f.Series {
			if f.Name == name && f.Kind != KindHistogram && slices.Equal(sr.Values, values) {
				return sr.Value, true
			}
		}
	}
	return 0, false
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-3)
	g.Add(1)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	// Idempotent registration resolves the same handles.
	if r.Counter("jobs_total", "jobs") != c || r.Gauge("depth", "queue depth") != g {
		t.Fatal("re-registration returned different handles")
	}
}

// TestHistogramBucketBoundaries pins the bucket assignment rule: a
// value lands in the first bucket whose upper bound is >= it (bounds
// are inclusive upper limits, Prometheus-style), and everything above
// the last bound lands in the implicit +Inf bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 5, 6, 100} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 0.5+1+1.5+2+3+5+6+100 {
		t.Fatalf("sum = %g", h.Sum())
	}
	snap := r.Snapshot()
	hv := snap.Families[0].Series[0].Hist
	want := []uint64{2, 2, 2, 2} // (..1], (1..2], (2..5], (5..+Inf)
	for i, w := range want {
		if hv.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, hv.Counts[i], w, hv.Counts)
		}
	}
	// An observation exactly on a bound goes to that bound's bucket.
	h2 := r.Histogram("edge", "edge", []float64{10})
	h2.Observe(10)
	if s := r.Snapshot(); mustHist(t, s, "edge").Counts[0] != 1 {
		t.Fatal("boundary value did not land in its bound's bucket")
	}
}

func mustHist(t *testing.T, s *Snapshot, name string) *HistValue {
	t.Helper()
	for _, f := range s.Families {
		if f.Name == name {
			return f.Series[0].Hist
		}
	}
	t.Fatalf("no family %q", name)
	return nil
}

// TestSeriesCap: once a family holds SeriesCap distinct label sets,
// every unknown combination collapses into the all-"other" overflow
// series — the cardinality defense against abusive tenants.
func TestSeriesCap(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs", "requests", "tenant")
	v.With("acme").Inc()
	for i := 1; i < SeriesCap; i++ {
		v.With("tenant-" + strconv.Itoa(i)).Inc()
	}
	v.With("attacker-1").Inc()
	v.With("attacker-2").Inc()
	v.With("attacker-2").Inc()
	// Known series are unaffected; the two unknowns share "other".
	snap := r.Snapshot()
	if got, ok := series(snap, "reqs", "acme"); !ok || got != 1 {
		t.Fatalf("acme = %v, %v", got, ok)
	}
	if got, ok := series(snap, "reqs", OverflowLabel); !ok || got != 3 {
		t.Fatalf("overflow = %v, %v (want 3)", got, ok)
	}
	if got, ok := series(snap, "reqs", "attacker-1"); ok {
		t.Fatalf("capped label got its own series: %v", got)
	}
	// The overflow series pins the cap: re-resolving a known value
	// still works after the spill.
	v.With("acme").Inc()
	if got, _ := series(r.Snapshot(), "reqs", "acme"); got != 2 {
		t.Fatalf("acme after spill = %v", got)
	}
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("good_name", "")
	cases := map[string]func(){
		"invalid metric name": func() { r.Counter("bad-name", "") },
		"digit-first name":    func() { r.Counter("9lives", "") },
		"invalid label name":  func() { r.CounterVec("v1", "", "bad-label") },
		"kind mismatch":       func() { r.Gauge("good_name", "") },
		"label mismatch": func() {
			r.CounterVec("v2", "", "a")
			r.CounterVec("v2", "", "b")
		},
		"histogram no bounds": func() { r.Histogram("h1", "", nil) },
		"histogram unsorted bounds": func() {
			r.Histogram("h2", "", []float64{2, 1})
		},
		"vec without labels": func() { r.CounterVec("v3", "") },
		"histogram vec without labels": func() {
			r.HistogramVec("v5", "", []float64{1})
		},
		"wrong With arity": func() {
			r.CounterVec("v6", "", "a", "b").With("only-one")
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestVecKinds covers the counter and histogram vec surfaces.
func TestVecKinds(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("levels", "", "shard")
	c.With("0").Add(3)
	c.With("1").Add(4)
	h := r.HistogramVec("lat", "", []float64{1}, "lane")
	h.With("high").Observe(0.5)
	h.With("high").Observe(2)
	snap := r.Snapshot()
	if v, ok := series(snap, "levels", "1"); !ok || v != 4 {
		t.Fatalf("counter series = %v, %v", v, ok)
	}
	found := false
	for _, f := range snap.Families {
		if f.Name == "lat" {
			found = true
			if f.Series[0].Hist.Count != 2 || f.Series[0].Hist.Counts[1] != 1 {
				t.Fatalf("hist series: %+v", f.Series[0].Hist)
			}
		}
	}
	if !found {
		t.Fatal("histogram family missing from snapshot")
	}
	// Histograms are invisible to the scalar getter.
	if _, ok := series(snap, "lat", "high"); ok {
		t.Fatal("a histogram resolved as a scalar series")
	}
	if _, ok := series(snap, "levels", "nope"); ok {
		t.Fatal("an absent series resolved")
	}
}

// TestConcurrentRegistryWrites hammers every handle kind (and the
// resolution and snapshot paths) from many goroutines — the -race meat
// of the scheduler-stress CI job.
func TestConcurrentRegistryWrites(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{0.5})
	vec := r.CounterVec("v", "", "who")
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j))
				// 2·SeriesCap names through the cap: exercises the spill.
				vec.With(strconv.Itoa((id*per + j) % (2 * SeriesCap))).Inc()
				if j%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	snap := r.Snapshot()
	if v, _ := series(snap, "c"); v != goroutines*per {
		t.Fatalf("counter = %v, want %d", v, goroutines*per)
	}
	if v, _ := series(snap, "g"); v != goroutines*per {
		t.Fatalf("gauge = %v, want %d", v, goroutines*per)
	}
	if got := mustHist(t, snap, "h"); got.Count != goroutines*per {
		t.Fatalf("hist count = %d, want %d", got.Count, goroutines*per)
	}
	// Every vec increment is billed somewhere (own series or "other").
	total := 0.0
	for _, f := range snap.Families {
		if f.Name == "v" {
			for _, s := range f.Series {
				total += s.Value
			}
		}
	}
	if total != goroutines*per {
		t.Fatalf("vec total = %v, want %d", total, goroutines*per)
	}
}

// TestSnapshotRenderings pins both expositions byte for byte on a tiny
// deterministic registry.
func TestSnapshotRenderings(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b help").Add(3)
	r.Gauge("a_depth", "").Set(-2)
	v := r.CounterVec("c_reqs", "c help", "op", "lane")
	v.With("chase", "high").Add(2)
	v.With("decide", "low").Inc()
	h := r.Histogram("d_wait", "d help", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	snap := r.Snapshot()
	var prom strings.Builder
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	wantProm := `# TYPE a_depth gauge
a_depth -2
# HELP b_total b help
# TYPE b_total counter
b_total 3
# HELP c_reqs c help
# TYPE c_reqs counter
c_reqs{op="chase",lane="high"} 2
c_reqs{op="decide",lane="low"} 1
# HELP d_wait d help
# TYPE d_wait histogram
d_wait_bucket{le="0.1"} 1
d_wait_bucket{le="1"} 2
d_wait_bucket{le="+Inf"} 3
d_wait_sum 3.55
d_wait_count 3
`
	if prom.String() != wantProm {
		t.Fatalf("prometheus rendering:\n%s\nwant:\n%s", prom.String(), wantProm)
	}

	var js strings.Builder
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{
  "a_depth": -2,
  "b_total": 3,
  "c_reqs": {
    "op=chase,lane=high": 2,
    "op=decide,lane=low": 1
  },
  "d_wait": {"count": 3, "sum": 3.55, "buckets": {"0.1": 1, "1": 2, "+Inf": 3}}
}
`
	if js.String() != wantJSON {
		t.Fatalf("json rendering:\n%s\nwant:\n%s", js.String(), wantJSON)
	}
}

// TestLabelEscaping: label values with quotes, backslashes, and
// newlines render escaped in the Prometheus exposition.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("e_total", "", "who").With(`a"b\c` + "\nd").Inc()
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `e_total{who="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped rendering %q not in:\n%s", want, b.String())
	}
}

// TestCollector: AddCollector functions run at snapshot time, before
// values are copied out.
func TestCollector(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("bridged", "")
	n := int64(0)
	r.AddCollector(func() { n += 10; g.Set(n) })
	if v, _ := series(r.Snapshot(), "bridged"); v != 10 {
		t.Fatalf("first snapshot = %v", v)
	}
	if v, _ := series(r.Snapshot(), "bridged"); v != 20 {
		t.Fatalf("second snapshot = %v", v)
	}
}

func TestTelemetryEnabled(t *testing.T) {
	var nilTel *Telemetry
	if nilTel.Enabled() {
		t.Fatal("nil telemetry reports enabled")
	}
	if (&Telemetry{}).Enabled() {
		t.Fatal("registry-less telemetry reports enabled")
	}
	if !New().Enabled() {
		t.Fatal("New() telemetry not enabled")
	}
}

func TestKindString(t *testing.T) {
	if KindCounter.String() != "counter" || KindGauge.String() != "gauge" || KindHistogram.String() != "histogram" {
		t.Fatal("kind names broken")
	}
}
