package telemetry

import (
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TraceSink collects per-job span events. One sink serves a whole
// serving plane (scheduler + service); every job records into its own
// JobTrace, and WriteTo renders the union as JSON lines ordered by
// (job index, sequence) — a deterministic order, so the span sequence
// of a deterministic fleet is pinnable.
type TraceSink struct {
	mu     sync.Mutex
	events []TraceEvent
}

// TraceEvent is one recorded span or point event.
type TraceEvent struct {
	Job   string
	Index int
	Seq   int
	Span  string
	// Dur is the span's duration; zero for instantaneous events.
	Dur time.Duration
	// Attrs are ordered key-value pairs (the recording order is part of
	// the deterministic rendering).
	Attrs [][2]string
}

// NewTraceSink returns an empty sink.
func NewTraceSink() *TraceSink { return &TraceSink{} }

// Now reads the clock; nil-safe (zero time when disabled, so an
// untraced span costs no clock read).
func (s *TraceSink) Now() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// Job opens the trace of one job, identified by its name and scheduler
// index (the deterministic ordering key across jobs). Nil-safe: a nil
// sink returns a nil trace, whose recording methods no-op — the
// disabled path is one nil check.
func (s *TraceSink) Job(name string, index int) *JobTrace {
	if s == nil {
		return nil
	}
	return &JobTrace{sink: s, job: name, index: index}
}

// record appends one event, assigning the job's next sequence number.
func (s *TraceSink) record(t *JobTrace, span string, dur time.Duration, attrs []string) {
	ev := TraceEvent{Job: t.job, Index: t.index, Span: span, Dur: dur}
	for i := 0; i+1 < len(attrs); i += 2 {
		ev.Attrs = append(ev.Attrs, [2]string{attrs[i], attrs[i+1]})
	}
	s.mu.Lock()
	t.seq++
	ev.Seq = t.seq
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Events returns a sorted copy of every recorded event.
func (s *TraceSink) Events() []TraceEvent {
	s.mu.Lock()
	out := append([]TraceEvent(nil), s.events...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Index != out[j].Index {
			return out[i].Index < out[j].Index
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteTo renders every event as one JSON line with a fixed key order
// ({"index","job","seq","span","dur_ns","attrs"}), sorted by
// (index, seq).
func (s *TraceSink) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, ev := range s.Events() {
		b.WriteString(`{"index": `)
		b.WriteString(strconv.Itoa(ev.Index))
		b.WriteString(`, "job": `)
		b.WriteString(jsonString(ev.Job))
		b.WriteString(`, "seq": `)
		b.WriteString(strconv.Itoa(ev.Seq))
		b.WriteString(`, "span": `)
		b.WriteString(jsonString(ev.Span))
		b.WriteString(`, "dur_ns": `)
		b.WriteString(strconv.FormatInt(ev.Dur.Nanoseconds(), 10))
		b.WriteString(`, "attrs": {`)
		for i, kv := range ev.Attrs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(jsonString(kv[0]))
			b.WriteString(": ")
			b.WriteString(jsonString(kv[1]))
		}
		b.WriteString("}}\n")
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// JobTrace records one job's spans. All methods are nil-safe no-ops on
// a nil receiver, so call sites need no enabled-check of their own.
type JobTrace struct {
	sink  *TraceSink
	job   string
	index int
	seq   int
}

// Event records an instantaneous event with ordered attr pairs
// (k1, v1, k2, v2, ...; a trailing odd key is dropped).
func (t *JobTrace) Event(span string, attrs ...string) {
	if t == nil {
		return
	}
	t.sink.record(t, span, 0, attrs)
}

// Span records a completed span of duration d.
func (t *JobTrace) Span(span string, d time.Duration, attrs ...string) {
	if t == nil {
		return
	}
	t.sink.record(t, span, d, attrs)
}

// Now reads the sink's clock; nil-safe.
func (t *JobTrace) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.sink.Now()
}
