package telemetry

import (
	"strings"
	"testing"
	"time"
)

// TestTraceDeterministicRendering pins a whole two-job trace byte for
// byte: events interleave across jobs at record time, yet WriteTo
// orders by (index, seq) with a fixed key order.
func TestTraceDeterministicRendering(t *testing.T) {
	sink := NewTraceSink()
	j0 := sink.Job("chase", 0)
	j1 := sink.Job("decide", 1)
	j1.Event("admit", "tenant", "acme")
	j0.Event("admit", "tenant", "anon", "lane", "normal")
	j0.Span("queue", 1500*time.Nanosecond, "lane", "normal")
	j1.Span("run", 2*time.Microsecond)
	j0.Event("chase", "rounds", "3")

	events := sink.Events()
	if len(events) != 5 {
		t.Fatalf("events = %d, want 5", len(events))
	}
	for i := 1; i < len(events); i++ {
		a, b := events[i-1], events[i]
		if a.Index > b.Index || (a.Index == b.Index && a.Seq >= b.Seq) {
			t.Fatalf("events out of order at %d: %+v then %+v", i, a, b)
		}
	}

	var b strings.Builder
	if _, err := sink.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"index": 0, "job": "chase", "seq": 1, "span": "admit", "dur_ns": 0, "attrs": {"tenant": "anon", "lane": "normal"}}
{"index": 0, "job": "chase", "seq": 2, "span": "queue", "dur_ns": 1500, "attrs": {"lane": "normal"}}
{"index": 0, "job": "chase", "seq": 3, "span": "chase", "dur_ns": 0, "attrs": {"rounds": "3"}}
{"index": 1, "job": "decide", "seq": 1, "span": "admit", "dur_ns": 0, "attrs": {"tenant": "acme"}}
{"index": 1, "job": "decide", "seq": 2, "span": "run", "dur_ns": 2000, "attrs": {}}
`
	if b.String() != want {
		t.Fatalf("trace rendering:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestTraceNilSafety: a nil sink yields nil traces whose methods no-op,
// so disabled call sites need no guards of their own.
func TestTraceNilSafety(t *testing.T) {
	var sink *TraceSink
	tr := sink.Job("x", 0)
	if tr != nil {
		t.Fatal("nil sink produced a trace")
	}
	tr.Event("e")             // must not panic
	tr.Span("s", time.Second) // must not panic
	if !tr.Now().IsZero() {
		t.Fatal("nil trace clock not zero")
	}
	if !sink.Now().IsZero() {
		t.Fatal("nil sink clock not zero")
	}
}

// TestTraceOddAttrs: a trailing odd key is dropped, not rendered.
func TestTraceOddAttrs(t *testing.T) {
	sink := NewTraceSink()
	sink.Job("j", 0).Event("e", "k1", "v1", "dangling")
	ev := sink.Events()[0]
	if len(ev.Attrs) != 1 || ev.Attrs[0] != [2]string{"k1", "v1"} {
		t.Fatalf("attrs = %v", ev.Attrs)
	}
}
