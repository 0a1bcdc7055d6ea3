package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/checkpoint"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// series returns the value of the named counter or gauge series
// identified by its label values in registration order (none for an
// unlabeled family).
func series(s *telemetry.Snapshot, name string, values ...string) (float64, bool) {
	for _, f := range s.Families {
		for _, sr := range f.Series {
			if f.Name == name && f.Kind != telemetry.KindHistogram && slices.Equal(sr.Values, values) {
				return sr.Value, true
			}
		}
	}
	return 0, false
}

// TestServiceTelemetryDisabled: a service without telemetry keeps the
// whole surface nil-safe — Metrics and Handler.
func TestServiceTelemetryDisabled(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	if s.Metrics() != nil || s.Handler() != nil {
		t.Fatal("disabled service exposes telemetry surfaces")
	}
}

// TestServiceRequestMetrics: every submitted request is billed to
// service_requests_total{op,lane,tenant} and to its ontology
// fingerprint prefix ("inline" for attached Σ).
func TestServiceRequestMetrics(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	tel := telemetry.New()
	s := newService(t, Config{Workers: 1, Telemetry: tel})

	// One inline chase (tenant acme, high lane), one fingerprinted
	// chase, one decide, one experiment.
	if _, err := s.SubmitChase(context.Background(), ChaseRequest{
		Meta:     RequestMeta{Tenant: "acme", Priority: PriorityHigh},
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	}); err != nil {
		t.Fatal(err)
	}
	h, err := s.RegisterOntology(prog.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitByFingerprint(context.Background(), h.Fingerprint,
		Payload{Instance: prog.Database}, ChaseRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitDecide(context.Background(), DecideRequest{
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitExperiment(context.Background(), ExperimentRequest{
		ID: "XP-DEPTH", Quick: true,
	}); err != nil {
		t.Fatal(err)
	}
	s.Close() // finishes every admitted job

	snap := s.Metrics()
	for _, c := range []struct {
		values []string
		want   float64
	}{
		{[]string{"chase", "high", "acme"}, 1},
		{[]string{"chase", "normal", "anon"}, 1},
		{[]string{"decide", "normal", "anon"}, 1},
		{[]string{"experiment", "normal", "anon"}, 1},
	} {
		if got, ok := series(snap, "service_requests_total", c.values...); !ok || got != c.want {
			t.Fatalf("service_requests_total%v = %v, %v (want %v)", c.values, got, ok, c.want)
		}
	}
	prefix := hex.EncodeToString(h.Fingerprint[:4])
	if got, _ := series(snap, "service_requests_by_ontology_total", prefix); got != 1 {
		t.Fatalf("by-ontology{%s} = %v, want 1", prefix, got)
	}
	if got, _ := series(snap, "service_requests_by_ontology_total", "inline"); got != 2 {
		t.Fatalf("by-ontology{inline} = %v, want 2", got)
	}
	if got, _ := series(snap, "service_requests_by_ontology_total", "none"); got != 1 {
		t.Fatalf("by-ontology{none} = %v, want 1 (the experiment)", got)
	}
	// The compile-cache bridge published through the same snapshot.
	if _, ok := series(snap, "compile_cache_hits"); !ok {
		t.Fatal("compile_cache_hits missing from snapshot")
	}
	misses, _ := series(snap, "compile_cache_misses")
	if misses <= 0 {
		t.Fatalf("compile_cache_misses = %v, want > 0", misses)
	}
	if entries, _ := series(snap, "compile_cache_entries"); entries <= 0 {
		t.Fatalf("compile_cache_entries = %v, want > 0", entries)
	}
}

// TestServiceSymbolGauge: symbol_ground_ids, read at snapshot time, is
// the symbol table's id high-water mark, and nulls take no table id: a
// null's id is a function of its factory id. Decoding a snapshot whose
// constants are all known leaves the gauge where it was, however many
// nulls the snapshot carries, and so does the chase that follows, which
// invents no null.
func TestServiceSymbolGauge(t *testing.T) {
	prog := parserProg(t, "e(a, b). e(b, c). e(X, Y) -> ∃Z m(Y, Z).")
	res := chase.Run(prog.Database, prog.Rules, chase.Options{})
	if res.Instance.MaxNullID() < 0 {
		t.Fatal("the snapshot must carry nulls")
	}
	snapBytes := wire.EncodeSnapshot(res.Instance)

	s := New(Config{Workers: 1, Telemetry: telemetry.New()})
	defer s.Close()
	h, err := s.RegisterOntology(parserProg(t, "m(X, Y) -> n(X).").Rules)
	if err != nil {
		t.Fatal(err)
	}
	before, ok := series(s.Metrics(), "symbol_ground_ids")
	if !ok || before <= 0 {
		t.Fatalf("symbol_ground_ids = %v (published %v), want > 0", before, ok)
	}
	tk, err := s.SubmitByFingerprint(context.Background(), h.Fingerprint, Payload{Snapshot: snapBytes}, ChaseRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
	if after, _ := series(s.Metrics(), "symbol_ground_ids"); after != before {
		t.Fatalf("symbol_ground_ids went from %v to %v over a decode of %d nulls, want unchanged", before, after, res.Stats.Nulls)
	}
}

// TestServiceWireMeter: the service's own codec calls feed
// wire_decode_bytes and wire_encode_bytes with exactly their bytes: a
// snapshot payload decoded at admission, EncodeChase's snapshot, a
// checkpoint artifact decoded by SubmitDelta and EncodeCheckpoint's
// artifact. An encode the service does not make bills nothing.
func TestServiceWireMeter(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	snapBytes := wire.EncodeSnapshot(prog.Database)

	tel := telemetry.New()
	s := newService(t, Config{Workers: 1, Telemetry: tel})
	counts := func() (enc, dec float64) {
		m := s.Metrics()
		enc, _ = series(m, "wire_encode_bytes")
		dec, _ = series(m, "wire_decode_bytes")
		return enc, dec
	}
	tk, err := s.SubmitChase(context.Background(), ChaseRequest{
		Database:   Payload{Snapshot: snapBytes},
		Ontology:   OntologyRef{Set: prog.Rules},
		Checkpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := tk.EncodeChase()
	if err != nil {
		t.Fatal(err)
	}
	// The encoded result round-trips to the materialized instance.
	dec, err := wire.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != tk.Wait().Chase.Instance.Len() {
		t.Fatal("encoded result does not round-trip")
	}
	if enc, dec := counts(); enc != float64(len(data)) || dec != float64(len(snapBytes)) {
		t.Fatalf("after one chase: encode %v, decode %v bytes; want %d, %d", enc, dec, len(data), len(snapBytes))
	}

	art, err := tk.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	rtk, err := s.SubmitDelta(context.Background(), DeltaRequest{Checkpoint: art, Ontology: OntologyRef{Set: prog.Rules}})
	if err != nil {
		t.Fatal(err)
	}
	waitChase(t, rtk)
	wantEnc, wantDec := len(data)+len(art), len(snapBytes)+len(art)
	if enc, dec := counts(); enc != float64(wantEnc) || dec != float64(wantDec) {
		t.Fatalf("after a checkpoint round trip: encode %v, decode %v bytes; want %d, %d", enc, dec, wantEnc, wantDec)
	}
	_ = wire.EncodeSnapshot(prog.Database)
	if _, err := wire.DecodeSnapshot(snapBytes); err != nil {
		t.Fatal(err)
	}
	if enc, dec := counts(); enc != float64(wantEnc) || dec != float64(wantDec) {
		t.Fatalf("codec calls outside the service billed it: encode %v, decode %v bytes", enc, dec)
	}

	// EncodeChase on a non-chase result fails typed.
	s2 := newService(t, Config{Workers: 1})
	dtk, err := s2.SubmitDecide(context.Background(), DecideRequest{
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dtk.EncodeChase(); err == nil {
		t.Fatal("EncodeChase on a decide ticket succeeded")
	}
}

// TestServiceEncodeTraceSpan: a traced chase job's EncodeChase records
// the terminal "encode" span.
func TestServiceEncodeTraceSpan(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	tel := telemetry.New()
	tel.Trace = telemetry.NewTraceSink()
	s := newService(t, Config{Workers: 1, Telemetry: tel})
	tk, err := s.SubmitChase(context.Background(), ChaseRequest{
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.EncodeChase(); err != nil {
		t.Fatal(err)
	}
	events := tel.Trace.Events()
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	last := events[len(events)-1]
	if last.Span != "encode" {
		t.Fatalf("last span = %q, want encode (all: %+v)", last.Span, events)
	}
	var b bytes.Buffer
	if _, err := tel.Trace.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"span": "admit"`) {
		t.Fatalf("trace rendering misses the admit span:\n%s", b.String())
	}
}

// TestServiceEncodeUntracedAllocs: with tracing off, EncodeChase and
// EncodeCheckpoint allocate exactly what the encodes underneath them do:
// an untraced ticket skips its span, rendering of the byte count
// included.
func TestServiceEncodeUntracedAllocs(t *testing.T) {
	var src strings.Builder
	for i := range 12 {
		fmt.Fprintf(&src, "e(n%d, n%d). ", i, i+1)
	}
	prog := parserProg(t, src.String()+"e(X, Y), e(Y, Z) -> e(X, Z).")
	s := newService(t, Config{Workers: 1})
	tk, err := s.SubmitChase(context.Background(), ChaseRequest{
		Database:   Payload{Instance: prog.Database},
		Ontology:   OntologyRef{Set: prog.Rules},
		Checkpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitChase(t, tk)
	// strconv.Itoa allocates for any count of 100 or more.
	if n := len(wire.EncodeSnapshot(res.Instance)); n < 100 {
		t.Fatalf("fixture encodes to %d bytes, want at least 100", n)
	}
	encode := testing.AllocsPerRun(20, func() { wire.EncodeSnapshot(res.Instance) })
	if got := testing.AllocsPerRun(20, func() {
		if _, err := tk.EncodeChase(); err != nil {
			t.Fatal(err)
		}
	}); got != encode {
		t.Errorf("untraced EncodeChase: %v allocs, wire.EncodeSnapshot %v", got, encode)
	}
	capture := testing.AllocsPerRun(20, func() {
		cp, err := checkpoint.Capture(prog.Rules, res)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cp.Encode(); err != nil {
			t.Fatal(err)
		}
	})
	if got := testing.AllocsPerRun(20, func() {
		if _, err := tk.EncodeCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}); got != capture {
		t.Errorf("untraced EncodeCheckpoint: %v allocs, Capture+Encode %v", got, capture)
	}
}

// TestServiceHandler: the health surface serves liveness with scheduler
// and cache fields plus both metric expositions.
func TestServiceHandler(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	tel := telemetry.New()
	s := newService(t, Config{Workers: 2, QueueBound: 4, Telemetry: tel})
	tk, err := s.SubmitChase(context.Background(), ChaseRequest{
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	if err != nil {
		t.Fatal(err)
	}
	tk.Wait()

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := `{"status": "ok", "cache_entries": "1", "queue_bound": "4", "queue_len": "0", "workers": "2"}` + "\n"
	if string(body) != want {
		t.Fatalf("healthz = %q, want %q", body, want)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `service_requests_total{op="chase",lane="normal",tenant="anon"} 1`) {
		t.Fatalf("metrics exposition misses the request counter:\n%s", body)
	}
}

// TestTwoServiceWireMeters: two live telemetry-enabled Services in one
// process each count only their own codec traffic, snapshots and
// checkpoint artifacts alike, whatever the other one does and whichever
// closes first.
func TestTwoServiceWireMeters(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	snap := wire.EncodeSnapshot(prog.Database)

	s1 := newService(t, Config{Workers: 1, Telemetry: telemetry.New()})
	s2 := newService(t, Config{Workers: 1, Telemetry: telemetry.New()})

	// run decodes a snapshot payload and encodes a checkpoint artifact;
	// it returns the artifact's size.
	run := func(s *Service) int {
		t.Helper()
		tk, err := s.SubmitChase(context.Background(), ChaseRequest{
			Database:   Payload{Snapshot: snap},
			Ontology:   OntologyRef{Set: prog.Rules},
			Checkpoint: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		art, err := tk.EncodeCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		return len(art)
	}
	counts := func(s *Service) (enc, dec float64) {
		m := s.Metrics()
		enc, _ = series(m, "wire_encode_bytes")
		dec, _ = series(m, "wire_decode_bytes")
		return enc, dec
	}
	want := func(name string, s *Service, enc, dec int) {
		t.Helper()
		if e, d := counts(s); e != float64(enc) || d != float64(dec) {
			t.Fatalf("%s: encode %v, decode %v bytes; want %d, %d", name, e, d, enc, dec)
		}
	}

	art := run(s1)
	want("s2 after s1's chase", s2, 0, 0)
	want("s1 after its chase", s1, art, len(snap))

	run(s2)
	run(s2)
	want("s1 after s2's traffic", s1, art, len(snap))
	want("s2 after its two chases", s2, 2*art, 2*len(snap))

	// Closing the first-constructed service leaves the second counting.
	s1.Close()
	run(s2)
	want("closed s1", s1, art, len(snap))
	want("s2 after s1 closed", s2, 3*art, 3*len(snap))
}
