package fleet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/qos"
)

// FuzzFleetFrame throws arbitrary bytes at the frame reader and, for
// frames that parse, at every message decoder. Decoders must never
// panic, and any message that decodes must survive a re-encode →
// re-decode round trip byte-identically (the encode∘decode fixpoint the
// equivalence suites lean on).
func FuzzFleetFrame(f *testing.F) {
	f.Add(appendFrame(nil, kindRegister, encodeRegister(registerMsg{Rules: "p(X) -> q(X)."})))
	f.Add(appendFrame(nil, kindRegister, encodeRegister(registerMsg{
		Rules: "p(X) -> q(X).",
		Bounds: qos.EncodeBounds([]compile.VariantBound{
			{Variant: chase.SemiOblivious, Bound: compile.LearnedBound{Rounds: 3, Atoms: 40, Observed: true}},
			{Variant: chase.Restricted, Bound: compile.LearnedBound{Rounds: 2, Atoms: 12}},
		}),
	})))
	f.Add(appendFrame(nil, kindRegistered, encodeRegistered(registeredMsg{Fingerprint: compile.Fingerprint{1, 2, 3}})))
	f.Add(appendFrame(nil, kindSubmit, encodeSubmit(submitMsg{Job: Job{
		Name: "job", Tenant: "acme", Priority: -3, Variant: chase.Restricted,
		MaxAtoms: 300, MaxRounds: 7,
		Snapshot: []byte("snap"),
	}, WantProgress: true})))
	f.Add(appendFrame(nil, kindSubmit, encodeSubmit(submitMsg{Job: Job{
		Name: "anytime", Variant: chase.SemiOblivious,
		QoS:      qos.Policy{Mode: qos.Anytime, Deadline: 250 * time.Millisecond, Rounds: 3},
		Snapshot: []byte("snap"),
	}})))
	f.Add(appendFrame(nil, kindSubmit, encodeSubmit(submitMsg{Job: Job{
		Name: "learn", QoS: qos.Policy{Learn: true}, Snapshot: []byte("snap"),
	}})))
	f.Add(appendFrame(nil, kindProgress, encodeProgress(chase.Stats{Atoms: 9, Rounds: 2, Nulls: 1})))
	f.Add(appendFrame(nil, kindResult, encodeResult(resultMsg{
		Terminated: true, Stats: chase.Stats{Atoms: 5}, Snapshot: []byte("s"),
	})))
	f.Add(appendFrame(nil, kindResult, encodeResult(resultMsg{
		Stats: chase.Stats{Atoms: 5, Rounds: 3}, Source: qos.SourceDeadline, Snapshot: []byte("s"),
	})))
	f.Add(appendFrame(nil, kindError, encodeError(errorMsg{Code: "unknown-ontology", Message: "no such σ"})))
	f.Add([]byte{'F', 'L', Version, kindSubmit, 0, 0, 0, 0})
	f.Add([]byte("FL garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		kind, body, err := readFrame(r)
		if err != nil {
			return
		}
		if got := appendFrame(nil, kind, body); !bytes.Equal(got, data[:len(data)-r.Len()]) {
			t.Fatalf("frame re-encode differs: %x vs %x", got, data)
		}
		switch kind {
		case kindRegister:
			if m, err := decodeRegister(body); err == nil {
				roundTrip(t, body, encodeRegister(m))
			}
		case kindRegistered:
			if m, err := decodeRegistered(body); err == nil {
				roundTrip(t, body, encodeRegistered(m))
			}
		case kindSubmit:
			if m, err := decodeSubmit(body); err == nil {
				roundTrip(t, body, encodeSubmit(m))
			}
		case kindProgress:
			if s, err := decodeProgress(body); err == nil {
				roundTrip(t, body, encodeProgress(s))
			}
		case kindResult:
			if m, err := decodeResult(body); err == nil {
				roundTrip(t, body, encodeResult(m))
			}
		case kindError:
			if m, err := decodeError(body); err == nil {
				roundTrip(t, body, encodeError(m))
			}
		}
	})
}

func roundTrip(t *testing.T, body, re []byte) {
	t.Helper()
	if !bytes.Equal(body, re) {
		t.Fatalf("message re-encode differs:\n in: %x\nout: %x", body, re)
	}
}
