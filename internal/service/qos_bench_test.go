package service

import (
	"context"
	"testing"

	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/qos"
)

// BenchmarkQoSSubmit prices the QoS tier against the plain submission
// path. The disabled case is BenchmarkServiceSubmit/inprocess's exact
// workload under a zero policy — CI holds it to the same allocation
// ceiling (262 allocs/op +2%), so the policy layer
// stays free for requests that don't use it. The mode cases price what
// each policy adds: learn (a recorder observer per run), bounded (a
// bound-store lookup at admission), and anytime with a round quota (the
// deterministic truncation shape; the infinite family never terminates,
// so every op exercises the truncation-source resolution too).
func BenchmarkQoSSubmit(b *testing.B) {
	prog, err := parser.Parse(`
		person(alice). person(bob). knows(alice, bob).
		person(X) -> ∃Y knows(X, Y).
		knows(X, Y) -> person(Y).
	`)
	if err != nil {
		b.Fatal(err)
	}
	infinite, err := parser.Parse(`
		e(a, b).
		e(X, Y) -> ∃Z e(Y, Z).
	`)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, s *Service, req ChaseRequest) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk, err := s.SubmitChase(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if r := tk.Wait(); r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		reportGOMAXPROCS(b)
	}
	b.Run("disabled", func(b *testing.B) {
		s := New(Config{Workers: 1, Cache: compile.NewCache(0)})
		defer s.Close()
		run(b, s, ChaseRequest{
			Database: Payload{Instance: prog.Database},
			Ontology: OntologyRef{Set: prog.Rules},
			MaxAtoms: 100,
		})
	})
	b.Run("learn", func(b *testing.B) {
		s := New(Config{Workers: 1, Cache: compile.NewCache(0)})
		defer s.Close()
		run(b, s, ChaseRequest{
			Meta:     RequestMeta{QoS: qos.Policy{Learn: true}},
			Database: Payload{Instance: prog.Database},
			Ontology: OntologyRef{Set: prog.Rules},
			MaxAtoms: 100,
		})
	})
	b.Run("bounded", func(b *testing.B) {
		s := New(Config{Workers: 1, Cache: compile.NewCache(0)})
		defer s.Close()
		// Profile once so every measured op serves under the bound.
		tk, err := s.SubmitChase(context.Background(), ChaseRequest{
			Meta:     RequestMeta{QoS: qos.Policy{Learn: true}},
			Database: Payload{Instance: prog.Database},
			Ontology: OntologyRef{Set: prog.Rules},
			MaxAtoms: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		if r := tk.Wait(); r.Err != nil {
			b.Fatal(r.Err)
		}
		run(b, s, ChaseRequest{
			Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Bounded}},
			Database: Payload{Instance: prog.Database},
			Ontology: OntologyRef{Set: prog.Rules},
			MaxAtoms: 100,
		})
	})
	b.Run("anytime-rounds", func(b *testing.B) {
		s := New(Config{Workers: 1, Cache: compile.NewCache(0)})
		defer s.Close()
		run(b, s, ChaseRequest{
			Meta:     RequestMeta{QoS: qos.Policy{Mode: qos.Anytime, Rounds: 8}},
			Database: Payload{Instance: infinite.Database},
			Ontology: OntologyRef{Set: infinite.Rules},
			MaxAtoms: 100,
		})
	})
}
