package service

import (
	"context"
	goruntime "runtime"
	"testing"

	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/wire"
)

// BenchmarkServiceSubmit prices the service layer's submission paths
// against each other: the in-process fast path (instance attached) vs
// the remote shape (registered fingerprint + wire snapshot decoded at
// admission). The delta between the two is the wire codec's round-trip
// overhead per job.
func BenchmarkServiceSubmit(b *testing.B) {
	prog, err := parser.Parse(`
		person(alice). person(bob). knows(alice, bob).
		person(X) -> ∃Y knows(X, Y).
		knows(X, Y) -> person(Y).
	`)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, submit func(s *Service) (*Ticket, error)) {
		s := New(Config{Workers: 1, Cache: compile.NewCache(0)})
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk, err := submit(s)
			if err != nil {
				b.Fatal(err)
			}
			if r := tk.Wait(); r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		reportGOMAXPROCS(b)
	}
	b.Run("inprocess", func(b *testing.B) {
		run(b, func(s *Service) (*Ticket, error) {
			return s.SubmitChase(context.Background(), ChaseRequest{
				Database: Payload{Instance: prog.Database},
				Ontology: OntologyRef{Set: prog.Rules},
				MaxAtoms: 100,
			})
		})
	})
	b.Run("wire", func(b *testing.B) {
		snapshot := wire.EncodeSnapshot(prog.Database)
		s := New(Config{Workers: 1, Cache: compile.NewCache(0)})
		defer s.Close()
		h, err := s.RegisterOntology(prog.Rules)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk, err := s.SubmitByFingerprint(context.Background(), h.Fingerprint,
				Payload{Snapshot: snapshot}, ChaseRequest{MaxAtoms: 100})
			if err != nil {
				b.Fatal(err)
			}
			if r := tk.Wait(); r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		reportGOMAXPROCS(b)
	})
	b.Run("encode+wire", func(b *testing.B) {
		// The full remote round trip: encode the database per job too.
		s := New(Config{Workers: 1, Cache: compile.NewCache(0)})
		defer s.Close()
		h, err := s.RegisterOntology(prog.Rules)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk, err := s.SubmitByFingerprint(context.Background(), h.Fingerprint,
				Payload{Snapshot: wire.EncodeSnapshot(prog.Database)}, ChaseRequest{MaxAtoms: 100})
			if err != nil {
				b.Fatal(err)
			}
			if r := tk.Wait(); r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		reportGOMAXPROCS(b)
	})
}

// reportGOMAXPROCS stamps the runner's parallelism onto the benchmark
// line, so every recorded number carries its provenance.
func reportGOMAXPROCS(b *testing.B) {
	b.ReportMetric(float64(goruntime.GOMAXPROCS(0)), "gomaxprocs")
}
