package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chase"
	"repro/internal/checkpoint"
	"repro/internal/logic"
)

// tcProgram is a transitive-closure workload: null-free, so resumed and
// re-chased instances can be compared by exact canonical key.
const tcProgram = `e(n0, n1). e(n1, n2). e(n2, n3).
	e(X, Y), e(Y, Z) -> e(X, Z).`

// serveArtifact runs one checkpointed chase through the service and
// returns the encoded checkpoint artifact.
func serveArtifact(t *testing.T, s *Service, src string) []byte {
	t.Helper()
	prog := parserProg(t, src)
	tk, err := s.SubmitChase(context.Background(), ChaseRequest{
		Database:   Payload{Instance: prog.Database},
		Ontology:   OntologyRef{Set: prog.Rules},
		Checkpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := tk.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// waitChase waits a ticket and returns its chase result, failing the
// test on any error.
func waitChase(t *testing.T, tk *Ticket) *chase.Result {
	t.Helper()
	r := tk.Wait()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Chase == nil {
		t.Fatalf("%s result carries no chase run", r.Op)
	}
	return r.Chase
}

// TestServiceResumeRoundTrip: a DeltaRequest through the service — with
// the ontology attached inline, or resolved through the registry by the
// checkpoint's own fingerprint — is byte-identical to resuming the
// decoded checkpoint directly, at 1 and 4 scheduler workers.
func TestServiceResumeRoundTrip(t *testing.T) {
	prog := parserProg(t, tcProgram)
	delta := []*logic.Atom{logic.MakeAtom("e", logic.Constant("n3"), logic.Constant("n4"))}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := newService(t, Config{Workers: workers})
			artifact := serveArtifact(t, s, tcProgram)

			direct, err := checkpoint.Decode(artifact)
			if err != nil {
				t.Fatal(err)
			}
			want, err := direct.Resume(prog.Rules, delta, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !want.Terminated {
				t.Fatal("direct resume did not terminate")
			}

			check := func(t *testing.T, tk *Ticket) {
				r := tk.Wait()
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				if r.Op != OpResume {
					t.Fatalf("result op = %s, want resume", r.Op)
				}
				got := r.Chase
				if !got.Terminated {
					t.Fatal("resumed run did not terminate")
				}
				if got.Instance.CanonicalKey() != want.Instance.CanonicalKey() {
					t.Fatal("service resume diverged from direct resume")
				}
				ga, wa := got.Instance.Atoms(), want.Instance.Atoms()
				for i := range ga {
					if ga[i].Key() != wa[i].Key() {
						t.Fatalf("atom %d: %v != %v (insertion order diverged)", i, ga[i], wa[i])
					}
				}
			}

			t.Run("inline ontology", func(t *testing.T) {
				tk, err := s.SubmitDelta(context.Background(), DeltaRequest{
					Checkpoint: artifact,
					Ontology:   OntologyRef{Set: prog.Rules},
					Delta:      delta,
				})
				if err != nil {
					t.Fatal(err)
				}
				check(t, tk)
			})

			t.Run("registry fingerprint", func(t *testing.T) {
				// No ontology on the request: the checkpoint's own
				// fingerprint resolves through the registry.
				if _, err := s.RegisterOntology(prog.Rules); err != nil {
					t.Fatal(err)
				}
				tk, err := s.SubmitDelta(context.Background(), DeltaRequest{
					Checkpoint: artifact,
					Delta:      delta,
				})
				if err != nil {
					t.Fatal(err)
				}
				check(t, tk)
			})
		})
	}
}

// TestServiceResumeChain: Chain captures resumable state on the resumed
// run itself, so EncodeCheckpoint on its ticket yields a
// second-generation artifact that a further DeltaRequest continues —
// and two chained resumes land on the same instance as one full chase
// over all the base data.
func TestServiceResumeChain(t *testing.T) {
	prog := parserProg(t, tcProgram)
	d1 := []*logic.Atom{logic.MakeAtom("e", logic.Constant("n3"), logic.Constant("n4"))}
	d2 := []*logic.Atom{logic.MakeAtom("e", logic.Constant("n4"), logic.Constant("n5"))}

	s := newService(t, Config{Workers: 2})
	artifact := serveArtifact(t, s, tcProgram)

	tk1, err := s.SubmitDelta(context.Background(), DeltaRequest{
		Checkpoint: artifact,
		Ontology:   OntologyRef{Set: prog.Rules},
		Delta:      d1,
		Chain:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	second, err := tk1.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	tk2, err := s.SubmitDelta(context.Background(), DeltaRequest{
		Checkpoint: second,
		Ontology:   OntologyRef{Set: prog.Rules},
		Delta:      d2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := waitChase(t, tk2)

	full := prog.Database.Clone()
	for _, a := range append(append([]*logic.Atom{}, d1...), d2...) {
		full.Add(a)
	}
	want := chase.Run(full, prog.Rules, chase.Options{})
	if !got.Terminated || !want.Terminated {
		t.Fatalf("terminated: got=%v want=%v", got.Terminated, want.Terminated)
	}
	if got.Instance.CanonicalKey() != want.Instance.CanonicalKey() {
		t.Fatal("chained resumes diverged from the full re-chase")
	}
}

// TestResumeErrorTaxonomy pins the classification of every way a
// DeltaRequest (or checkpoint encode) can fail.
func TestResumeErrorTaxonomy(t *testing.T) {
	prog := parserProg(t, tcProgram)
	s := newService(t, Config{Workers: 1})
	artifact := serveArtifact(t, s, tcProgram)

	wantKind := func(t *testing.T, err error, kind ErrorKind) {
		t.Helper()
		var se *Error
		if !errors.As(err, &se) || se.Kind != kind {
			t.Fatalf("err = %v, want kind %s", err, kind)
		}
	}

	t.Run("empty artifact", func(t *testing.T) {
		_, err := s.SubmitDelta(context.Background(), DeltaRequest{
			Ontology: OntologyRef{Set: prog.Rules},
		})
		wantKind(t, err, KindBadRequest)
	})

	t.Run("corrupt artifact", func(t *testing.T) {
		_, err := s.SubmitDelta(context.Background(), DeltaRequest{
			Checkpoint: artifact[:len(artifact)/2],
			Ontology:   OntologyRef{Set: prog.Rules},
		})
		wantKind(t, err, KindDecode)
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("err = %v, not errors.Is checkpoint.ErrCorrupt", err)
		}
	})

	t.Run("unregistered fingerprint", func(t *testing.T) {
		// A fresh service has no registration for the checkpoint's
		// ontology, and the request does not attach one.
		cold := newService(t, Config{Workers: 1})
		_, err := cold.SubmitDelta(context.Background(), DeltaRequest{Checkpoint: artifact})
		wantKind(t, err, KindUnknownOntology)
		if !errors.Is(err, ErrUnknownOntology) {
			t.Fatalf("err = %v, not errors.Is ErrUnknownOntology", err)
		}
	})

	t.Run("ontology mismatch", func(t *testing.T) {
		other := parserProg(t, "p(a). p(X) -> q(X).")
		_, err := s.SubmitDelta(context.Background(), DeltaRequest{
			Checkpoint: artifact,
			Ontology:   OntologyRef{Set: other.Rules},
		})
		wantKind(t, err, KindBadRequest)
		if !errors.Is(err, checkpoint.ErrMismatch) {
			t.Fatalf("err = %v, not errors.Is checkpoint.ErrMismatch", err)
		}
	})

	t.Run("delta null", func(t *testing.T) {
		n, _ := logic.NewNullFactory().Intern("n", 1)
		_, err := s.SubmitDelta(context.Background(), DeltaRequest{
			Checkpoint: artifact,
			Ontology:   OntologyRef{Set: prog.Rules},
			Delta:      []*logic.Atom{logic.MakeAtom("e", logic.Constant("n3"), n)},
		})
		wantKind(t, err, KindBadRequest)
		if !errors.Is(err, chase.ErrDeltaNull) {
			t.Fatalf("err = %v, not errors.Is chase.ErrDeltaNull", err)
		}
	})

	t.Run("not resumable", func(t *testing.T) {
		// A chase that never asked for checkpoint capture cannot be
		// encoded as one.
		tk, err := s.SubmitChase(context.Background(), ChaseRequest{
			Database: Payload{Instance: prog.Database},
			Ontology: OntologyRef{Set: prog.Rules},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = tk.EncodeCheckpoint()
		wantKind(t, err, KindBadRequest)
		if !errors.Is(err, checkpoint.ErrNotResumable) {
			t.Fatalf("err = %v, not errors.Is checkpoint.ErrNotResumable", err)
		}
	})

	t.Run("no chase run", func(t *testing.T) {
		linear := parserProg(t, "p(a). p(X) -> q(X).")
		tk, err := s.SubmitDecide(context.Background(), DecideRequest{
			Database: Payload{Instance: linear.Database},
			Ontology: OntologyRef{Set: linear.Rules},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err = tk.EncodeCheckpoint(); err == nil {
			t.Fatal("EncodeCheckpoint on a decide ticket succeeded")
		}
		wantKind(t, err, KindBadRequest)
	})
}

// TestNullIDsExhaustedUnavailable: a job that runs out of null ids fails
// as KindUnavailable wrapping logic.ErrNullIDsExhausted, not as a
// panicked internal job: a resume whose artifact leaves one null id for
// a delta that needs two, and a chase whose input already holds the last
// null id.
func TestNullIDsExhaustedUnavailable(t *testing.T) {
	const src = `r(a, b).
		r(X, Y) -> ∃Z s(Y, Z).`
	prog := parserProg(t, src)
	s := newService(t, Config{Workers: 1})
	wantExhausted := func(t *testing.T, tk *Ticket) {
		t.Helper()
		err := tk.Wait().Err
		var se *Error
		if !errors.As(err, &se) || se.Kind != KindUnavailable || !errors.Is(err, logic.ErrNullIDsExhausted) {
			t.Fatalf("err = %v, want KindUnavailable wrapping logic.ErrNullIDsExhausted", err)
		}
	}

	t.Run("resume", func(t *testing.T) {
		cp, err := checkpoint.Decode(serveArtifact(t, s, src))
		if err != nil {
			t.Fatal(err)
		}
		cp.State.NextNullID = logic.NullIDs - 1
		artifact, err := cp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		tk, err := s.SubmitDelta(context.Background(), DeltaRequest{
			Checkpoint: artifact,
			Ontology:   OntologyRef{Set: prog.Rules},
			Delta: []*logic.Atom{
				logic.MakeAtom("r", logic.Constant("z"), logic.Constant("c")),
				logic.MakeAtom("r", logic.Constant("z"), logic.Constant("d")),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		wantExhausted(t, tk)
	})

	t.Run("chase", func(t *testing.T) {
		last, _ := logic.NewNullFactoryAt(logic.NullIDs-1).Intern("last", 1)
		tk, err := s.SubmitChase(context.Background(), ChaseRequest{
			Database: Payload{Instance: logic.NewDatabase(logic.MakeAtom("r", last, logic.Constant("b")))},
			Ontology: OntologyRef{Set: prog.Rules},
		})
		if err != nil {
			t.Fatal(err)
		}
		wantExhausted(t, tk)
	})
}

// TestRequestFileResume: the on-disk "resume" request shape round-trips
// — artifact plus delta facts in, the resumed materialization out — and
// the rejected field combinations fail loudly.
func TestRequestFileResume(t *testing.T) {
	prog := parserProg(t, tcProgram)
	s := newService(t, Config{Workers: 1})
	artifact := serveArtifact(t, s, tcProgram)

	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return name
	}
	if err := os.WriteFile(filepath.Join(dir, "run.cp"), artifact, 0o644); err != nil {
		t.Fatal(err)
	}
	write("delta.dlgp", "e(n3, n4).\ne(X, Y), e(Y, Z) -> e(X, Z).")
	write("delta-facts.dlgp", "e(n3, n4).")
	write("rules.dlgp", "e(X, Y), e(Y, Z) -> e(X, Z).")

	direct, err := checkpoint.Decode(artifact)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Resume(prog.Rules,
		[]*logic.Atom{logic.MakeAtom("e", logic.Constant("n3"), logic.Constant("n4"))}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}

	submit := func(t *testing.T, spec string) {
		t.Helper()
		path := filepath.Join(dir, "req.json")
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := LoadRequestFile(path)
		if err != nil {
			t.Fatal(err)
		}
		req, err := f.DeltaRequest()
		if err != nil {
			t.Fatal(err)
		}
		tk, err := s.SubmitDelta(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got := waitChase(t, tk)
		if got.Instance.CanonicalKey() != want.Instance.CanonicalKey() {
			t.Fatal("request-file resume diverged from direct resume")
		}
	}

	t.Run("program", func(t *testing.T) {
		submit(t, `{"kind": "resume", "checkpoint": "run.cp", "program": "delta.dlgp"}`)
	})
	t.Run("rules and data", func(t *testing.T) {
		submit(t, `{"kind": "resume", "checkpoint": "run.cp", "rules": "rules.dlgp", "data": "delta-facts.dlgp"}`)
	})
	t.Run("registry", func(t *testing.T) {
		// Facts only: Σ resolves through the registry by the
		// checkpoint's fingerprint.
		if _, err := s.RegisterOntology(prog.Rules); err != nil {
			t.Fatal(err)
		}
		submit(t, `{"kind": "resume", "checkpoint": "run.cp", "data": "delta-facts.dlgp"}`)
	})

	rejected := map[string]string{
		"wrong kind":    `{"kind": "chase", "checkpoint": "run.cp"}`,
		"no checkpoint": `{"kind": "resume", "program": "delta.dlgp"}`,
		"engine":        `{"kind": "resume", "checkpoint": "run.cp", "program": "delta.dlgp", "engine": "oblivious"}`,
		"snapshot":      `{"kind": "resume", "checkpoint": "run.cp", "snapshot": "db.bin"}`,
	}
	for name, spec := range rejected {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, "bad.json")
			if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := LoadRequestFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.DeltaRequest(); err == nil {
				t.Fatal("DeltaRequest accepted a rejected field combination")
			}
		})
	}
}
