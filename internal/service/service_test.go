package service

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/parser"
	rt "repro/internal/runtime"
	"repro/internal/tgds"
	"repro/internal/wire"
)

// scenarios loads every example program under examples/dlgp.
func scenarios(t *testing.T) map[string]*parser.Program {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "dlgp")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*parser.Program)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".dlgp") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out[strings.TrimSuffix(e.Name(), ".dlgp")] = prog
	}
	if len(out) == 0 {
		t.Fatal("no example scenarios found")
	}
	return out
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = compile.NewCache(0)
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// TestFingerprintFleetEquivalence is the acceptance property: a fleet
// submitted by registered fingerprint with wire-encoded databases is
// byte-identical — CanonicalKey, termination, statistics (modulo the
// compile-fetch counters, which describe cache behavior, not the chase)
// — to the same fleet submitted directly with Σ and the in-process
// instance attached, at 1 and 4 scheduler workers.
func TestFingerprintFleetEquivalence(t *testing.T) {
	progs := scenarios(t)
	variants := []chase.Variant{chase.SemiOblivious, chase.Oblivious, chase.Restricted}
	for _, workers := range []int{1, 4} {
		direct := newService(t, Config{Workers: workers})
		byFP := newService(t, Config{Workers: workers})

		var directTickets, fpTickets []*Ticket
		for name, prog := range progs {
			h, err := byFP.RegisterOntology(prog.Rules)
			if err != nil {
				t.Fatal(err)
			}
			snapshot := wire.EncodeSnapshot(prog.Database)
			for _, v := range variants {
				req := ChaseRequest{
					Name:     name + "/" + v.String(),
					Variant:  v,
					MaxAtoms: 300,
				}
				dreq := req
				dreq.Database = Payload{Instance: prog.Database}
				dreq.Ontology = OntologyRef{Set: prog.Rules}
				dt, err := direct.SubmitChase(context.Background(), dreq)
				if err != nil {
					t.Fatal(err)
				}
				directTickets = append(directTickets, dt)

				ft, err := byFP.SubmitByFingerprint(context.Background(), h.Fingerprint, Payload{Snapshot: snapshot}, req)
				if err != nil {
					t.Fatal(err)
				}
				fpTickets = append(fpTickets, ft)
			}
		}
		for i := range directTickets {
			dr, fr := directTickets[i].Wait(), fpTickets[i].Wait()
			if dr.Err != nil || fr.Err != nil {
				t.Fatalf("workers=%d %s: errs %v / %v", workers, dr.Name, dr.Err, fr.Err)
			}
			if dr.Chase.Terminated != fr.Chase.Terminated {
				t.Fatalf("workers=%d %s: Terminated %v vs %v", workers, dr.Name, dr.Chase.Terminated, fr.Chase.Terminated)
			}
			ds, fs := dr.Chase.Stats, fr.Chase.Stats
			ds.CompileHits, ds.CompileMisses = 0, 0
			fs.CompileHits, fs.CompileMisses = 0, 0
			if ds != fs {
				t.Fatalf("workers=%d %s: stats %+v vs %+v", workers, dr.Name, ds, fs)
			}
			if dk, fk := dr.Chase.Instance.CanonicalKey(), fr.Chase.Instance.CanonicalKey(); dk != fk {
				t.Fatalf("workers=%d %s: fingerprint-submitted fleet diverges from direct fleet", workers, dr.Name)
			}
		}
	}
}

// TestUnknownFingerprint: submitting by an unregistered fingerprint
// fails synchronously, typed, and wrap-checkable.
func TestUnknownFingerprint(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	var bogus compile.Fingerprint
	bogus[0] = 0xcb
	_, err := s.SubmitByFingerprint(context.Background(), bogus, Payload{Instance: parserDB(t, `p(a).`)}, ChaseRequest{})
	if !errors.Is(err, ErrUnknownOntology) {
		t.Fatalf("err = %v, not errors.Is ErrUnknownOntology", err)
	}
	var se *Error
	if !errors.As(err, &se) || se.Kind != KindUnknownOntology {
		t.Fatalf("err = %v, want *Error{KindUnknownOntology}", err)
	}
	if _, err := s.Ontology(bogus); !errors.Is(err, ErrUnknownOntology) {
		t.Fatalf("Ontology(bogus) err = %v", err)
	}

	// Register, then resolve both the exact set and an α-renamed twin.
	sigma := parserRules(t, "p(X) -> ∃Y r(X, Y).")
	h, err := s.RegisterOntology(sigma)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Ontology(h.Fingerprint)
	if err != nil || got != sigma {
		t.Fatalf("Ontology(handle) = %v, %v", got, err)
	}
	twin, err := s.RegisterOntology(parserRules(t, "p(U) -> ∃W r(U, W)."))
	if err != nil {
		t.Fatal(err)
	}
	if twin != h {
		t.Fatal("α-renamed ontology received a different handle")
	}
}

// TestErrorTaxonomy walks the submit-side taxonomy: closed, decode, bad
// request, canceled — every kind classified and every sentinel reachable
// through errors.Is.
func TestErrorTaxonomy(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> ∃Y p(Y).")

	t.Run("unavailable", func(t *testing.T) {
		s := New(Config{Workers: 1, Cache: compile.NewCache(0)})
		s.Close()
		_, err := s.SubmitChase(context.Background(), ChaseRequest{
			Database: Payload{Instance: prog.Database},
			Ontology: OntologyRef{Set: prog.Rules},
		})
		if !errors.Is(err, rt.ErrSchedulerClosed) {
			t.Fatalf("err = %v, not errors.Is runtime.ErrSchedulerClosed", err)
		}
		var se *Error
		if !errors.As(err, &se) || se.Kind != KindUnavailable {
			t.Fatalf("err = %v, want KindUnavailable", err)
		}
	})

	t.Run("decode", func(t *testing.T) {
		s := newService(t, Config{Workers: 1})
		_, err := s.SubmitChase(context.Background(), ChaseRequest{
			Database: Payload{Snapshot: []byte("CWgarbage")},
			Ontology: OntologyRef{Set: prog.Rules},
		})
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("err = %v, not errors.Is wire.ErrCorrupt", err)
		}
		var se *Error
		if !errors.As(err, &se) || se.Kind != KindDecode {
			t.Fatalf("err = %v, want KindDecode", err)
		}
	})

	t.Run("bad request", func(t *testing.T) {
		s := newService(t, Config{Workers: 1})
		cases := map[string]func() error{
			"no ontology": func() error {
				_, err := s.SubmitChase(context.Background(), ChaseRequest{Database: Payload{Instance: prog.Database}})
				return err
			},
			"no database": func() error {
				_, err := s.SubmitChase(context.Background(), ChaseRequest{Ontology: OntologyRef{Set: prog.Rules}})
				return err
			},
			"unknown method": func() error {
				_, err := s.SubmitDecide(context.Background(), DecideRequest{
					Database: Payload{Instance: prog.Database},
					Ontology: OntologyRef{Set: prog.Rules},
					Method:   "oracle",
				})
				return err
			},
			"unknown experiment": func() error {
				_, err := s.SubmitExperiment(context.Background(), ExperimentRequest{ID: "XP-NOPE"})
				return err
			},
		}
		for name, f := range cases {
			var se *Error
			if err := f(); !errors.As(err, &se) || se.Kind != KindBadRequest {
				t.Fatalf("%s: err = %v, want KindBadRequest", name, err)
			}
		}
	})

	t.Run("canceled", func(t *testing.T) {
		s := newService(t, Config{Workers: 1})
		gate := make(chan struct{})
		claimed := make(chan struct{})
		var once sync.Once
		first, err := s.SubmitDecide(context.Background(), gatedProbe(prog, &once, claimed, gate))
		if err != nil {
			t.Fatal(err)
		}
		<-claimed
		queued, err := s.SubmitDecide(context.Background(), DecideRequest{
			Database: Payload{Instance: prog.Database},
			Ontology: OntologyRef{Set: prog.Rules},
		})
		if err != nil {
			t.Fatal(err)
		}
		queued.Cancel()
		close(gate)
		r := queued.Wait()
		if !r.Canceled {
			t.Fatalf("result %+v, want Canceled", r)
		}
		var se *Error
		if !errors.As(r.Err, &se) || se.Kind != KindCanceled {
			t.Fatalf("err = %v, want KindCanceled", r.Err)
		}
		first.Wait()
	})
}

// gatedProbe is a naive decide probe whose first round boundary closes
// claimed and then parks its worker until gate closes: a probe's
// Progress runs inline on the engine goroutine, so it holds the worker.
func gatedProbe(prog *parser.Program, once *sync.Once, claimed, gate chan struct{}) DecideRequest {
	return DecideRequest{
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
		Method:   "naive",
		AtomCap:  50,
		Progress: func(chase.Stats) {
			once.Do(func() { close(claimed) })
			<-gate
		},
	}
}

// TestDecideMethods: every decision method routed through the service
// returns the verdict internal/core computes directly.
func TestDecideMethods(t *testing.T) {
	progs := scenarios(t)
	s := newService(t, Config{Workers: 2})
	cases := []struct {
		scenario string
		method   string
		atomCap  int
	}{
		{"quickstart", "syntactic", 0},
		{"quickstart", "naive", 100000},
		{"quickstart", "ucq", 0},
		{"quickstart", "uniform", 0},
		{"linear", "ucq", 0},
		{"infinite", "syntactic", 0},
		{"guarded", "", 0}, // default method = syntactic
	}
	for _, c := range cases {
		prog, ok := progs[c.scenario]
		if !ok {
			t.Fatalf("missing scenario %s", c.scenario)
		}
		tk, err := s.SubmitDecide(context.Background(), DecideRequest{
			Name:     c.scenario + "/" + c.method,
			Database: Payload{Instance: prog.Database},
			Ontology: OntologyRef{Set: prog.Rules},
			Method:   c.method,
			AtomCap:  c.atomCap,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := tk.Wait()
		if r.Err != nil {
			t.Fatalf("%s/%s: %v", c.scenario, c.method, r.Err)
		}
		if r.Verdict == nil {
			t.Fatalf("%s/%s: no verdict in %+v", c.scenario, c.method, r)
		}
	}
}

// TestDecideNaiveNoCapBadRequest: a naive probe with no atom cap on a Σ
// whose bound |D|·f_C(Σ) is too large to materialize (a guarded set,
// here) used to chase without a bound and hold its worker forever, wall
// budget or not. It must come back KindBadRequest, and the worker must
// be free for the next job.
func TestDecideNaiveNoCapBadRequest(t *testing.T) {
	prog := parserProg(t, `r(a, b, c). s(b).
		r(X, Y, W), s(Y) -> ∃Z r(Y, Z, W), s(Z).
		t(X, Y, W) -> r(X, Y, W).
		u(X) -> s(X).`)
	s := newService(t, Config{Workers: 1, QueueBound: 2})
	req := DecideRequest{
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
		Method:   "naive",
	}
	for _, wall := range []time.Duration{0, time.Hour} {
		req.Wall = wall
		tk, err := s.SubmitDecide(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan Result, 1)
		go func() { done <- tk.Wait() }()
		select {
		case r := <-done:
			se := badRequest(t, r.Err, "uncapped naive probe")
			if !errors.Is(se, core.ErrUnboundedNaive) {
				t.Fatalf("err = %v, want core.ErrUnboundedNaive", se)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("wall %v: the uncapped naive probe still holds its worker after 5s", wall)
		}
	}
	req.AtomCap = 500
	tk, err := s.SubmitDecide(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); r.Err != nil || r.Verdict.Outcome != core.Unknown {
		t.Fatalf("capped probe: %+v, want an Unknown verdict", r)
	}
}

// TestDecideNaiveHonorsContext: the naive probe polls its job's context,
// so a wall budget or a Cancel stops the materialization at once instead
// of letting it run on to its atom cap (seconds on this input) while it
// holds a worker. A stopped probe answers with the context's error, never
// with a verdict.
func TestDecideNaiveHonorsContext(t *testing.T) {
	prog := parserProg(t, `e(a, b). e(X, Y) -> ∃Z e(Y, Z).`)
	s := newService(t, Config{Workers: 1})
	base := DecideRequest{
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
		Method:   "naive",
		AtomCap:  2_000_000,
	}
	// stopped waits at most a second for the probe's answer and checks
	// that it is a canceled job wrapping cause.
	stopped := func(t *testing.T, tk *Ticket, cause error) Result {
		t.Helper()
		done := make(chan Result, 1)
		go func() { done <- tk.Wait() }()
		var r Result
		select {
		case r = <-done:
		case <-time.After(time.Second):
			t.Fatal("the naive probe ran on for over a second after its context ended")
		}
		var se *Error
		if !errors.As(r.Err, &se) || se.Kind != KindCanceled || !errors.Is(r.Err, cause) {
			t.Fatalf("err = %v, want KindCanceled wrapping %v", r.Err, cause)
		}
		if r.Verdict != nil {
			t.Fatalf("a stopped probe carries the verdict %v", r.Verdict)
		}
		return r
	}

	t.Run("wall", func(t *testing.T) {
		req := base
		req.Wall = 50 * time.Millisecond
		tk, err := s.SubmitDecide(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if r := stopped(t, tk, context.DeadlineExceeded); !r.TimedOut {
			t.Fatalf("result %+v, want TimedOut", r)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		running := make(chan struct{})
		var once sync.Once
		req := base
		req.Progress = func(chase.Stats) { once.Do(func() { close(running) }) }
		tk, err := s.SubmitDecide(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-running:
		case <-time.After(5 * time.Second):
			t.Fatal("the probe never started")
		}
		tk.Cancel()
		if r := stopped(t, tk, context.Canceled); !r.Canceled {
			t.Fatalf("result %+v, want Canceled", r)
		}
	})
}

// TestExperimentThroughService: an experiment request produces the exact
// table the experiments package renders directly.
func TestExperimentThroughService(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are seconds-long; skipped in -short")
	}
	cache := compile.NewCache(0)
	s := newService(t, Config{Workers: 1, Cache: cache})
	tk, err := s.SubmitExperiment(context.Background(), ExperimentRequest{ID: "XP-DEPTH", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	r := tk.Wait()
	if r.Err != nil || r.Table == nil {
		t.Fatalf("result %+v, err %v", r, r.Err)
	}
	e, err := experiments.Get("XP-DEPTH")
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Run(experiments.Config{Quick: true, Workers: 1, Compiler: cache})
	if err != nil {
		t.Fatal(err)
	}
	var got, direct bytes.Buffer
	if err := r.Table.Render(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.Render(&direct); err != nil {
		t.Fatal(err)
	}
	if got.String() != direct.String() {
		t.Fatalf("service table differs from direct run:\n%s\nvs\n%s", got.String(), direct.String())
	}
}

// parser helpers.
func parserProg(t *testing.T, src string) *parser.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func parserDB(t *testing.T, src string) *logic.Instance {
	t.Helper()
	return parserProg(t, src).Database
}

func parserRules(t *testing.T, src string) *tgds.Set {
	t.Helper()
	return parserProg(t, src).Rules
}
