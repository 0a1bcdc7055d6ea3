package service

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/wire"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRequestFileChase: a chase request file loads, resolves its program
// relative to its own directory, and runs through the service with the
// same result as the equivalent direct submission.
func TestRequestFileChase(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "prog.dlgp", "p(a). p(X) -> ∃Y p(Y).")
	path := writeFile(t, dir, "req.json", `{
		"kind": "chase",
		"tenant": "acme",
		"priority": "high",
		"name": "filed",
		"program": "prog.dlgp",
		"engine": "oblivious",
		"maxAtoms": 10
	}`)
	f, err := LoadRequestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	req, err := f.ChaseRequest()
	if err != nil {
		t.Fatal(err)
	}
	if req.Meta.Tenant != "acme" || req.Meta.Priority != PriorityHigh {
		t.Fatalf("meta = %+v", req.Meta)
	}
	if req.Name != "filed" || req.Variant != chase.Oblivious || req.MaxAtoms != 10 {
		t.Fatalf("envelope = %+v", req)
	}
	s := newService(t, Config{Workers: 1})
	tk, err := s.SubmitChase(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r := tk.Wait()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Chase.Terminated {
		t.Fatal("budgeted infinite chase reported terminated")
	}
	if r.Name != "filed" {
		t.Fatalf("result name %q", r.Name)
	}
}

// TestRequestFileSnapshot: a request file may ship its database as a
// wire-encoded snapshot next to the rules.
func TestRequestFileSnapshot(t *testing.T) {
	dir := t.TempDir()
	prog := parserProg(t, "e(a, b). e(X, Y) -> e(Y, X).")
	snap := wire.EncodeSnapshot(prog.Database)
	if err := os.WriteFile(filepath.Join(dir, "db.cw"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir, "rules.dlgp", "e(X, Y) -> e(Y, X).")
	path := writeFile(t, dir, "req.json", `{
		"kind": "chase",
		"rules": "rules.dlgp",
		"snapshot": "db.cw"
	}`)
	f, err := LoadRequestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	req, err := f.ChaseRequest()
	if err != nil {
		t.Fatal(err)
	}
	if req.Database.Snapshot == nil {
		t.Fatal("snapshot payload not loaded")
	}
	s := newService(t, Config{Workers: 1})
	tk, err := s.SubmitChase(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r := tk.Wait()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	want := chase.Run(prog.Database, prog.Rules, chase.Options{})
	if r.Chase.Instance.CanonicalKey() != want.Instance.CanonicalKey() {
		t.Fatal("snapshot-filed chase diverges from the in-process run")
	}
}

// TestRequestFileRejectsDeltas: request files once listed wire delta
// blobs under "deltas". A file that still does, for a chase over a
// snapshot or for a resume, fails at load as an unknown field instead of
// running without the atoms it meant to add.
func TestRequestFileRejectsDeltas(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"chase":  `{"kind": "chase", "rules": "rules.dlgp", "snapshot": "db.cw", "deltas": ["d0.cw"]}`,
		"resume": `{"kind": "resume", "checkpoint": "run.cp", "deltas": ["d0.cw"]}`,
	} {
		f, err := LoadRequestFile(writeFile(t, dir, name+".json", body))
		if err == nil || !strings.Contains(err.Error(), `unknown field "deltas"`) {
			t.Fatalf("%s: loaded %+v, err = %v; want an unknown-field error naming deltas", name, f, err)
		}
	}
}

// TestRequestFileKinds: decide and experiment envelopes build, and kind
// mismatches are rejected.
func TestRequestFileKinds(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "prog.dlgp", "p(a). p(X) -> q(X).")
	decide := writeFile(t, dir, "decide.json", `{"kind": "decide", "program": "prog.dlgp", "method": "ucq"}`)
	exp := writeFile(t, dir, "exp.json", `{"kind": "experiment", "experiment": "XP-DEPTH", "quick": true}`)

	df, err := LoadRequestFile(decide)
	if err != nil {
		t.Fatal(err)
	}
	dreq, err := df.DecideRequest()
	if err != nil {
		t.Fatal(err)
	}
	if dreq.Method != "ucq" {
		t.Fatalf("method %q", dreq.Method)
	}
	if _, err := df.ChaseRequest(); err == nil {
		t.Fatal("decide file accepted as a chase request")
	}
	if _, err := df.ExperimentRequest(); err == nil {
		t.Fatal("decide file accepted as an experiment request")
	}

	ef, err := LoadRequestFile(exp)
	if err != nil {
		t.Fatal(err)
	}
	ereq, err := ef.ExperimentRequest()
	if err != nil {
		t.Fatal(err)
	}
	if ereq.ID != "XP-DEPTH" || !ereq.Quick {
		t.Fatalf("envelope %+v", ereq)
	}

	// Malformed files fail loudly.
	if _, err := LoadRequestFile(writeFile(t, dir, "bad.json", "{")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	// Misspelled fields fail loudly instead of silently dropping options.
	if _, err := LoadRequestFile(writeFile(t, dir, "typo.json",
		`{"kind": "chase", "program": "prog.dlgp", "max-atoms": 500}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	nf, err := LoadRequestFile(writeFile(t, dir, "noinput.json", `{"kind": "chase"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nf.ChaseRequest(); err == nil {
		t.Fatal("inputless chase request accepted")
	}
	pf, err := LoadRequestFile(writeFile(t, dir, "badprio.json", `{"kind": "chase", "program": "prog.dlgp", "priority": "urgent"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.ChaseRequest(); err == nil {
		t.Fatal("unknown priority accepted")
	}
}
