package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli/clitest"
)

// End-to-end goldens over examples/dlgp: full stdout.
func TestChaseGolden(t *testing.T) {
	clitest.Golden(t, run, []clitest.Case{
		{
			Name: "quickstart-pretty",
			Argv: []string{"-program", clitest.Example("quickstart.dlgp")},
		},
		{
			Name: "quickstart-dlgp",
			Argv: []string{"-program", clitest.Example("quickstart.dlgp"), "-format", "dlgp", "-stats"},
		},
		{
			Name: "quickstart-oblivious",
			Argv: []string{"-program", clitest.Example("quickstart.dlgp"), "-engine", "oblivious", "-format", "dlgp"},
		},
		{
			Name: "infinite-budget",
			Argv: []string{"-program", clitest.Example("infinite.dlgp"), "-max-atoms", "50", "-quiet", "-stats"},
			Exit: 1,
		},
		{
			// The streaming path (scheduler ticket + round-level progress
			// on stderr) must leave stdout byte-identical to the batch
			// case; SameAs enforces it even under -update.
			Name:   "infinite-budget-stream",
			Argv:   []string{"-program", clitest.Example("infinite.dlgp"), "-max-atoms", "50", "-quiet", "-stats", "-stream"},
			Exit:   1,
			SameAs: "infinite-budget",
		},
		{
			// A JSON request file (typed service envelope, high-priority
			// lane, named tenant) must reproduce the flag invocation byte
			// for byte; SameAs enforces it even under -update.
			Name:   "quickstart-request",
			Argv:   []string{"-request", clitest.Example("quickstart.request.json")},
			SameAs: "quickstart-pretty",
		},
		{
			// Incremental re-chase: the checked-in artifact (regenerated
			// by TestQuickstartCheckpointArtifact under -update) resumed
			// over the delta program — only the new edge's consequences
			// are derived, nulls continue past the checkpoint's.
			Name: "quickstart-resume",
			Argv: []string{"-resume", clitest.Example("quickstart.checkpoint"), "-program", clitest.Example("quickstart-delta.dlgp")},
		},
		{
			Name: "quickstart-resume-dlgp",
			Argv: []string{"-resume", clitest.Example("quickstart.checkpoint"), "-program", clitest.Example("quickstart-delta.dlgp"), "-format", "dlgp", "-stats"},
		},
		{
			// A "resume"-kind request file must reproduce the flag
			// invocation byte for byte.
			Name:   "quickstart-resume-request",
			Argv:   []string{"-request", clitest.Example("quickstart.resume.request.json")},
			SameAs: "quickstart-resume",
		},
		{
			Name: "guarded-restricted",
			Argv: []string{"-program", clitest.Example("guarded.dlgp"), "-engine", "restricted", "-max-atoms", "60", "-format", "dlgp"},
			Exit: 1,
		},
		{
			Name: "linear-semi",
			Argv: []string{"-program", clitest.Example("linear.dlgp"), "-format", "dlgp"},
		},
	})
}

// TestQuickstartCheckpointArtifact pins the checked-in checkpoint
// artifact: the bytes -checkpoint writes (the encoding is a pure
// function of the run's content, and the run is deterministic) match
// examples/dlgp/quickstart.checkpoint exactly. Regenerate with -update.
func TestQuickstartCheckpointArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "quickstart.cp")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-program", clitest.Example("quickstart.dlgp"),
		"-checkpoint", out, "-quiet",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	checked := clitest.Example("quickstart.checkpoint")
	if *clitest.Update {
		if err := os.WriteFile(checked, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(checked)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("examples/dlgp/quickstart.checkpoint is stale (re-record with -update if the change is intended)")
	}
}

// TestChaseCheckpointChain drives the full incremental loop through the
// CLI: chase with -checkpoint, resume that artifact with -checkpoint
// again (a chained, second-generation artifact), and resume the chain
// with one more delta. Misuse diagnoses: resuming with mismatched
// rules, and -checkpoint on a run cut mid-round by an atom budget.
func TestChaseCheckpointChain(t *testing.T) {
	dir := t.TempDir()
	cp1 := filepath.Join(dir, "gen1.cp")
	cp2 := filepath.Join(dir, "gen2.cp")
	delta2 := filepath.Join(dir, "delta2.dlgp")
	if err := os.WriteFile(delta2, []byte(
		"knows(dave, erin).\nknows(X, Y) -> person(Y).\nperson(X) -> ∃Y id(X, Y).\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	step := func(argv ...string) (string, string, int) {
		var stdout, stderr bytes.Buffer
		code := run(argv, &stdout, &stderr)
		return stdout.String(), stderr.String(), code
	}

	if _, errout, code := step("-program", clitest.Example("quickstart.dlgp"), "-checkpoint", cp1, "-quiet"); code != 0 {
		t.Fatalf("chase -checkpoint: exit %d, stderr: %s", code, errout)
	}
	if _, errout, code := step("-resume", cp1, "-program", clitest.Example("quickstart-delta.dlgp"), "-checkpoint", cp2, "-quiet"); code != 0 {
		t.Fatalf("resume -checkpoint: exit %d, stderr: %s", code, errout)
	}
	out, errout, code := step("-resume", cp2, "-program", delta2)
	if code != 0 {
		t.Fatalf("chained resume: exit %d, stderr: %s", code, errout)
	}
	for _, want := range []string{"person(erin)", "id(erin,", "id(alice,"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chained resume output lacks %q:\n%s", want, out)
		}
	}

	// Mismatched rules: the guarded ontology is not the checkpointed one.
	if _, errout, code := step("-resume", cp1, "-program", clitest.Example("guarded.dlgp")); code != 2 {
		t.Fatalf("mismatched resume: exit %d, want 2 (stderr: %s)", code, errout)
	} else if !strings.Contains(errout, "mismatch") {
		t.Fatalf("mismatched resume stderr lacks the cause: %s", errout)
	}

	// A mid-round atom-budget cut leaves no clean resumable boundary;
	// asking for an artifact anyway is diagnosed, not silently dropped.
	// (infinite.dlgp grows one atom per round, so its cuts are always
	// clean — a wide round is needed to land the budget mid-round.)
	wide := filepath.Join(dir, "wide.dlgp")
	if err := os.WriteFile(wide, []byte(
		"e(a1, b1). e(a2, b2). e(a3, b3).\ne(X, Y) -> ∃Z e(Y, Z).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, errout, code := step("-program", wide, "-max-atoms", "4", "-quiet", "-checkpoint", filepath.Join(dir, "dirty.cp")); code != 2 {
		t.Fatalf("dirty checkpoint: exit %d, want 2 (stderr: %s)", code, errout)
	} else if !strings.Contains(errout, "not resumable") {
		t.Fatalf("dirty checkpoint stderr lacks the cause: %s", errout)
	}
}

// The profile flags must produce non-empty pprof files without touching
// stdout (golden coverage) or the exit code.
func TestChaseProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-program", clitest.Example("quickstart.dlgp"), "-quiet",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// An unwritable profile path is CLI misuse, diagnosed before running.
	code = run([]string{
		"-program", clitest.Example("quickstart.dlgp"), "-quiet",
		"-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof"),
	}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("unwritable cpu profile: exit %d, want 2", code)
	}
}
