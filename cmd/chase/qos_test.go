package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cli/clitest"
)

// TestChaseQoSGolden pins the anytime tier's deterministic form: a fixed
// round quota truncates at a round boundary, so stdout — including the
// "% truncated: deadline budget exhausted" marker — is byte-identical
// from run to run.
func TestChaseQoSGolden(t *testing.T) {
	clitest.Golden(t, run, []clitest.Case{
		{
			Name: "infinite-anytime-rounds",
			Argv: []string{"-program", clitest.Example("infinite.dlgp"), "-qos", "anytime:5r", "-format", "dlgp", "-stats"},
			Exit: 1,
		},
		{
			// An anytime policy with both a generous deadline and a round
			// quota: the quota fires first, so the output is still
			// deterministic and must match the quota-only golden.
			Name:   "infinite-anytime-deadline-and-rounds",
			Argv:   []string{"-program", clitest.Example("infinite.dlgp"), "-qos", "anytime:1h,5r", "-format", "dlgp", "-stats"},
			Exit:   1,
			SameAs: "infinite-anytime-rounds",
		},
	})
}

// TestChaseLearnThenBounded drives the PDQ-style serving loop through
// the CLI: a learn-mode reference run stores the observed bound in the
// process-wide cache, and a subsequent bounded run serves under it. A
// truncated reference run records a prefix bound, and the bounded run's
// truncation marker names the learned bound as its budget source.
func TestChaseLearnThenBounded(t *testing.T) {
	step := func(argv ...string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		code := run(argv, &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}

	// Bounded before any learn run: rejected, naming the missing bound.
	if code, _, errout := step("-program", clitest.Example("guarded.dlgp"), "-qos", "bounded", "-quiet"); code != 2 {
		t.Fatalf("bounded without a learned bound: exit %d, want 2 (stderr: %s)", code, errout)
	} else if !strings.Contains(errout, "no learned bound") {
		t.Fatalf("bounded rejection stderr lacks the cause: %s", errout)
	}

	// Learn on a terminating program, then serve bounded: the learned
	// bound includes the final empty round, so the bounded run still
	// reaches the fixpoint and exits 0.
	if code, _, errout := step("-program", clitest.Example("quickstart.dlgp"), "-qos", "learn", "-quiet"); code != 0 {
		t.Fatalf("learn run: exit %d, stderr: %s", code, errout)
	}
	if code, _, errout := step("-program", clitest.Example("quickstart.dlgp"), "-qos", "bounded", "-quiet"); code != 0 {
		t.Fatalf("bounded run after learn: exit %d, stderr: %s", code, errout)
	}

	// Learn under a budget on a non-terminating program: the truncated
	// reference records a prefix bound (Observed=false), and the bounded
	// replay truncates at the same whole-round prefix, attributing the
	// cut to the learned bound in the marker.
	if code, out, errout := step("-program", clitest.Example("infinite.dlgp"), "-qos", "learn", "-max-atoms", "50", "-quiet"); code != 1 {
		t.Fatalf("truncated learn run: exit %d, stderr: %s", code, errout)
	} else if !strings.Contains(out, "% truncated: flag budget exhausted") {
		t.Fatalf("truncated learn marker names the wrong source:\n%s", out)
	}
	code, out, errout := step("-program", clitest.Example("infinite.dlgp"), "-qos", "bounded", "-quiet")
	if code != 1 {
		t.Fatalf("bounded replay: exit %d, stderr: %s", code, errout)
	}
	if !strings.Contains(out, "% truncated: learned-bound budget exhausted") {
		t.Fatalf("bounded replay marker names the wrong source:\n%s", out)
	}
}

// TestChaseQoSMisuse: malformed policies and invalid budget combinations
// are CLI misuse or typed rejections, never silent acceptance.
func TestChaseQoSMisuse(t *testing.T) {
	step := func(argv ...string) (int, string) {
		var stdout, stderr bytes.Buffer
		code := run(argv, &stdout, &stderr)
		return code, stderr.String()
	}
	quick := clitest.Example("quickstart.dlgp")
	if code, errout := step("-program", quick, "-qos", "sometimes"); code != 2 || !strings.Contains(errout, "unknown QoS policy") {
		t.Fatalf("unknown policy: exit %d, stderr %q", code, errout)
	}
	if code, errout := step("-program", quick, "-qos", "anytime:"); code != 2 || !strings.Contains(errout, "unknown QoS policy") {
		t.Fatalf("empty anytime spec: exit %d, stderr %q", code, errout)
	}
	if code, errout := step("-program", quick, "-qos", "anytime:-5ms"); code != 2 || !strings.Contains(errout, "bad anytime deadline") {
		t.Fatalf("negative deadline: exit %d, stderr %q", code, errout)
	}
	if code, errout := step("-program", quick, "-qos", "anytime:0r"); code != 2 || !strings.Contains(errout, "bad anytime round quota") {
		t.Fatalf("zero round quota: exit %d, stderr %q", code, errout)
	}
	// A negative explicit budget is rejected at admission (it used to be
	// silently accepted and behaved as an instant timeout).
	if code, errout := step("-program", quick, "-max-atoms", "-1"); code != 2 || !strings.Contains(errout, "negative budget") {
		t.Fatalf("negative max-atoms: exit %d, stderr %q", code, errout)
	}
}
