package main

import (
	"strings"
	"testing"

	"repro/internal/cli/clitest"
)

// End-to-end goldens over examples/dlgp: full stdout.
func TestChtrmGolden(t *testing.T) {
	clitest.Golden(t, run, []clitest.Case{
		{
			Name: "quickstart-syntactic",
			Argv: []string{"-program", clitest.Example("quickstart.dlgp")},
		},
		{
			Name: "infinite-syntactic",
			Argv: []string{"-program", clitest.Example("infinite.dlgp"), "-show-bounds"},
			Exit: 1,
		},
		{
			// The exact bound |D|·f_SL(Σ) exceeds any practical cap here,
			// so the budgeted probe answers Unknown (exit 3).
			Name: "infinite-naive",
			Argv: []string{"-program", clitest.Example("infinite.dlgp"), "-method", "naive", "-max-atoms", "2000"},
			Exit: 3,
		},
		{
			Name: "quickstart-naive",
			Argv: []string{"-program", clitest.Example("quickstart.dlgp"), "-method", "naive"},
		},
		{
			// Streaming the probe's rounds to stderr must leave the verdict
			// on stdout byte-identical to the batch case; SameAs enforces
			// it even under -update.
			Name:   "quickstart-naive-stream",
			Argv:   []string{"-program", clitest.Example("quickstart.dlgp"), "-method", "naive", "-stream"},
			SameAs: "quickstart-naive",
		},
		{
			Name: "infinite-ucq",
			Argv: []string{"-program", clitest.Example("infinite.dlgp"), "-method", "ucq"},
			Exit: 1,
		},
		{
			Name: "linear-syntactic",
			Argv: []string{"-program", clitest.Example("linear.dlgp"), "-show-bounds"},
		},
		{
			Name: "linear-ucq",
			Argv: []string{"-program", clitest.Example("linear.dlgp"), "-method", "ucq"},
		},
		{
			// A JSON decide-request file must reproduce the flag
			// invocation byte for byte; SameAs enforces it even under
			// -update.
			Name:   "linear-ucq-request",
			Argv:   []string{"-request", clitest.Example("linear-ucq.request.json")},
			SameAs: "linear-ucq",
		},
		{
			Name: "guarded-syntactic",
			Argv: []string{"-program", clitest.Example("guarded.dlgp")},
			Exit: 1,
		},
		{
			// The exact guarded bound dwarfs the practical cap, so the
			// budgeted probe answers Unknown (exit 3).
			Name: "guarded-naive",
			Argv: []string{"-program", clitest.Example("guarded.dlgp"), "-method", "naive", "-max-atoms", "5000"},
			Exit: 3,
		},
		{
			Name: "quickstart-uniform",
			Argv: []string{"-program", clitest.Example("quickstart.dlgp"), "-uniform"},
		},
		{
			// Class TGD: undecidable non-uniformly, but classical weak
			// acyclicity is a sufficient uniform condition.
			Name: "unguarded-uniform",
			Argv: []string{"-program", clitest.Example("unguarded.dlgp"), "-uniform"},
		},
	})
}

// -max-atoms 0 lifts the naive probe's cap. On a guarded Σ the exact
// bound |D|·f_G(Σ) is too large to materialize, so the probe would chase
// without a bound; it must be refused as a usage error (exit 2) at once.
func TestChtrmNaiveNoCapRefused(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-program", clitest.Example("guarded.dlgp"), "-method", "naive", "-max-atoms", "0"}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "bad-request") || !strings.Contains(stderr.String(), "atom cap") {
		t.Fatalf("exit %d, stderr %q: want exit 2 with a bad-request atom-cap error", code, stderr.String())
	}
}
