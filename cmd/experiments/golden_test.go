package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

// End-to-end goldens for the experiment tables: full stdout at
// -workers=1 and -workers=4, the scheduler widths of scheduler-backed
// sweeps. Only count-valued (timing-free) experiments are golden-tested;
// their tables are deterministic for any worker count and cache state.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are seconds-long; skipped in -short")
	}
	clitest.Golden(t, run, []clitest.Case{
		{
			Name: "list",
			Argv: []string{"-list"},
		},
		{
			Name: "xp-depth-quick",
			Argv: []string{"-exp", "XP-DEPTH", "-quick"},
		},
		{
			// A JSON experiment-request file must reproduce the flag
			// invocation byte for byte; SameAs enforces it even under
			// -update.
			Name:   "xp-depth-quick-request",
			Argv:   []string{"-request", clitest.Example("xp-depth.request.json")},
			SameAs: "xp-depth-quick",
		},
		{
			Name: "xp-ucq-quick-csv",
			Argv: []string{"-exp", "XP-UCQ", "-quick", "-format", "csv"},
		},
		{
			Name: "xp-restricted-quick",
			Argv: []string{"-exp", "XP-RESTRICTED", "-quick"},
		},
		{
			// The anytime quality-vs-latency table carries counts only (no
			// wall times), so it is golden-stable.
			Name: "xp-qos-quick",
			Argv: []string{"-exp", "XP-QOS", "-quick"},
		},
		{
			// Completion events stream to stderr; the table on stdout must
			// stay byte-identical to the batch case; SameAs enforces it
			// even under -update.
			Name:   "xp-restricted-quick-stream",
			Argv:   []string{"-exp", "XP-RESTRICTED", "-quick", "-stream"},
			SameAs: "xp-restricted-quick",
		},
	}, "-workers=1", "-workers=4")
}
