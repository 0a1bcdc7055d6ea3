// Package cli holds the input-loading and flag conventions shared by the
// command-line tools: programs are either a single combined file (facts +
// rules) or a separate database file and rules file, and every tool that
// runs long-lived work takes the same -stream flag, which surfaces
// progress and completion events on stderr as they happen. Streaming
// never touches stdout, so golden outputs are identical with and without
// it.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/chase"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/service"
	"repro/internal/tgds"
)

// StreamFlag registers the conventional -stream flag: stream progress and
// completion events to stderr while the run executes. Streaming is pure
// observability — stdout is byte-identical with and without it.
func StreamFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("stream", false, "stream per-round progress / per-job completion events to stderr")
}

// RequestFlag registers the conventional -request flag: a JSON request
// file (service.RequestFile) replaces the input and run flags with a
// typed request envelope — the same envelope a remote submitter would
// ship — replayed through the service layer.
func RequestFlag(fs *flag.FlagSet) *string {
	return fs.String("request", "", "JSON request file (typed service envelope) replacing input/run flags")
}

// QoSFlag registers the conventional -qos flag: the request's serving
// policy in internal/qos.Parse's grammar — "exact" (the default, run to
// fixpoint under the explicit budgets), "learn" (exact, storing the
// observed round/atom counts as the ontology's learned bound), "bounded"
// (serve under the learned bound; rejected when none was profiled), or
// "anytime:<deadline>[,<k>r]" (serve whatever whole rounds fit). A
// request file's own "qos" field wins over the flag.
func QoSFlag(fs *flag.FlagSet) *string {
	return fs.String("qos", "", "QoS policy: exact (default), learn, bounded, or anytime:<deadline>[,<k>r]")
}

// ProgressPrinter returns a callback that renders each round-boundary
// snapshot as one diagnostic line on w, prefixed by the tool name: a
// DecideRequest's or a fleet.Job's Progress, or the printer of a
// ticket's Progress stream.
func ProgressPrinter(w io.Writer, tool string) func(chase.Stats) {
	return func(s chase.Stats) {
		fmt.Fprintf(w, "%s: stream round=%d atoms=%d nulls=%d fired=%d/%d\n",
			tool, s.Rounds, s.Atoms, s.Nulls, s.TriggersFired, s.TriggersConsidered)
	}
}

// StreamServiceTicket consumes one service ticket: round-level progress
// events are rendered to w as they arrive (latest-wins — a slow writer
// only misses intermediate rounds, never the final one; the stream is
// closed just before the result is delivered), and the job's typed
// result is returned. Non-chase tickets have no stream and return
// immediately on Wait.
func StreamServiceTicket(w io.Writer, tool string, t *service.Ticket) service.Result {
	if progress := t.Progress(); progress != nil {
		print := ProgressPrinter(w, tool)
		for s := range progress {
			print(s)
		}
	}
	return t.Wait()
}

// CacheState renders a run's compilation-cache interaction for the tools'
// diagnostic lines: "hit" or "miss" when a compiler was attached, "off"
// when the run compiled inside itself.
func CacheState(s chase.Stats) string {
	switch {
	case s.CompileHits > 0:
		return "hit"
	case s.CompileMisses > 0:
		return "miss"
	default:
		return "off"
	}
}

// LoadInput reads the database and rule set for a tool invocation. When
// program is non-empty it takes precedence and may mix facts and rules;
// otherwise both dataPath and rulesPath must be provided.
func LoadInput(dataPath, rulesPath, program string) (*logic.Instance, *tgds.Set, error) {
	if program != "" {
		src, err := os.ReadFile(program)
		if err != nil {
			return nil, nil, err
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			return nil, nil, err
		}
		return prog.Database, prog.Rules, nil
	}
	if dataPath == "" || rulesPath == "" {
		return nil, nil, fmt.Errorf("provide -program, or both -data and -rules")
	}
	dataSrc, err := os.ReadFile(dataPath)
	if err != nil {
		return nil, nil, err
	}
	db, err := parser.ParseDatabase(string(dataSrc))
	if err != nil {
		return nil, nil, err
	}
	rulesSrc, err := os.ReadFile(rulesPath)
	if err != nil {
		return nil, nil, err
	}
	rules, err := parser.ParseRules(string(rulesSrc))
	if err != nil {
		return nil, nil, err
	}
	return db, rules, nil
}
