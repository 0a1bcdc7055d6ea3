// Command chase runs the (semi-oblivious, oblivious, or restricted) chase
// of a database with respect to a set of TGDs, both read from DLGP-style
// text files, and prints the resulting instance and statistics.
//
// Usage:
//
//	chase -data db.dlgp -rules onto.dlgp [-engine semi|oblivious|restricted]
//	      [-max-atoms N] [-stats] [-quiet] [-stream]
//	      [-metrics FILE] [-trace FILE] [-checkpoint FILE]
//	chase -resume cp.bin -program delta.dlgp [-checkpoint FILE] [...]
//	chase -request req.json [-stats] [-quiet] [-stream]
//
// Facts and rules may also live in a single file passed via -program, or
// the whole invocation in a JSON request file passed via -request — the
// typed service envelope (internal/service.RequestFile: inputs, engine,
// budgets, tenant and priority lane) that a remote submitter would ship,
// replayed locally. Every run routes through the service layer: the
// request envelope is submitted to an in-process service and the result
// ticket is awaited, so the public submission path — the one a
// distributed deployment serves — is exercised end to end by these
// goldens. Compiled per-TGD programs are fetched from the process-wide
// compilation cache (internal/compile), so repeated runs over one
// ontology — or many tools in one process — pay analysis once; -stats
// reports the cache interaction, including the cache's approximate byte
// footprint. With -stream, the ticket's round-level progress events are
// printed to stderr as rounds complete; stdout is byte-identical either
// way. With -metrics / -trace, the run's metrics snapshot (Prometheus
// text; a .json path selects the JSON rendering) and per-job trace
// spans (JSON lines) are written to files at exit — like -stats and
// -stream, pure observability that never touches stdout. A
// budget-truncated run always ends its stdout with a
// deterministic "% truncated" comment line (a dlgp comment, so -format
// dlgp output stays re-parseable).
//
// With -checkpoint, the run captures resumable state and its encoded
// checkpoint artifact (internal/checkpoint) is written to FILE at exit.
// A later invocation continues it with -resume: the input's facts are
// the base-data delta (only their consequences are chased), its rules
// must match the checkpointed ontology exactly, and the chase variant is
// pinned by the artifact (-engine does not apply). -resume composes with
// -checkpoint (the resumed run emits a second-generation artifact) and
// with -request via a "resume"-kind request file.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/chase"
	"repro/internal/cli"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/qos"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses argv, executes, writes the
// result to stdout and diagnostics to stderr, and returns the exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chase", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath  = fs.String("data", "", "database file (facts)")
		rulesPath = fs.String("rules", "", "rules file (TGDs)")
		program   = fs.String("program", "", "combined program file (facts + rules)")
		engine    = fs.String("engine", "semi", "chase variant: semi, oblivious, restricted")
		maxAtoms  = fs.Int("max-atoms", 1000000, "atom budget (0 = unlimited)")
		stats     = fs.Bool("stats", false, "print run statistics")
		quiet     = fs.Bool("quiet", false, "suppress the result instance")
		format    = fs.String("format", "pretty", "output format: pretty (⊥ nulls) or dlgp (re-parseable, frozen nulls)")
		cpOut     = fs.String("checkpoint", "", "write the run's resumable checkpoint artifact to `file`")
		resume    = fs.String("resume", "", "resume from a checkpoint artifact `file`; the input's facts are the base-data delta")
		request   = cli.RequestFlag(fs)
		stream    = cli.StreamFlag(fs)
		qosStr    = cli.QoSFlag(fs)
		fleetStr  = fs.String("fleet", "", "comma-separated chased worker addresses; the chase runs remotely, stdout is byte-identical")
		fleetNet  = fs.String("fleet-network", "tcp", "fleet worker network: tcp or unix")
	)
	metricsPath, tracePath := cli.TelemetryFlags(fs)
	cpuprofile, memprofile := cli.ProfileFlags(fs)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h/-help is a successful invocation, not CLI misuse
		}
		return 2
	}
	policy, err := qos.Parse(*qosStr)
	if err != nil {
		fmt.Fprintln(stderr, "chase:", err)
		return 2
	}
	stopProfiles, err := cli.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, "chase:", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "chase:", err)
		}
	}()

	// Assemble the request envelope — a chase or (with -resume, or a
	// "resume"-kind request file) an incremental re-chase continuing a
	// checkpoint artifact — from the request file (which then owns
	// inputs, engine, and budgets) or from the input flags.
	var (
		req         service.ChaseRequest
		delta       service.DeltaRequest
		isResume    bool
		engineLabel string
	)
	switch {
	case *request != "":
		f, err := service.LoadRequestFile(*request)
		if err != nil {
			fmt.Fprintln(stderr, "chase:", err)
			return 2
		}
		if f.Kind == "resume" {
			isResume = true
			if delta, err = f.DeltaRequest(); err != nil {
				fmt.Fprintln(stderr, "chase:", err)
				return 2
			}
		} else if req, err = f.ChaseRequest(); err != nil {
			fmt.Fprintln(stderr, "chase:", err)
			return 2
		}
	case *resume != "":
		isResume = true
		artifact, err := os.ReadFile(*resume)
		if err != nil {
			fmt.Fprintln(stderr, "chase:", err)
			return 2
		}
		// The input's facts are the base-data delta; its rules pin Σ,
		// which must match the checkpointed ontology exactly. The chase
		// variant is the checkpoint's — -engine does not apply here.
		db, rules, err := cli.LoadInput(*dataPath, *rulesPath, *program)
		if err != nil {
			fmt.Fprintln(stderr, "chase:", err)
			return 2
		}
		delta = service.DeltaRequest{
			Checkpoint: artifact,
			Ontology:   service.OntologyRef{Set: rules},
			Delta:      db.Atoms(),
			MaxAtoms:   *maxAtoms,
		}
	default:
		db, rules, err := cli.LoadInput(*dataPath, *rulesPath, *program)
		if err != nil {
			fmt.Fprintln(stderr, "chase:", err)
			return 2
		}
		variant, err := service.ParseVariant(*engine)
		if err != nil {
			fmt.Fprintln(stderr, "chase:", err)
			return 2
		}
		req = service.ChaseRequest{
			Database: service.Payload{Instance: db},
			Ontology: service.OntologyRef{Set: rules},
			Variant:  variant,
			MaxAtoms: *maxAtoms,
		}
	}
	if isResume {
		if delta.MaxAtoms == 0 {
			delta.MaxAtoms = *maxAtoms
		}
		if delta.Meta.QoS.IsZero() {
			// A request file's own "qos" field wins over the flag.
			delta.Meta.QoS = policy
		}
		// -checkpoint on a resume chains: the resumed run captures
		// resumable state of its own and emits a second-generation
		// artifact.
		delta.Chain = delta.Chain || *cpOut != ""
		engineLabel = "resume"
	} else {
		if req.MaxAtoms == 0 {
			// A request file without a budget inherits the flag's cap (and
			// its 1e6 default), so a filed chase of a non-terminating
			// ontology is never accidentally unbounded.
			req.MaxAtoms = *maxAtoms
		}
		if req.Meta.QoS.IsZero() {
			req.Meta.QoS = policy
		}
		req.Checkpoint = req.Checkpoint || *cpOut != ""
		engineLabel = fmt.Sprint(req.Variant)
	}

	if *fleetStr != "" {
		// The remote route reuses the assembled envelope; features that
		// need the local ticket or the local process (checkpoint capture,
		// resume, telemetry files) are CLI misuse with -fleet.
		switch {
		case isResume:
			fmt.Fprintln(stderr, "chase: -fleet does not support -resume or resume request files")
			return 2
		case *cpOut != "" || req.Checkpoint:
			fmt.Fprintln(stderr, "chase: -fleet does not support -checkpoint")
			return 2
		case *metricsPath != "" || *tracePath != "":
			fmt.Fprintln(stderr, "chase: -fleet does not support -metrics or -trace (scrape the workers' -http surface)")
			return 2
		}
		return runFleet(*fleetStr, *fleetNet, req, engineLabel, *stats, *quiet, *stream, *format, stdout, stderr)
	}

	// One-shot service over the process-wide compilation cache: submit
	// the envelope, await (or stream) the ticket. Telemetry is built only
	// when some flag consumes it (-stats, -metrics, -trace); stdout is
	// byte-identical either way.
	tel := cli.NewTelemetry(*stats, *metricsPath, *tracePath)
	svc := service.New(service.Config{Workers: 1, QueueBound: 1, Telemetry: tel})
	defer svc.Close()
	var ticket *service.Ticket
	if isResume {
		ticket, err = svc.SubmitDelta(context.Background(), delta)
	} else {
		ticket, err = svc.SubmitChase(context.Background(), req)
	}
	if err != nil {
		fmt.Fprintln(stderr, "chase:", err)
		return 2
	}
	var r service.Result
	if *stream {
		r = cli.StreamServiceTicket(stderr, "chase", ticket)
	} else {
		r = ticket.Wait()
	}
	if r.Err != nil {
		fmt.Fprintln(stderr, "chase:", r.Err)
		return 2
	}
	res := r.Chase

	if code := emitChase(stdout, stderr, *format, *quiet, res.Instance, res.Stats, res.Terminated, r.BudgetSource); code != 0 {
		return code
	}
	if *cpOut != "" {
		// The artifact is encoded off the finished ticket ("checkpoint"
		// trace span on a traced run) and written at exit; a run that
		// captured no resumable state (a dirty budget cut) is CLI
		// misuse of -checkpoint, diagnosed on stderr.
		data, err := ticket.EncodeCheckpoint()
		if err != nil {
			fmt.Fprintln(stderr, "chase:", err)
			return 2
		}
		if err := os.WriteFile(*cpOut, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "chase:", err)
			return 2
		}
	}
	if *stats {
		lines := append(statsLines(engineLabel, res.Stats, res.Terminated),
			[2]string{"scratch-reuses", fmt.Sprint(svc.ScratchReuses())})
		cli.StatsBlock(stderr, "chase", lines, svc.Metrics())
	}
	if err := cli.WriteTelemetry(tel, *metricsPath, *tracePath); err != nil {
		fmt.Fprintln(stderr, "chase:", err)
		return 2
	}
	if !res.Terminated {
		return 1
	}
	return 0
}

// statsLines returns the -stats lines both routes print first; each
// route appends its own.
func statsLines(engineLabel string, s chase.Stats, terminated bool) [][2]string {
	return [][2]string{
		{"engine", engineLabel},
		{"atoms", fmt.Sprint(s.Atoms)},
		{"initial-atoms", fmt.Sprint(s.InitialAtoms)},
		{"rounds", fmt.Sprint(s.Rounds)},
		{"triggers-fired", fmt.Sprint(s.TriggersFired)},
		{"triggers-considered", fmt.Sprint(s.TriggersConsidered)},
		{"nulls", fmt.Sprint(s.Nulls)},
		{"max-depth", fmt.Sprint(s.MaxDepth)},
		{"terminated", fmt.Sprint(terminated)},
		{"cache", cli.CacheState(s)},
		{"arena-blocks", fmt.Sprint(s.ArenaBlocks)},
	}
}

// emitChase renders a finished chase to stdout: the result instance
// (unless quiet) in the selected format, then — for a budget-truncated
// run — the deterministic "% truncated" comment. It is the single
// emission path for both the in-process and -fleet routes, so remote
// results are byte-identical to local ones by construction. Returns a
// non-zero exit code only on a rendering failure; budget truncation is
// the caller's exit-code concern.
func emitChase(stdout, stderr io.Writer, format string, quiet bool, inst *logic.Instance, stats chase.Stats, terminated bool, source qos.Source) int {
	if !quiet {
		switch format {
		case "dlgp":
			if err := parser.FormatDatabase(stdout, inst); err != nil {
				fmt.Fprintln(stderr, "chase:", err)
				return 1
			}
		default:
			atoms := make([]*logic.Atom, len(inst.Atoms()))
			copy(atoms, inst.Atoms())
			for _, a := range logic.SortAtoms(atoms) {
				fmt.Fprintln(stdout, a)
			}
		}
	}
	if !terminated {
		// The truncation summary is part of the result, not a diagnostic:
		// it lands on stdout, deterministically (the atom and round counts
		// are byte-identical for any cache state or fleet placement), as
		// a dlgp comment so -format dlgp output stays re-parseable. The
		// source names the budget that stopped the run (flag, deadline,
		// or learned-bound), so anytime and bounded output is
		// self-describing.
		fmt.Fprintf(stdout, "%% truncated: %s budget exhausted after %d atoms in %d rounds; the chase may be infinite\n",
			source, inst.Len(), stats.Rounds)
	}
	return 0
}
