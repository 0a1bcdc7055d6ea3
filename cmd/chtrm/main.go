// Command chtrm decides non-uniform chase termination: given a database D
// and a set Σ of TGDs, does the semi-oblivious chase of D with Σ
// terminate? For simple linear, linear, and guarded sets it applies the
// paper's characterizations (Theorems 6.4, 7.5, 8.3); the naive
// chase-materialization procedure and the UCQ data-complexity procedure
// are available for comparison.
//
// Usage:
//
//	chtrm -data db.dlgp -rules onto.dlgp [-method syntactic|naive|ucq]
//	      [-max-atoms N] [-qos POLICY] [-show-bounds]
//	      [-stats] [-stream] [-metrics FILE] [-trace FILE]
//	chtrm -request req.json [-stats] [-stream]
//
// The -qos flag applies a serving policy to the naive probe (the one
// method that materializes a chase): "bounded" caps the probe at the
// ontology's learned atom count, "anytime:<deadline>" bounds its wall
// clock. See internal/qos for the grammar.
//
// Every decision routes through the service layer as a typed
// DecideRequest (internal/service) — the same envelope a remote
// submitter would ship, also loadable from a JSON request file via
// -request. The -stream flag prints the probe's round-level
// progress to stderr while it materializes (it only applies to -method
// naive, the one long-running method); the verdict on stdout is
// byte-identical either way. The naive probe's compiled programs and the
// ucq method's UCQ build are served by the process-wide compilation
// cache (internal/compile), keyed by Σ's canonical fingerprint. With
// -stats, a key-value statistics block — the same registry-sourced
// block chase -stats prints — lands on stderr; -metrics and -trace
// write the metrics snapshot and per-job trace spans to files at exit.
// None of the three touches stdout.
//
// Exit status: 0 terminating, 1 non-terminating, 3 unknown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/tgds"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses argv, executes, writes the
// result to stdout and diagnostics to stderr, and returns the exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chtrm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath   = fs.String("data", "", "database file (facts)")
		rulesPath  = fs.String("rules", "", "rules file (TGDs)")
		program    = fs.String("program", "", "combined program file (facts + rules)")
		method     = fs.String("method", "syntactic", "decision method: syntactic, naive, ucq")
		maxAtoms   = fs.Int("max-atoms", 1000000, "atom cap for the naive method")
		showBounds = fs.Bool("show-bounds", false, "print d_C(Σ) and f_C(Σ)")
		dotPath    = fs.String("dot", "", "write the dependency graph dg(Σ) in GraphViz format to this file")
		uniform    = fs.Bool("uniform", false, "decide uniform termination (every database) instead")
		stats      = fs.Bool("stats", false, "print run statistics")
		request    = cli.RequestFlag(fs)
		stream     = cli.StreamFlag(fs)
		qosStr     = cli.QoSFlag(fs)
	)
	metricsPath, tracePath := cli.TelemetryFlags(fs)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h/-help is a successful invocation, not CLI misuse
		}
		return 2
	}
	policy, err := qos.Parse(*qosStr)
	if err != nil {
		fmt.Fprintln(stderr, "chtrm:", err)
		return 2
	}

	// Assemble the decision envelope: from the request file or the flags.
	var req service.DecideRequest
	if *request != "" {
		f, err := service.LoadRequestFile(*request)
		if err != nil {
			fmt.Fprintln(stderr, "chtrm:", err)
			return 2
		}
		if req, err = f.DecideRequest(); err != nil {
			fmt.Fprintln(stderr, "chtrm:", err)
			return 2
		}
	} else {
		db, rules, err := cli.LoadInput(*dataPath, *rulesPath, *program)
		if err != nil {
			fmt.Fprintln(stderr, "chtrm:", err)
			return 2
		}
		req = service.DecideRequest{
			Database: service.Payload{Instance: db},
			Ontology: service.OntologyRef{Set: rules},
			Method:   *method,
			AtomCap:  *maxAtoms,
		}
	}
	// CLI-side overrides apply in both modes, like -stream;
	// a request file's own "qos" field wins over the flag.
	if req.Meta.QoS.IsZero() {
		req.Meta.QoS = policy
	}
	if *uniform {
		req.Method = "uniform"
	}
	if req.AtomCap == 0 {
		// A request file without an atomCap inherits the flag's cap (and
		// its 1e6 default), so the naive probe is never accidentally
		// unbounded just because the envelope came from a file.
		req.AtomCap = *maxAtoms
	}
	if *stream {
		req.Progress = cli.ProgressPrinter(stderr, "chtrm")
	}

	rules := req.Ontology.Set
	if rules == nil {
		fmt.Fprintln(stderr, "chtrm: request names no rule set")
		return 2
	}
	class := rules.Classify()
	fmt.Fprintf(stdout, "class: %v (%d TGDs, %d predicates, arity %d, ‖Σ‖=%d)\n",
		class, rules.Len(), len(rules.Schema()), rules.Arity(), rules.Norm())

	if *showBounds && class != tgds.ClassTGD {
		b := core.SizeBound(rules, class)
		fmt.Fprintf(stdout, "depth bound d_%v(Σ) = %v\n", class, b.Depth)
		if b.Size != nil {
			fmt.Fprintf(stdout, "size bound f_%v(Σ) = %v\n", class, b.Size)
		} else {
			fmt.Fprintf(stdout, "size bound f_%v(Σ) ≈ 2^%.1f (not materialized)\n", class, b.Log2Size)
		}
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			fmt.Fprintln(stderr, "chtrm:", err)
			return 2
		}
		if err := compile.Global().DepGraph(rules).Dot(f, "dg", nil); err != nil {
			fmt.Fprintln(stderr, "chtrm:", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "chtrm:", err)
			return 2
		}
	}

	// One-shot service over the process-wide compilation cache.
	tel := cli.NewTelemetry(*stats, *metricsPath, *tracePath)
	svc := service.New(service.Config{Workers: 1, QueueBound: 1, Telemetry: tel})
	defer svc.Close()
	ticket, err := svc.SubmitDecide(context.Background(), req)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	r := ticket.Wait()
	if r.Err != nil {
		fmt.Fprintln(stderr, r.Err)
		return 2
	}
	fmt.Fprintln(stdout, r.Verdict)
	if *stats {
		usedMethod := req.Method
		if usedMethod == "" {
			usedMethod = "syntactic"
		}
		cli.StatsBlock(stderr, "chtrm", [][2]string{
			{"class", fmt.Sprint(class)},
			{"method", usedMethod},
			{"outcome", fmt.Sprint(r.Verdict.Outcome)},
		}, svc.Metrics())
	}
	if err := cli.WriteTelemetry(tel, *metricsPath, *tracePath); err != nil {
		fmt.Fprintln(stderr, "chtrm:", err)
		return 2
	}
	switch r.Verdict.Outcome {
	case core.Finite:
		return 0
	case core.Infinite:
		return 1
	default:
		return 3
	}
}
