package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cli"
	"repro/internal/compile"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/wire"
)

// runFleet is the -fleet route: instead of chasing in-process, the
// assembled request envelope is shipped to a fleet of chased workers
// through the coordinator, and the remote result is rendered through
// the same emission path as a local run — stdout is byte-identical by
// construction. A local registry service acts as the coordinator's
// ontology source, so cold workers pull Σ through the handshake and
// nothing has to be provisioned on them ahead of time.
func runFleet(addrs, network string, req service.ChaseRequest, engineLabel string, stats, quiet, stream bool, format string, stdout, stderr io.Writer) int {
	if req.Ontology.Set == nil {
		fmt.Fprintln(stderr, "chase: -fleet needs the ontology's clauses (a fingerprint-only request cannot seed cold workers)")
		return 2
	}
	// The local service is only a registry here — it never chases; it
	// computes the fingerprint and serves the cold-pull source.
	local := service.New(service.Config{Cache: compile.NewCache(0)})
	defer local.Close()
	h, err := local.RegisterOntology(req.Ontology.Set)
	if err != nil {
		fmt.Fprintln(stderr, "chase:", err)
		return 2
	}
	snapshot := req.Database.Snapshot
	if req.Database.Instance != nil {
		snapshot = wire.EncodeSnapshot(req.Database.Instance)
	}
	coord, err := fleet.NewCoordinator(fleet.Config{
		Workers: strings.Split(addrs, ","),
		Network: network,
		Source:  local,
	})
	if err != nil {
		fmt.Fprintln(stderr, "chase:", err)
		return 2
	}
	defer coord.Close()

	if req.Name == "" {
		req.Name = "chase"
	}
	job := fleet.Job{
		Name:        req.Name,
		Tenant:      req.Meta.Tenant,
		Priority:    req.Meta.Priority,
		Fingerprint: h.Fingerprint,
		Variant:     req.Variant,
		Snapshot:    snapshot,
		MaxAtoms:    req.MaxAtoms,
		MaxRounds:   req.MaxRounds,
		QoS:         req.Meta.QoS,
	}
	if stream {
		job.Progress = cli.ProgressPrinter(stderr, "chase")
	}
	tk, err := coord.Submit(job)
	if err != nil {
		fmt.Fprintln(stderr, "chase:", err)
		return 2
	}
	res := tk.Wait()
	if res.Err != nil {
		fmt.Fprintln(stderr, "chase:", res.Err)
		return 2
	}
	if code := emitChase(stdout, stderr, format, quiet, res.Instance, res.Stats, res.Terminated, res.Source); code != 0 {
		return code
	}
	if stats {
		lines := append(statsLines(engineLabel, res.Stats, res.Terminated),
			[2]string{"worker", res.Worker},
			[2]string{"cold-pulls", fmt.Sprint(coord.ColdPulls())})
		cli.StatsBlock(stderr, "chase", lines, nil)
	}
	if !res.Terminated {
		return 1
	}
	return 0
}
