package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/chase"
)

// Config tunes experiment sweeps. Quick mode shrinks parameters so that
// the full registry runs in seconds (used by tests and benchmarks); the
// default mode reproduces the numbers recorded in EXPERIMENTS.md.
type Config struct {
	Quick bool
	// Workers sizes the scheduler that scheduler-backed experiments
	// (currently XP-RESTRICTED, the random-trial sweep) use to run
	// independent sweep points concurrently (0 selects GOMAXPROCS, 1
	// forces sequential); timing-sensitive experiments stay sequential on
	// purpose. Tables are identical for any worker count: workloads are
	// generated sequentially so RNG streams stay fixed, and results are
	// tallied in submission order.
	Workers int
	// Compiler, when non-nil, is the cross-request compilation cache
	// chase-running experiments attach to their runs (the command passes
	// the process-wide internal/compile cache). Caching is a pure
	// performance knob — cached and cold runs are byte-identical — so
	// tables do not depend on it.
	Compiler chase.Compiler
	// Stream, when non-nil, receives per-job completion events (one line
	// per finished trial, in completion order) from scheduler-backed
	// experiments while a sweep runs. The command passes stderr for
	// -stream. Tables never depend on it: results are still tallied in
	// submission order.
	Stream io.Writer
}

// Experiment couples an identifier with a runner.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Run   func(Config) (*Table, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments sorted by identifier.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns the experiment with the given identifier.
func Get(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (try 'all')", id)
}
