// Package runtime is the concurrency layer of the reproduction. The
// paper's non-uniform setting makes chase termination and size a
// per-database question, and one guarded request is small (a finite
// semi-oblivious chase is linear in |D|), so a serving deployment gets
// its parallelism across requests, not inside one: each chase run is
// sequential, and the Scheduler runs many of them at once.
//
// Scheduler, the streaming multi-job runtime, serves fleets of
// independent chase and decision jobs — one per (D, Σ) request,
// experiment point, or probe — from a long-lived worker set behind a
// bounded admission queue. Work is admitted two ways, safe from any
// goroutine: Submit takes an opaque Job (a decision, an experiment, a
// trial), SubmitChase a chase-engine job (ChaseSpec) whose run — a fresh
// chase or a resume — is configured entirely by its chase.Options, atom
// and round budgets included. The queue bound exerts backpressure (a
// Submit at the bound waits for a slot, or for its context or Close);
// every job carries a wall-clock budget and cancellation; results stream
// back over per-ticket channels as jobs finish, engine tickets
// additionally stream round-level progress (latest-wins); Close shuts
// the scheduler down gracefully, finishing every admitted job. Gather collates a fleet's streamed results
// back into submission order, so batch aggregates are identical for any
// worker count.
package runtime
