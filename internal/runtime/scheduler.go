package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chase"
	"repro/internal/telemetry"
)

// ErrSchedulerClosed is returned by Submit once Close has been called.
// Callers across the service boundary receive it wrapped; test with
// errors.Is, never ==.
var ErrSchedulerClosed = errors.New("runtime: scheduler is closed")

// Priority selects a job's admission lane. The scheduler dequeues
// strictly by lane — every queued high-priority job before any normal
// one, every normal before any low — and fairly (round-robin by tenant)
// within a lane. The zero value is PriorityNormal, so callers that never
// think about lanes land in the default one.
type Priority int

const (
	// PriorityNormal is the default lane.
	PriorityNormal Priority = 0
	// PriorityHigh jobs are dequeued before all normal and low ones.
	PriorityHigh Priority = 1
	// PriorityLow jobs are dequeued only when no higher lane has work.
	PriorityLow Priority = -1
)

// String returns the conventional lane name.
func (p Priority) String() string {
	switch {
	case p > PriorityNormal:
		return "high"
	case p < PriorityNormal:
		return "low"
	default:
		return "normal"
	}
}

// JobMeta is the admission metadata of one job: which tenant it belongs
// to (fair dequeue within a lane is per tenant) and which priority lane
// it enters. The zero value — anonymous tenant, normal priority — makes
// the whole queue one FIFO, the pre-service behavior.
type JobMeta struct {
	Tenant   string
	Priority Priority
}

// Job is one opaque unit of scheduled work: a termination decision, an
// experiment sweep, a trial. Run receives a context that is cancelled
// when the job's wall-clock budget expires, its ticket is cancelled, or
// the context it was submitted under is done; jobs are expected to
// return promptly once it is.
type Job struct {
	Name string
	// Meta is the job's admission metadata: the scheduler dequeues
	// strictly by priority lane and round-robin across tenants within a
	// lane. The zero value (anonymous tenant, normal priority) keeps the
	// whole queue one FIFO, which Gather's submission-order collation of
	// single-submitter fleets relies on.
	Meta JobMeta
	Wall time.Duration // wall-clock budget; 0 = none
	Run  func(ctx context.Context) (any, error)
}

// ChaseSpec is one chase-engine job over (D, Σ): a fresh chase or one
// resumed from a checkpoint. Every engine setting — variant, atom and
// round budgets, compiler, the round observer — lives on Options; the
// scheduler adds only its own wiring (see SubmitChase).
type ChaseSpec struct {
	Name string
	Meta JobMeta
	Wall time.Duration // wall-clock budget, enforced through Options.Interrupt; 0 = none
	// Options configures the run. Interrupt is always replaced by the
	// job's context; Scratch, when nil, becomes the worker's pooled one.
	Options chase.Options
	// Run is the engine call: chase.Run for a chase, a checkpoint's
	// Resume for a resume. It receives Options with the scheduler's
	// wiring applied. A budget-truncated run is a result with
	// Terminated == false, never an error; an error (e.g. a resume's
	// ontology mismatch) fails the job.
	Run func(chase.Options) (*chase.Result, error)
	// Resume names the job's terminal trace span "resume" rather than
	// "chase".
	Resume bool
}

// JobResult is one job's outcome.
type JobResult struct {
	Name string
	// Index is the ticket's submission sequence number: unique per
	// scheduler and monotone in the order concurrent Submit calls entered
	// the scheduler — which is the submission order itself whenever one
	// goroutine submits the fleet, as Gather's callers do. It is not an
	// execution order (two racing Submits may be claimed by workers in
	// either order), and a blocked Submit that fails on cancellation or
	// Close leaves a gap in the sequence.
	Index    int
	Value    any // an engine job's *chase.Result, an opaque job's own value
	Err      error
	Wall     time.Duration // the job's own wall-clock
	TimedOut bool          // the job's wall budget expired
	// Canceled reports that preemption — the ticket's Cancel or the
	// submission context — stopped the job: it was skipped before
	// starting, or surfaced the cancellation as its error. A job that
	// absorbs the cancellation and still returns a value counts as
	// succeeded; chase jobs report truncation through Result.Terminated,
	// not here.
	Canceled bool
}

// DefaultQueueBound is the admission-queue capacity selected when
// SchedulerConfig.QueueBound is not positive.
const DefaultQueueBound = 64

// SchedulerConfig configures a Scheduler. The zero value is usable:
// GOMAXPROCS workers, a DefaultQueueBound-deep queue, telemetry off.
type SchedulerConfig struct {
	// Workers is the number of job workers; <= 0 selects GOMAXPROCS(0).
	Workers int
	// QueueBound caps the admission queue (jobs accepted but not yet
	// started); <= 0 selects DefaultQueueBound. A Submit at the bound
	// waits for a slot, so the queue length never exceeds the bound —
	// that is the backpressure invariant the stress tests pin down.
	QueueBound int
	// Telemetry, when it carries a registry, turns on the scheduler's
	// observability: admission/completion counters by lane and tenant,
	// the queue-depth gauge, the per-lane queue-wait histogram, the
	// chase round/atom/trigger counters (fed through chase.Options.
	// Observer on every SubmitChase job), and — when Telemetry.Trace is
	// set — per-job spans (admit, queue, sampled rounds, compile, chase
	// or resume, run).
	// Nil disables everything at the cost of one nil check per site;
	// results are byte-identical either way.
	Telemetry *telemetry.Telemetry
}

// Scheduler is the streaming multi-job runtime: a long-lived worker set
// behind a bounded admission queue with priority lanes and per-tenant
// fair dequeue (see fairQueue; jobs carry their lane and tenant in
// JobMeta, and the zero meta reproduces plain FIFO). It admits work two
// ways — Submit for opaque jobs, SubmitChase for chase-engine jobs —
// from any goroutine at any time, delivers every job's result over its
// Ticket as the job finishes, supports per-job cancellation, and shuts
// down gracefully via Close. A panicking job is contained: it
// fails its own ticket (the panic value wrapped in the result's Err)
// and the workers keep serving. It is the serving shape of the paper's
// non-uniform setting: chase/decision requests for (Σ, D) pairs arrive
// continuously, not as one pre-assembled batch.
type Scheduler struct {
	workers int
	bound   int
	tel     *schedTelemetry // nil: telemetry off (the benched fast path)

	// The admission queue is a fairQueue (priority lanes, per-tenant
	// round-robin) guarded by qmu, metered by two token channels sized to
	// the bound: slots holds one token per free queue slot (Submit takes
	// one to admit — blocking on an empty slots channel is exactly the
	// backpressure wait), and work holds one token per queued ticket
	// (workers take one, then pop the fair queue for the actual ticket).
	// Token conservation keeps the queue length at or under the bound —
	// the backpressure invariant — while the fair queue, not channel
	// order, decides which ticket a freed worker serves next.
	slots    chan struct{}
	work     chan struct{}
	closing  chan struct{}
	workerWG sync.WaitGroup

	qmu    sync.Mutex
	fair   fairQueue
	queued int

	// scratchReuses counts engine jobs that ran on a worker's
	// already-warmed chase.Scratch (every engine job after a worker's
	// first) — the observable effect of the scratch pool, surfaced for
	// stats.
	scratchReuses atomic.Int64

	mu      sync.Mutex
	idle    sync.Cond // signaled whenever active drops to zero
	seq     int       // next ticket index
	active  int       // admitted but not yet completed tickets
	closed  bool      // Submit rejects; set by Close
	stopped bool      // work closed; set once by the first Close to finish
}

// NewScheduler starts a scheduler: its workers run until Close.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	s := &Scheduler{
		workers: cfg.Workers,
		bound:   cfg.QueueBound,
		tel:     newSchedTelemetry(cfg.Telemetry),
		closing: make(chan struct{}),
	}
	if s.workers <= 0 {
		s.workers = goruntime.GOMAXPROCS(0)
	}
	if s.bound <= 0 {
		s.bound = DefaultQueueBound
	}
	s.idle.L = &s.mu
	s.slots = make(chan struct{}, s.bound)
	for i := 0; i < s.bound; i++ {
		s.slots <- struct{}{}
	}
	s.work = make(chan struct{}, s.bound)
	s.workerWG.Add(s.workers)
	for i := 0; i < s.workers; i++ {
		go s.worker()
	}
	return s
}

// Workers returns the number of job workers.
func (s *Scheduler) Workers() int { return s.workers }

// QueueBound returns the admission-queue capacity.
func (s *Scheduler) QueueBound() int { return s.bound }

// QueueLen returns the number of admitted jobs not yet claimed by a
// worker. It is never greater than QueueBound.
func (s *Scheduler) QueueLen() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.queued
}

// Ticket is one submitted job's handle: its result arrives through Wait
// exactly once, round-level progress events of chase jobs arrive on
// Progress, and Cancel preempts the job.
type Ticket struct {
	job      Job        // an engine job's Name, Meta and Wall; Run unset
	spec     *ChaseSpec // engine jobs only
	index    int
	ctx      context.Context
	cancelFn context.CancelFunc
	done     chan JobResult // buffered, one send: delivery never blocks a worker
	progress progressStream

	// enqueued and trace are telemetry state, populated at admission only
	// when the scheduler carries a Telemetry (and, for trace, a sink).
	enqueued time.Time
	trace    *telemetry.JobTrace

	once   sync.Once
	result JobResult
}

// closedProgress is the sentinel stream of jobs that never produce
// progress events: already closed, so both a range loop and a select
// receive see an immediately-exhausted stream.
var closedProgress = func() chan chase.Stats {
	ch := make(chan chase.Stats)
	close(ch)
	return ch
}()

// Progress returns the round-level progress stream of an engine job
// submitted through SubmitChase: the engine's statistics at each round
// boundary, with latest-wins semantics (a slow consumer only ever misses
// intermediate events, never the stream's tail). The channel is closed
// when the job finishes, just before the result is delivered.
//
// Contract for jobs with no progress stream (opaque jobs submitted
// through Submit): Progress returns a shared, already-closed
// sentinel channel — never nil. A consumer that selects on Progress()
// therefore observes an immediately-exhausted stream instead of the
// forever-blocked select a nil channel would silently produce (the trap
// earlier revisions documented their way around). Receivers must keep
// honoring the ok flag: a receive from the sentinel yields (zero Stats,
// false) right away.
func (t *Ticket) Progress() <-chan chase.Stats {
	if t.progress == nil {
		return closedProgress
	}
	return t.progress
}

// Trace returns the job's trace handle — nil unless the scheduler was
// configured with a Telemetry carrying a TraceSink. The handle is
// nil-safe, so callers may record result-egress spans (the service
// layer's encode span) unconditionally.
func (t *Ticket) Trace() *telemetry.JobTrace { return t.trace }

// Cancel preempts the job: if it has not started it is skipped and
// reported as Canceled; if it is running, its context is cancelled and
// chase jobs stop at the next Interrupt poll. The result is still
// delivered. Cancel is idempotent and safe after completion.
func (t *Ticket) Cancel() { t.cancelFn() }

// Wait blocks until the job finishes and returns its result; repeated
// calls return the same result.
func (t *Ticket) Wait() JobResult {
	t.once.Do(func() { t.result = <-t.done })
	return t.result
}

// Submit admits an opaque job. It is safe for concurrent use from any
// goroutine. A full queue makes Submit wait for a slot. After Close,
// Submit returns ErrSchedulerClosed. The job's context derives from ctx
// (in addition to the ticket's own Cancel): cancelling ctx cancels the
// job. A job whose context is already cancelled is still admitted when
// the queue has room (it is skipped by its worker and reported as
// Canceled, so a fleet queued behind a cancellation is classified job by
// job); a Submit parked on a full queue, however, returns ctx.Err() as
// soon as ctx is cancelled instead of waiting for a slot, so a dead
// request never leaks a blocked submitter.
func (s *Scheduler) Submit(ctx context.Context, j Job) (*Ticket, error) {
	return s.submit(ctx, j, nil)
}

// SubmitChase admits a chase-engine job with Submit's admission,
// backpressure and cancellation semantics. The scheduler wires the run
// in one place (engineOptions): Interrupt polls the job's context, so
// the wall budget and cancellation stop the engine mid-round; a nil
// Options.Scratch becomes the worker's pooled scratch; and the ticket's
// latest-wins Progress stream joins Options.Observer, after the
// caller's observer and before the metering observer that telemetry
// adds.
func (s *Scheduler) SubmitChase(ctx context.Context, spec ChaseSpec) (*Ticket, error) {
	return s.submit(ctx, Job{Name: spec.Name, Meta: spec.Meta, Wall: spec.Wall}, &spec)
}

// engineOptions applies the scheduler's wiring to one engine job's
// options; ctx is the job's context and sc the worker's scratch.
func (s *Scheduler) engineOptions(t *Ticket, ctx context.Context, sc *chase.Scratch) chase.Options {
	o := t.spec.Options
	done := ctx.Done()
	o.Interrupt = func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	if o.Scratch == nil {
		o.Scratch = sc
	}
	switch {
	case s.tel != nil:
		obs := &chaseObserver{m: s.tel, trace: t.trace, kind: "chase"}
		if t.spec.Resume {
			obs.kind = "resume"
		}
		o.Observer = chase.MultiObserver(o.Observer, t.progress, obs)
	case o.Observer != nil:
		o.Observer = chase.MultiObserver(o.Observer, t.progress)
	default:
		o.Observer = t.progress
	}
	return o
}

// progressStream is a ticket's Progress channel, and the chase.Observer
// that feeds it: ObserveRound delivers each round's Stats to the
// 1-buffered channel with latest-wins semantics. Single producer (the
// engine goroutine); the consumer may receive concurrently. The
// scheduler closes the channel once the job ends, so ObserveDone adds
// nothing.
type progressStream chan chase.Stats

func (ch progressStream) ObserveRound(st chase.Stats) {
	select {
	case ch <- st:
		return
	default:
	}
	// Full: evict the stale event (unless the consumer just took it) and
	// deliver. With one producer the second send cannot find the channel
	// full again, so the event is never dropped from the tail.
	select {
	case <-ch:
	default:
	}
	select {
	case ch <- st:
	default:
	}
}

func (progressStream) ObserveDone(chase.Stats, bool) {}

// admitted instruments one successful admission: the admission counter,
// the queue-wait start mark, and — when tracing — the ticket's trace
// with its admit event. It runs before enqueue, so the trace handle is
// published to the worker goroutine by the enqueue itself.
func (s *Scheduler) admitted(t *Ticket) {
	if s.tel == nil {
		return
	}
	lane, tenant := t.job.Meta.Priority.String(), tenantLabel(t.job.Meta.Tenant)
	s.tel.admitted.With(lane, tenant).Inc()
	t.enqueued = time.Now()
	if s.tel.trace != nil {
		t.trace = s.tel.trace.Job(t.job.Name, t.index)
		t.trace.Event("admit", "tenant", tenant, "lane", lane)
	}
}

func (s *Scheduler) submit(ctx context.Context, j Job, spec *ChaseSpec) (*Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSchedulerClosed
	}
	tctx, cancel := context.WithCancel(ctx)
	t := &Ticket{
		job:      j,
		spec:     spec,
		index:    s.seq,
		ctx:      tctx,
		cancelFn: cancel,
		done:     make(chan JobResult, 1),
	}
	if spec != nil {
		t.progress = make(progressStream, 1)
	}
	// Prefer admission: the non-blocking slot grab happens under the lock
	// so the closed-check, index assignment, and admission are one atomic
	// step, and a job whose context is already done is still accepted
	// when the queue has room (its worker will skip it and report
	// Canceled). Workers return slots without the lock, so this cannot
	// deadlock.
	select {
	case <-s.slots:
		s.seq++
		s.active++
		s.mu.Unlock()
		s.admitted(t)
		s.enqueue(t)
		return t, nil
	default:
	}
	s.seq++
	s.active++
	s.mu.Unlock()
	// Only a Submit that would actually park waits on the context and the
	// scheduler's closing signal.
	select {
	case <-s.slots:
		// Winning a freshly freed slot races the closing signal: a parked
		// Submit must fail deterministically once Close has begun, so
		// re-check under the lock and hand the slot token back rather
		// than resurrect admission on a closed scheduler.
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			s.slots <- struct{}{}
			s.release()
			cancel()
			return nil, ErrSchedulerClosed
		}
		s.admitted(t)
		s.enqueue(t)
		return t, nil
	case <-ctx.Done():
		s.release()
		cancel()
		return nil, ctx.Err()
	case <-s.closing:
		s.release()
		cancel()
		return nil, ErrSchedulerClosed
	}
}

// enqueue publishes an admitted ticket: into the fair queue, then one
// work token. The caller has already taken a slot token, so the queue
// never exceeds the bound and the work send never blocks.
func (s *Scheduler) enqueue(t *Ticket) {
	s.qmu.Lock()
	s.fair.push(t)
	s.queued++
	s.qmu.Unlock()
	if s.tel != nil {
		s.tel.queueDepth.Add(1)
	}
	s.work <- struct{}{}
}

// release retires one admitted ticket and wakes a Close waiting for the
// scheduler to go idle.
func (s *Scheduler) release() {
	s.mu.Lock()
	s.active--
	if s.active == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

func (s *Scheduler) worker() {
	defer s.workerWG.Done()
	// Each worker owns one chase scratch for its whole life: consecutive
	// chase jobs on this goroutine reset its buffers instead of
	// reallocating them (Options.Scratch guarantees byte-identical
	// results), so a warm scheduler's steady-state allocation rate is
	// dominated by the atoms the jobs actually derive.
	sc := chase.NewScratch()
	for range s.work {
		s.qmu.Lock()
		t := s.fair.pop()
		s.queued--
		s.qmu.Unlock()
		// The ticket has left the queue: return its slot so a parked
		// Submit can admit. Token conservation (slots held + queued ==
		// bound) means this send never blocks.
		s.slots <- struct{}{}
		if s.tel != nil {
			s.tel.queueDepth.Add(-1)
			wait := time.Since(t.enqueued)
			s.tel.waitHist(t.job.Meta.Priority).Observe(wait.Seconds())
			t.trace.Span("queue", wait, "lane", t.job.Meta.Priority.String())
		}
		s.run(t, sc)
	}
}

// ScratchReuses returns how many engine jobs so far ran on a worker's
// already-warmed scratch — 0 until some worker serves its second engine
// job.
func (s *Scheduler) ScratchReuses() int64 { return s.scratchReuses.Load() }

// run executes one ticket and delivers its result. TimedOut means the
// job's own wall budget expired; preemption through the ticket's context
// (Cancel or a parent context's cancellation/deadline) is Canceled; a
// job that absorbs the preemption and still returns a value counts as
// succeeded.
func (s *Scheduler) run(t *Ticket, sc *chase.Scratch) {
	defer s.release()
	defer t.cancelFn()
	r := JobResult{Name: t.job.Name, Index: t.index}
	if err := t.ctx.Err(); err != nil {
		r.Err = err
		r.Canceled = true
	} else {
		jctx := t.ctx
		cancel := func() {}
		if t.job.Wall > 0 {
			jctx, cancel = context.WithTimeout(t.ctx, t.job.Wall)
		}
		if t.spec != nil && sc.Runs() > 0 {
			s.scratchReuses.Add(1)
		}
		t0 := time.Now()
		r.Value, r.Err = s.invoke(t, jctx, sc)
		r.Wall = time.Since(t0)
		r.TimedOut = t.job.Wall > 0 && jctx.Err() == context.DeadlineExceeded && t.ctx.Err() == nil
		r.Canceled = r.Err != nil && t.ctx.Err() != nil && errors.Is(r.Err, t.ctx.Err())
		cancel()
	}
	if s.tel != nil {
		outcome := outcomeOf(r)
		s.tel.completed.With(outcome).Inc()
		t.trace.Span("run", r.Wall, "outcome", outcome)
	}
	if t.progress != nil {
		close(t.progress)
	}
	t.done <- r
}

// invoke runs one job, containing a panic as the job's error: in a
// long-lived serving scheduler one panicking tenant must fail its own
// ticket, not unwind a worker goroutine and kill every other tenant's
// process.
func (s *Scheduler) invoke(t *Ticket, ctx context.Context, sc *chase.Scratch) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			cause, ok := p.(error)
			if !ok {
				cause = fmt.Errorf("%v", p)
			}
			// Wrapping keeps a typed panic (chase.Run's null id
			// exhaustion) classifiable.
			v, err = nil, fmt.Errorf("runtime: job %s panicked: %w", t.job.Name, cause)
		}
	}()
	if t.spec == nil {
		return t.job.Run(ctx)
	}
	res, err := t.spec.Run(s.engineOptions(t, ctx, sc))
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Close shuts the scheduler down gracefully: admission stops (concurrent
// and subsequent Submits fail with ErrSchedulerClosed, and Submits parked
// on a full queue are woken to fail the same way — a parked Submit that
// wins a freshly freed slot against the shutdown re-checks the closed
// flag and hands the slot back, so admission after Close never happens),
// every admitted job still runs to completion with its result delivered,
// and the workers exit. Close is idempotent and safe to call
// concurrently; it returns once the scheduler is fully stopped.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closing)
	}
	for s.active > 0 {
		s.idle.Wait()
	}
	stop := !s.stopped
	s.stopped = true
	s.mu.Unlock()
	if stop {
		close(s.work)
	}
	s.workerWG.Wait()
}

// Gather waits for every ticket and returns the results collated in the
// given (submission) order. It is the bridge from the streaming scheduler
// back to batch semantics: experiment fleets use it so their aggregates
// stay submission-ordered, identical for any worker count. Callers that want completion-order events
// attach their own per-ticket watchers at submission time (as the
// XP-RESTRICTED sweep does), which observes finishes even while the
// submitter is still parked on the queue bound.
func Gather(tickets []*Ticket) []JobResult {
	out := make([]JobResult, len(tickets))
	for i, t := range tickets {
		out[i] = t.Wait()
	}
	return out
}
