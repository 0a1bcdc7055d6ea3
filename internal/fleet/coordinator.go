package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/tgds"
	"repro/internal/wire"
)

var (
	// ErrTransport reports a worker connection failure (dial, torn
	// stream, protocol violation) after its retries. It
	// arrives wrapped in a *service.Error of KindUnavailable, so fleet
	// consumers dispatch on the same taxonomy as in-process ones.
	ErrTransport = errors.New("fleet: worker transport failure")
	// ErrCoordinatorClosed reports a Submit after Close.
	ErrCoordinatorClosed = errors.New("fleet: coordinator is closed")
)

// OntologySource resolves a fingerprint to its clauses for the
// cold-pull handshake. *service.Service satisfies it (its Ontology
// method serves the coordinator-side registry, as in cmd/chase -fleet).
type OntologySource interface {
	Ontology(fp compile.Fingerprint) (*tgds.Set, error)
}

// BoundSource is the optional second face of an ontology source: learned
// termination bounds for the fingerprint, shipped to cold workers
// alongside the ontology pull so bounded-mode jobs serve fleet-wide
// without re-profiling on every worker. *service.Service satisfies it
// (its Bounds method exports the compile cache's pinned bounds); a
// source without it simply ships no bounds.
type BoundSource interface {
	Bounds(fp compile.Fingerprint) []compile.VariantBound
}

// Config configures a Coordinator.
type Config struct {
	// Workers are the chased worker addresses; at least one is required.
	Workers []string
	// Network is the socket family of every worker address: "tcp"
	// (default) or "unix".
	Network string
	// Source resolves fingerprints for the cold-pull handshake. Without
	// one, a cold worker's unknown-ontology failure is terminal.
	Source OntologySource
}

const (
	// dialAttempts bounds connection attempts per dial, and exchange
	// replays per job: freshly started workers get retried, dead ones
	// fail typed.
	dialAttempts = 5
	// dialBackoff is the sleep between dial attempts.
	dialBackoff = 50 * time.Millisecond
	// laneBound caps each worker's pending jobs; Submit blocks when the
	// chosen worker's lane is full.
	laneBound = 64
)

// Job is one fleet chase: the at-rest subset of service.ChaseRequest,
// addressed by fingerprint, with the database as one wire snapshot.
type Job struct {
	Name     string
	Tenant   string
	Priority service.Priority

	Fingerprint compile.Fingerprint
	Variant     chase.Variant
	Snapshot    []byte

	MaxAtoms  int
	MaxRounds int
	// QoS is the request's serving policy, resolved on the worker against
	// its bound store (warmed by the cold-pull handshake).
	QoS qos.Policy

	// Progress, when non-nil, observes the worker's round-boundary
	// statistics (latest-wins upstream; called from the worker link's
	// goroutine).
	Progress func(chase.Stats)
}

// Result is one finished fleet job.
type Result struct {
	Name   string
	Worker string
	// Terminated, Stats, and Instance mirror the in-process chase
	// result. Source names the budget that stopped a truncated run
	// (service.Result.BudgetSource across the wire).
	Terminated bool
	Stats      chase.Stats
	Source     qos.Source
	Instance   *logic.Instance
	Err        error
}

// Ticket is one submitted fleet job's handle.
type Ticket struct {
	done chan Result
	once sync.Once
	res  Result
}

// Wait blocks until the job finishes; repeated calls return the same
// result.
func (t *Ticket) Wait() Result {
	t.once.Do(func() { t.res = <-t.done })
	return t.res
}

// task pairs a job with its ticket in a worker lane.
type task struct {
	job Job
	tk  *Ticket
}

// Coordinator fans a job fleet out over N workers. Placement is
// tenant-fair: each tenant round-robins over the workers independently,
// so one tenant's burst lands evenly across the fleet instead of
// convoying behind another tenant's on a single worker. Each worker is
// served by one goroutine over one connection; a connection that dies
// mid-exchange is redialed and the exchange replayed — safe because a
// chase job is a pure function of its (fingerprint, payload, options)
// triple, pinned byte-identical across runs.
type Coordinator struct {
	cfg     Config
	workers []*workerLink

	mu      sync.Mutex
	cursors map[string]int
	closed  bool
	// done is closed by Close; a Submit waiting for lane room gives up
	// on it. sends counts Submits admitted but not yet off to a lane, so
	// Close closes the lanes only once none can send.
	done  chan struct{}
	sends sync.WaitGroup
}

// NewCoordinator connects a coordinator to its worker fleet. Dialing is
// lazy: construction succeeds even while workers are still starting;
// the per-exchange retry loop absorbs the race.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fleet: no worker addresses")
	}
	if cfg.Network == "" {
		cfg.Network = "tcp"
	}
	c := &Coordinator{cfg: cfg, cursors: make(map[string]int), done: make(chan struct{})}
	for _, addr := range cfg.Workers {
		w := &workerLink{
			cfg:   cfg,
			addr:  addr,
			queue: make(chan task, laneBound),
		}
		w.wg.Add(1)
		go w.loop()
		c.workers = append(c.workers, w)
	}
	return c, nil
}

// Submit places a job on a worker lane (blocking while the lane is
// full) and returns its ticket. After Close, or while Close runs and the
// lane is still full, it fails with a KindUnavailable service error
// wrapping ErrCoordinatorClosed.
func (c *Coordinator) Submit(job Job) (*Ticket, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, closedError(job.Name)
	}
	idx := c.cursors[job.Tenant]
	c.cursors[job.Tenant] = (idx + 1) % len(c.workers)
	w := c.workers[idx]
	c.sends.Add(1)
	c.mu.Unlock()
	defer c.sends.Done()
	tk := &Ticket{done: make(chan Result, 1)}
	select {
	case w.queue <- task{job: job, tk: tk}:
		return tk, nil
	case <-c.done:
		return nil, closedError(job.Name)
	}
}

func closedError(name string) error {
	return &service.Error{Kind: service.KindUnavailable, Op: service.OpChase, Name: name, Err: ErrCoordinatorClosed}
}

// Close stops admission, fails the Submits still waiting for lane room,
// lets queued jobs finish, and severs the worker connections. Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.done)
	c.mu.Unlock()
	c.sends.Wait()
	for _, w := range c.workers {
		close(w.queue)
	}
	for _, w := range c.workers {
		w.wg.Wait()
	}
}

// ColdPulls counts completed cold-pull handshakes across the fleet (for
// tests and diagnostics).
func (c *Coordinator) ColdPulls() int {
	n := 0
	for _, w := range c.workers {
		w.mu.Lock()
		n += w.coldPulls
		w.mu.Unlock()
	}
	return n
}

// workerLink drives one worker: a queue, one serving goroutine, one
// lazily-dialed connection.
type workerLink struct {
	cfg   Config
	addr  string
	queue chan task
	wg    sync.WaitGroup

	conn net.Conn
	br   *bufio.Reader

	mu        sync.Mutex
	coldPulls int
}

func (w *workerLink) loop() {
	defer w.wg.Done()
	for t := range w.queue {
		res := w.serve(t.job)
		res.Name = t.job.Name
		res.Worker = w.addr
		t.tk.done <- res
	}
	w.drop()
}

// drop discards the link's connection.
func (w *workerLink) drop() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
		w.br = nil
	}
}

// dial ensures a live connection, retrying dialAttempts times.
func (w *workerLink) dial() error {
	if w.conn != nil {
		return nil
	}
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(dialBackoff)
		}
		conn, err := net.Dial(w.cfg.Network, w.addr)
		if err != nil {
			lastErr = err
			continue
		}
		w.conn = conn
		w.br = bufio.NewReader(conn)
		return nil
	}
	return lastErr
}

// serve runs one job exchange, replaying it on a fresh connection when
// the transport tears, and folding terminal failures into the service
// taxonomy.
func (w *workerLink) serve(job Job) Result {
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if err := w.dial(); err != nil {
			lastErr = err
			break
		}
		res, err := w.exchange(job)
		if err == nil {
			return res
		}
		if !errors.Is(err, ErrTransport) {
			return Result{Err: err}
		}
		// Transport tear: drop the connection and replay. The job never
		// ran to a delivered result, and a possible server-side duplicate
		// run is harmless — the chase is a pure function of the job.
		lastErr = err
		w.drop()
	}
	return Result{Err: &service.Error{
		Kind: service.KindUnavailable, Op: service.OpChase, Name: job.Name,
		Err: fmt.Errorf("%w: worker %s: %v", ErrTransport, w.addr, lastErr),
	}}
}

// exchange plays one Submit (with at most one cold-pull Register) on
// the live connection. Transport-level failures are reported wrapping
// ErrTransport so serve can replay; remote typed errors are terminal.
func (w *workerLink) exchange(job Job) (Result, error) {
	pulled := false
	for {
		if err := w.send(kindSubmit, encodeSubmit(submitMsg{Job: job, WantProgress: job.Progress != nil})); err != nil {
			return Result{}, err
		}
		res, retry, err := w.answer(job, &pulled)
		if err != nil {
			return Result{}, err
		}
		if retry {
			continue
		}
		return res, nil
	}
}

// answer consumes frames until the terminal answer for one Submit.
// retry is true when a cold-pull handshake completed and the Submit
// should be replayed.
func (w *workerLink) answer(job Job, pulled *bool) (res Result, retry bool, err error) {
	for {
		kind, body, err := readFrame(w.br)
		if err != nil {
			return Result{}, false, fmt.Errorf("%w: %v", ErrTransport, err)
		}
		switch kind {
		case kindProgress:
			st, err := decodeProgress(body)
			if err != nil {
				return Result{}, false, fmt.Errorf("%w: %v", ErrTransport, err)
			}
			if job.Progress != nil {
				job.Progress(st)
			}
		case kindResult:
			m, err := decodeResult(body)
			if err != nil {
				return Result{}, false, fmt.Errorf("%w: %v", ErrTransport, err)
			}
			inst, err := wire.DecodeSnapshot(m.Snapshot)
			if err != nil {
				return Result{}, false, fmt.Errorf("%w: result snapshot: %v", ErrTransport, err)
			}
			return Result{
				Terminated: m.Terminated,
				Stats:      m.Stats,
				Source:     m.Source,
				Instance:   inst,
			}, false, nil
		case kindError:
			m, err := decodeError(body)
			if err != nil {
				return Result{}, false, fmt.Errorf("%w: %v", ErrTransport, err)
			}
			remote := remoteError(job.Name, w.addr, m)
			if errors.Is(remote, service.ErrUnknownOntology) && !*pulled && w.cfg.Source != nil {
				if err := w.coldPull(job.Fingerprint); err != nil {
					return Result{}, false, err
				}
				*pulled = true
				return Result{}, true, nil
			}
			return Result{Err: remote}, false, nil
		default:
			return Result{}, false, fmt.Errorf("%w: unexpected answer kind %q", ErrTransport, kind)
		}
	}
}

// coldPull warms the worker: fetch Σ from the source, ship it as dlgp
// text — with the source's learned termination bounds piggybacked when
// it has any — and verify the worker's ack reproduces the fingerprint
// (the canonical fingerprint is process-stable, so a mismatch is
// corruption, not drift).
func (w *workerLink) coldPull(fp compile.Fingerprint) error {
	sigma, err := w.cfg.Source.Ontology(fp)
	if err != nil {
		return err
	}
	var b strings.Builder
	if err := parser.FormatRules(&b, sigma); err != nil {
		return err
	}
	var bounds []byte
	if bs, ok := w.cfg.Source.(BoundSource); ok {
		bounds = qos.EncodeBounds(bs.Bounds(fp))
	}
	if err := w.send(kindRegister, encodeRegister(registerMsg{Rules: b.String(), Bounds: bounds})); err != nil {
		return err
	}
	kind, body, err := readFrame(w.br)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTransport, err)
	}
	switch kind {
	case kindRegistered:
		ack, err := decodeRegistered(body)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrTransport, err)
		}
		if ack.Fingerprint != fp {
			return fmt.Errorf("%w: worker %s registered fingerprint %s, want %s", ErrTransport, w.addr, ack.Fingerprint, fp)
		}
	case kindError:
		m, err := decodeError(body)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrTransport, err)
		}
		return remoteError("register", w.addr, m)
	default:
		return fmt.Errorf("%w: unexpected register answer kind %q", ErrTransport, kind)
	}
	w.mu.Lock()
	w.coldPulls++
	w.mu.Unlock()
	return nil
}

// send writes one frame, folding write failures into ErrTransport.
func (w *workerLink) send(kind byte, body []byte) error {
	if err := writeFrame(w.conn, kind, body); err != nil {
		return fmt.Errorf("%w: %v", ErrTransport, err)
	}
	return nil
}

// remoteError reconstructs a typed service error from a wire error
// frame: the taxonomy kind round-trips through its name, and the
// sentinels re-wrap so errors.Is works across the process boundary
// exactly as in-process — the unknown-ontology code by its kind, the
// missing-learned-bound rejection (a bad-request, so no kind of its
// own) by its sentinel text in the message.
func remoteError(name, addr string, m errorMsg) error {
	kind, _ := service.ParseErrorKind(m.Code)
	cause := fmt.Errorf("worker %s: %s", addr, m.Message)
	switch {
	case kind == service.KindUnknownOntology:
		cause = fmt.Errorf("%w: worker %s: %s", service.ErrUnknownOntology, addr, m.Message)
	case kind == service.KindBadRequest && strings.Contains(m.Message, qos.ErrNoLearnedBound.Error()):
		cause = fmt.Errorf("%w: worker %s: %s", qos.ErrNoLearnedBound, addr, m.Message)
	}
	return &service.Error{Kind: kind, Op: service.OpChase, Name: name, Err: cause}
}
