package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/families"
	"repro/internal/fleet"
	"repro/internal/logic"
	"repro/internal/service"
	"repro/internal/tgds"
	"repro/internal/wire"
)

// fleetPool is how many distinct University(50) databases the fleet
// workload draws its requests from, in order. Generating one costs about
// a fifth of a request, so they are made before the set-up; a run longer
// than the pool reuses them in the same order, which changes nothing the
// path does (no layer caches answers).
const fleetPool = 1024

// fleetWorkload is fleet-university: nproc callers, each with its own
// coordinator and one unix-socket link, ship a seeded University(50)
// database as a wire snapshot to an in-process fleet.Server and get the
// result snapshot back. It is the only workload that crosses the fleet
// hop; its chase is shallow and data-heavy (7 rounds).
type fleetWorkload struct {
	seed    int64
	clients int
	sigma   *tgds.Set
	pool    [][]byte
	warm    [][]byte
	tiny    []byte // the cold-pull job's database
	starts  atomic.Int64
}

func newFleetWorkload(seed int64, clients int) *fleetWorkload {
	w := &fleetWorkload{seed: seed, clients: clients, sigma: families.University(1, 0).Sigma}
	w.pool = universitySnapshots(seed, streamInput, fleetPool, clients)
	w.warm = universitySnapshots(seed, streamWarm, clients*warmups, clients)
	w.tiny = wire.EncodeSnapshot(families.University(1, int64(mix(seed, streamWarm, 1<<20)>>1)).Database)
	return w
}

func universitySnapshots(seed int64, stream uint64, n, workers int) [][]byte {
	out := make([][]byte, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	parallel(idx, workers, func(i int) error {
		db := families.University(50, int64(mix(seed, stream, uint64(i))>>1)).Database
		out[i] = wire.EncodeSnapshot(db)
		return nil
	})
	return out
}

func (w *fleetWorkload) snapshot(i int) []byte { return w.pool[i%len(w.pool)] }

type fleetStack struct {
	w        *fleetWorkload
	svc      *service.Service // the worker's service, behind the fleet server
	cache    *compile.Cache
	srv      *fleet.Server
	served   chan error
	registry *service.Service // the callers' ontology source for cold pulls
	coords   []*fleet.Coordinator
	fp       compile.Fingerprint
}

func (w *fleetWorkload) coldStart() (stack, coldStats, error) {
	var cold coldStats
	cache := compile.NewCache(0)
	s := &fleetStack{
		w:        w,
		cache:    cache,
		svc:      service.New(service.Config{Workers: w.clients, Cache: cache}),
		served:   make(chan error, 1),
		registry: service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)}),
	}
	s.srv = fleet.NewServer(s.svc)
	// An abstract unix socket: nothing is written to the file system.
	addr := fmt.Sprintf("@perfbench-%d-%d", os.Getpid(), w.starts.Add(1))
	lis, err := net.Listen("unix", addr)
	if err != nil {
		s.svc.Close()
		s.registry.Close()
		return nil, cold, err
	}
	go func() { s.served <- s.srv.Serve(lis) }()
	start := time.Now()
	h, err := s.registry.RegisterOntology(w.sigma)
	if err != nil {
		s.close()
		return nil, cold, err
	}
	cache.CompiledChase(w.sigma)
	cold.compile = time.Since(start)
	s.fp = h.Fingerprint
	for range w.clients {
		c, err := fleet.NewCoordinator(fleet.Config{Workers: []string{addr}, Network: "unix", Source: s.registry})
		if err != nil {
			s.close()
			return nil, cold, err
		}
		s.coords = append(s.coords, c)
	}
	// The first job on the cold worker dials and pulls Σ; the same job
	// again on the live link measures what the pull added.
	first, err := s.roundTrip(0, w.tiny)
	if err == nil {
		var again time.Duration
		again, err = s.roundTrip(0, w.tiny)
		cold.coldPull = first - again
	}
	if err == nil {
		err = warm(w.clients, func(c, j int) error {
			_, err := s.roundTrip(c, w.warm[j])
			return err
		})
	}
	if err != nil {
		s.close()
		return nil, cold, err
	}
	return s, cold, nil
}

// roundTrip sends one job from client c and returns its latency.
func (s *fleetStack) roundTrip(c int, snap []byte) (time.Duration, error) {
	start := time.Now()
	_, err := s.answer(c, snap)
	return time.Since(start), err
}

// answer sends one job from client c and returns the decoded result.
func (s *fleetStack) answer(c int, snap []byte) (fleet.Result, error) {
	tk, err := s.coords[c].Submit(fleet.Job{Name: "fleet", Fingerprint: s.fp, Snapshot: snap})
	if err != nil {
		return fleet.Result{}, err
	}
	res := tk.Wait()
	return res, res.Err
}

func (s *fleetStack) close() {
	for _, c := range s.coords {
		c.Close()
	}
	s.srv.Close()
	<-s.served
	s.svc.Close()
	s.registry.Close()
}

func (s *fleetStack) compileCache() *compile.Cache { return s.cache }

func (s *fleetStack) serve(c, i int, tr *tracer) *reply {
	r := &reply{i: i}
	req := tr.start(i, 0, "request")
	start := time.Now()
	sub := tr.start(i, req.id, "fleet.submit")
	tk, err := s.coords[c].Submit(fleet.Job{Name: "fleet", Fingerprint: s.fp, Snapshot: s.w.snapshot(i)})
	sub.end()
	if err != nil {
		r.err = err
		return r
	}
	wt := tr.start(i, req.id, "fleet.wait")
	res := tk.Wait()
	wt.end()
	r.latency = time.Since(start)
	req.end()
	if res.Err != nil {
		r.err = res.Err
		return r
	}
	r.atoms, r.rounds, r.terminated = res.Instance.Len(), res.Stats.Rounds, res.Terminated
	return r
}

// check compares every fleet answer with the in-process answer of a
// separate service to the same snapshot. Requests that share a pool
// database share one in-process run.
func (w *fleetWorkload) check(st stack, replies []*reply) []error {
	s := st.(*fleetStack)
	ref := service.New(service.Config{Workers: w.clients, Cache: compile.NewCache(0)})
	defer ref.Close()
	h, err := ref.RegisterOntology(w.sigma)
	if err != nil {
		return []error{err}
	}
	bySlot := make(map[int][]*reply)
	var slots []int
	for _, r := range replies {
		if r.err != nil {
			continue
		}
		slot := r.i % len(w.pool)
		if bySlot[slot] == nil {
			slots = append(slots, slot)
		}
		bySlot[slot] = append(bySlot[slot], r)
	}
	return parallel(slots, w.clients, func(slot int) error {
		tk, err := ref.SubmitByFingerprint(context.Background(), h.Fingerprint,
			service.Payload{Snapshot: w.pool[slot]}, service.ChaseRequest{Name: "reference"})
		if err != nil {
			return err
		}
		res := tk.Wait()
		if res.Err != nil {
			return res.Err
		}
		for _, r := range bySlot[slot] {
			var served *logic.Instance
			if sampled(w.seed, r.i) {
				again, err := s.answer(0, w.pool[slot])
				if err != nil {
					return fmt.Errorf("request %d sent again: %w", r.i, err)
				}
				served = again.Instance
			}
			if err := r.compareChase(res.Chase, "the in-process answer", served); err != nil {
				return err
			}
			if r.i < countedRequests {
				r.bytes = len(w.pool[slot]) + len(wire.EncodeSnapshot(res.Chase.Instance))
			}
		}
		return nil
	})
}

func (w *fleetWorkload) counts(replies []*reply) []count {
	var bytes int64
	for _, r := range replies[:min(len(replies), countedRequests)] {
		bytes += int64(r.bytes)
	}
	return append(chaseCounts(replies), count{"wire_bytes", bytes})
}

// probe times, on one request and an otherwise idle stack: the fleet
// round trip against the in-process round trip of the same snapshot to
// the worker's own service (their difference is the hop), the wire codec
// on the request and result snapshots, a direct chase.Run, and the logic
// layer on the result.
func (w *fleetWorkload) probe(st stack, _ []*reply, r *reply, tr *tracer) error {
	s := st.(*fleetStack)
	snap := w.snapshot(r.i)
	hop, err := s.roundTrip(0, snap)
	if err != nil {
		return err
	}
	in := &reply{}
	out, err := submitTimed(tr, in, r.i, func() (*service.Ticket, error) {
		return s.svc.SubmitByFingerprint(context.Background(), s.fp, service.Payload{Snapshot: snap}, service.ChaseRequest{Name: "probe"})
	}, nil)
	if err != nil {
		return err
	}
	res := out.Chase
	tr.job(in)
	tr.value("fleet.hop_ms", ms(hop-in.latency))

	// The hop decodes both snapshots and encodes both; time them as one
	// request's codec work.
	resultSnap := wire.EncodeSnapshot(res.Instance)
	sp := tr.start(r.i, 0, "wire.decode")
	db, err := wire.DecodeSnapshot(snap)
	if err != nil {
		return err
	}
	if _, err := wire.DecodeSnapshot(resultSnap); err != nil {
		return err
	}
	sp.end()
	sp = tr.start(r.i, 0, "wire.encode")
	wire.EncodeSnapshot(db)
	wire.EncodeSnapshot(res.Instance)
	sp.end()
	tr.value("wire.bytes_per_req", float64(len(snap)+len(resultSnap)))

	direct := probeChase(tr, r.i, func() *chase.Result {
		return chase.Run(db, w.sigma, chase.Options{Compile: s.cache})
	})
	probeLogic(tr, r.i, direct.Instance)
	return nil
}
