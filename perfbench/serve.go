package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/families"
	"repro/internal/logic"
	"repro/internal/service"
	"repro/internal/tgds"
)

var workloadNames = []string{"serve-guarded", "fleet-university", "resume-delta", "decide-guarded"}

func newWorkload(name string, seed int64, clients int) (workload, error) {
	switch name {
	case "serve-guarded":
		return &serveWorkload{seed: seed, clients: clients, sigma: families.GLower(1, 1, 1).Sigma, refCache: compile.NewCache(0)}, nil
	case "fleet-university":
		return newFleetWorkload(seed, clients), nil
	case "resume-delta":
		return newResumeWorkload(seed, clients), nil
	case "decide-guarded":
		return newDecideWorkload(seed, clients)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
}

// warmups is how many requests each client sends while a cold start
// warms the stack: enough for every scheduler worker to have run a job.
const warmups = 2

// warm runs warmups requests per client through serve concurrently.
func warm(clients int, serve func(c, j int) error) error {
	items := make([][2]int, 0, clients*warmups)
	for c := range clients {
		for k := range warmups {
			items = append(items, [2]int{c, c*warmups + k})
		}
	}
	if errs := parallel(items, clients, func(it [2]int) error { return serve(it[0], it[1]) }); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// serveWorkload is serve-guarded: in-process SubmitByFingerprint of
// Theorem 8.4's guarded Σ_{1,1}, each request a one-atom database with
// its own seeded constant, so every chase is deep (35 rounds) and no
// codec runs.
type serveWorkload struct {
	seed     int64
	clients  int
	sigma    *tgds.Set
	refCache *compile.Cache
}

// input is D₁ = {Node(c, c, 0, 1)} with a seeded constant c.
func (w *serveWorkload) input(stream uint64, i int) *logic.Instance {
	c := logic.Constant(fmt.Sprintf("g%016x", mix(w.seed, stream, uint64(i))))
	return logic.NewDatabase(logic.MakeAtom("Node", c, c, logic.Constant("0"), logic.Constant("1")))
}

type serveStack struct {
	w     *serveWorkload
	svc   *service.Service
	cache *compile.Cache
	fp    compile.Fingerprint
}

func (w *serveWorkload) coldStart() (stack, coldStats, error) {
	var cold coldStats
	cache := compile.NewCache(0)
	s := &serveStack{w: w, cache: cache, svc: service.New(service.Config{Workers: w.clients, Cache: cache})}
	start := time.Now()
	h, err := s.svc.RegisterOntology(w.sigma)
	if err != nil {
		s.close()
		return nil, cold, err
	}
	cache.CompiledChase(w.sigma)
	cold.compile = time.Since(start)
	s.fp = h.Fingerprint
	err = warm(w.clients, func(c, j int) error {
		_, err := s.submit(w.input(streamWarm, j), j, &reply{}, nil)
		return err
	})
	if err != nil {
		s.close()
		return nil, cold, err
	}
	return s, cold, nil
}

func (s *serveStack) close()                       { s.svc.Close() }
func (s *serveStack) compileCache() *compile.Cache { return s.cache }

func (s *serveStack) serve(_, i int, tr *tracer) *reply {
	r := &reply{i: i}
	res, err := s.submit(s.w.input(streamInput, i), i, r, tr)
	if err != nil {
		r.err = err
		return r
	}
	r.setChase(res)
	tr.job(r)
	return r
}

// submit sends one chase request and waits for it, timing it into r.
func (s *serveStack) submit(db *logic.Instance, i int, r *reply, tr *tracer) (*chase.Result, error) {
	res, err := submitTimed(tr, r, i, func() (*service.Ticket, error) {
		return s.svc.SubmitByFingerprint(context.Background(), s.fp, service.Payload{Instance: db}, service.ChaseRequest{Name: "serve"})
	}, nil)
	if err == nil && res.Chase == nil {
		err = fmt.Errorf("chase request %d returned no chase result", i)
	}
	return res.Chase, err
}

// submitTimed sends one in-process request and waits for its result. The
// Submit* call is the service.admit span and the wait the runtime.wait
// span. Latency runs from the submit until after, when non-nil, returns:
// resume encodes the next artifact there, under the request span.
func submitTimed(tr *tracer, r *reply, i int, submit func() (*service.Ticket, error),
	after func(tk *service.Ticket, parent int64) error) (service.Result, error) {
	req := tr.start(i, 0, "request")
	start := time.Now()
	adm := tr.start(i, req.id, "service.admit")
	tk, err := submit()
	adm.end()
	if err != nil {
		return service.Result{}, err
	}
	wt := tr.start(i, req.id, "runtime.wait")
	res := tk.Wait()
	r.wait = wt.end()
	r.wall = res.Wall
	if res.Err != nil {
		return res, res.Err
	}
	if after != nil {
		err = after(tk, req.id)
	}
	r.latency = time.Since(start)
	req.end()
	return res, err
}

func (w *serveWorkload) check(st stack, replies []*reply) []error {
	s := st.(*serveStack)
	return parallel(replies, w.clients, func(r *reply) error {
		if r.err != nil {
			return nil
		}
		ref := chase.Run(w.input(streamInput, r.i), w.sigma, chase.Options{Compile: w.refCache})
		var served *logic.Instance
		if sampled(w.seed, r.i) {
			res, err := s.submit(w.input(streamInput, r.i), r.i, &reply{}, nil)
			if err != nil {
				return fmt.Errorf("request %d sent again: %w", r.i, err)
			}
			served = res.Instance
		}
		return r.compareChase(ref, "a direct chase.Run", served)
	})
}

func (w *serveWorkload) counts(replies []*reply) []count { return chaseCounts(replies) }

func (w *serveWorkload) probe(st stack, _ []*reply, r *reply, tr *tracer) error {
	s := st.(*serveStack)
	res := probeChase(tr, r.i, func() *chase.Result {
		return chase.Run(w.input(streamInput, r.i), w.sigma, chase.Options{Compile: s.cache})
	})
	probeLogic(tr, r.i, res.Instance)
	return nil
}

// probeChase times one direct chase call and records its statistics.
func probeChase(tr *tracer, i int, run func() *chase.Result) *chase.Result {
	sp := tr.start(i, 0, "chase.run")
	res := run()
	d := sp.end()
	st := res.Stats
	tr.value("chase.atoms", float64(st.Atoms))
	tr.value("chase.rounds", float64(st.Rounds))
	tr.value("chase.triggers_considered", float64(st.TriggersConsidered))
	tr.value("chase.triggers_fired", float64(st.TriggersFired))
	tr.value("chase.atoms_per_s", float64(st.Atoms-st.InitialAtoms)/d.Seconds())
	return res
}

// probeLogic times rebuilding an answer atom by atom with Instance.Add
// and copying it with Instance.Clone.
func probeLogic(tr *tracer, i int, inst *logic.Instance) {
	sp := tr.start(i, 0, "logic.add")
	fresh := logic.NewInstance()
	for _, a := range inst.Atoms() {
		fresh.Add(a)
	}
	d := sp.end()
	tr.value("logic.add_ns_per_atom", float64(d.Nanoseconds())/float64(max(1, inst.Len())))
	sp = tr.start(i, 0, "logic.clone")
	inst.Clone()
	sp.end()
}
