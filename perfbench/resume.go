package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/chase"
	"repro/internal/checkpoint"
	"repro/internal/compile"
	"repro/internal/families"
	"repro/internal/logic"
	"repro/internal/service"
	"repro/internal/tgds"
)

// The resume workload's shape. Request i belongs to tenant i mod tenants
// as that tenant's request i / tenants, so each tenant's chain is the same
// whichever client sends it. A chain restarts from its tenant's base every
// chainLen requests, which keeps the cost of a request stationary.
const (
	tenants       = 16
	chainLen      = 4
	universityBig = 100
	newStudents   = 4
)

// resumeWorkload is resume-delta: every request resumes one tenant's
// latest checkpoint artifact over a University(100) materialization with
// a small seeded enrolment delta (SubmitDelta with Chain) and encodes the
// next artifact, so checkpoint decode, encode and Instance.Clone do most
// of the work.
type resumeWorkload struct {
	seed     int64
	clients  int
	sigma    *tgds.Set
	bases    []*logic.Instance
	refCache *compile.Cache
}

func newResumeWorkload(seed int64, clients int) *resumeWorkload {
	w := &resumeWorkload{seed: seed, clients: clients, sigma: families.University(1, 0).Sigma, refCache: compile.NewCache(0)}
	w.ensureBases()
	return w
}

// ensureBases generates the tenants' base databases if they were
// released. Callers hold the workload alone.
func (w *resumeWorkload) ensureBases() {
	if w.bases != nil {
		return
	}
	for t := range tenants {
		w.bases = append(w.bases, families.University(universityBig, int64(mix(w.seed, streamTenant, uint64(t))>>1)).Database)
	}
}

// releaseInputs drops the base databases, which only cold starts, checks
// and probes read.
func (w *resumeWorkload) releaseInputs() { w.bases = nil }

// delta is the enrolment delta of a tenant's request k (k < 0 for
// warm-up requests): a few new students with one to three enrolments in
// existing courses, and one existing student enrolling once more.
func (w *resumeWorkload) delta(t, k int) []*logic.Atom {
	stream, idx := uint64(streamDelta), uint64(t)<<32|uint64(k)
	if k < 0 {
		stream, idx = streamWarm, uint64(t)<<32|uint64(-k)
	}
	rng := rngFor(w.seed, stream, idx)
	courses, students := 3*universityBig, 8*universityBig
	course := func() logic.Constant { return logic.Constant(fmt.Sprintf("c%d", rng.Intn(courses))) }
	var out []*logic.Atom
	for j := range newStudents {
		s := logic.Constant(fmt.Sprintf("n%x_%d", mix(w.seed, stream, idx), j))
		for range 1 + rng.Intn(3) {
			out = append(out, logic.MakeAtom("enrolled", s, course()))
		}
	}
	old := logic.Constant(fmt.Sprintf("s%d", rng.Intn(students)))
	return append(out, logic.MakeAtom("enrolled", old, course()))
}

// chain is one tenant's checkpoint chain in a stack.
type chain struct {
	mu     sync.Mutex
	cond   *sync.Cond
	done   int // requests of this tenant finished so far
	base   []byte
	latest []byte
}

type resumeStack struct {
	w      *resumeWorkload
	svc    *service.Service
	cache  *compile.Cache
	chains []*chain
}

func (w *resumeWorkload) coldStart() (stack, coldStats, error) {
	var cold coldStats
	w.ensureBases()
	cache := compile.NewCache(0)
	s := &resumeStack{w: w, cache: cache, svc: service.New(service.Config{Workers: w.clients, Cache: cache})}
	start := time.Now()
	h, err := s.svc.RegisterOntology(w.sigma)
	if err != nil {
		s.close()
		return nil, cold, err
	}
	cache.CompiledChase(w.sigma)
	cold.compile = time.Since(start)
	tks := make([]*service.Ticket, tenants)
	for t := range tenants {
		tks[t], err = s.svc.SubmitChase(context.Background(), service.ChaseRequest{
			Name:       "base",
			Meta:       service.RequestMeta{Tenant: tenantName(t)},
			Ontology:   service.ByFingerprint(h.Fingerprint),
			Database:   service.Payload{Instance: w.bases[t]},
			Checkpoint: true,
		})
		if err != nil {
			s.close()
			return nil, cold, err
		}
	}
	for t, tk := range tks {
		art, err := tk.EncodeCheckpoint()
		if err != nil {
			s.close()
			return nil, cold, fmt.Errorf("tenant %d base: %w", t, err)
		}
		c := &chain{base: art, latest: art}
		c.cond = sync.NewCond(&c.mu)
		s.chains = append(s.chains, c)
	}
	// Warm-up resumes bases with deltas of their own and chains nothing.
	err = warm(w.clients, func(_, j int) error {
		t := j % tenants
		_, _, err := s.submit(t, s.chains[t].base, w.delta(t, -1-j), &reply{}, nil, j)
		return err
	})
	if err != nil {
		s.close()
		return nil, cold, err
	}
	return s, cold, nil
}

func tenantName(t int) string { return fmt.Sprintf("tenant-%d", t) }

func (s *resumeStack) close()                       { s.svc.Close() }
func (s *resumeStack) compileCache() *compile.Cache { return s.cache }

// submit resumes art with delta and encodes the next artifact, timing
// the Submit, the wait and the encode into r.
func (s *resumeStack) submit(t int, art []byte, delta []*logic.Atom, r *reply, tr *tracer, i int) (*chase.Result, []byte, error) {
	var next []byte
	res, err := submitTimed(tr, r, i, func() (*service.Ticket, error) {
		return s.svc.SubmitDelta(context.Background(), service.DeltaRequest{
			Name:       "resume",
			Meta:       service.RequestMeta{Tenant: tenantName(t)},
			Checkpoint: art,
			Delta:      delta,
			Chain:      true,
		})
	}, func(tk *service.Ticket, parent int64) error {
		enc := tr.start(i, parent, "service.encode_checkpoint")
		defer enc.end()
		var err error
		next, err = tk.EncodeCheckpoint()
		return err
	})
	return res.Chase, next, err
}

func (s *resumeStack) serve(_, i int, tr *tracer) *reply {
	t, k := i%tenants, i/tenants
	c := s.chains[t]
	c.mu.Lock()
	for c.done < k {
		c.cond.Wait()
	}
	art := c.latest
	c.mu.Unlock()
	if k%chainLen == 0 {
		art = c.base
	}
	r := &reply{i: i}
	res, next, err := s.submit(t, art, s.w.delta(t, k), r, tr, i)
	c.mu.Lock()
	c.done, c.latest = k+1, next
	c.cond.Broadcast()
	c.mu.Unlock()
	if err != nil {
		r.err = err
		return r
	}
	r.setChase(res)
	r.bytes = len(next)
	// The check decodes the sampled requests' artifacts; the traced
	// mode's probes resume from the artifacts of the first requests.
	if i < probeRequests || sampled(s.w.seed, i) {
		r.artifact = next
	}
	tr.job(r)
	return r
}

// check replays every tenant's chain in-process from a direct chase of
// its base: chase.Resume over each delta must reproduce the atom and
// round counts of every served request. On sampled requests the artifact
// the service encoded must decode to the in-process chain's answer (equal
// canonical keys: wire and checkpoint keep null ids), and the chain must
// equal a full re-chase of base plus deltas under canonical null names.
func (w *resumeWorkload) check(_ stack, replies []*reply) []error {
	w.ensureBases()
	// replies is in request order, so each tenant's list is in chain order.
	byTenant := make([][]*reply, tenants)
	for _, r := range replies {
		byTenant[r.i%tenants] = append(byTenant[r.i%tenants], r)
	}
	ts := make([]int, tenants)
	for t := range ts {
		ts[t] = t
	}
	return parallel(ts, w.clients, func(t int) error {
		base := chase.Run(w.bases[t], w.sigma, chase.Options{Checkpoint: true, Compile: w.refCache})
		baseNames := base.NullNames(nil)
		var (
			prev   *chase.Result
			names  chase.NullNames
			deltas []*logic.Atom
		)
		for _, r := range byTenant[t] {
			k := r.i / tenants
			if k%chainLen == 0 {
				prev, names, deltas = base, baseNames, nil
			}
			d := w.delta(t, k)
			deltas = append(deltas, d...)
			step, err := chase.Resume(prev.Instance, d, w.sigma, prev.Resume, chase.Options{Checkpoint: true, Compile: w.refCache})
			if err != nil {
				return fmt.Errorf("request %d: reference resume: %w", r.i, err)
			}
			names = step.NullNames(names)
			prev = step
			if r.err != nil {
				continue
			}
			if !sampled(w.seed, r.i) {
				if err := r.compareChase(step, "the in-process chain", nil); err != nil {
					return err
				}
				continue
			}
			cp, err := checkpoint.Decode(r.artifact)
			if err != nil {
				return fmt.Errorf("request %d: served artifact: %w", r.i, err)
			}
			if err := r.compareChase(step, "the in-process chain", cp.Instance); err != nil {
				return err
			}
			db := w.bases[t].Clone()
			db.AddAll(deltas)
			full := chase.Run(db, w.sigma, chase.Options{Compile: w.refCache})
			if chase.CanonicalForm(step.Instance, names) != chase.CanonicalForm(full.Instance, full.NullNames(nil)) {
				return fmt.Errorf("request %d: resumed chain differs from a full re-chase of base plus deltas", r.i)
			}
		}
		return nil
	})
}

func (w *resumeWorkload) counts(replies []*reply) []count {
	var bytes int64
	for _, r := range replies[:min(len(replies), countedRequests)] {
		bytes += int64(r.bytes)
	}
	return append(chaseCounts(replies), count{"artifact_bytes", bytes})
}

// probe times the checkpoint layer's public functions on one request's
// input artifact (decode, resume, capture and encode), chase.Resume on
// the decoded state, a full re-chase of base plus the chain's deltas, and
// the logic layer on the answer.
func (w *resumeWorkload) probe(st stack, replies []*reply, r *reply, tr *tracer) error {
	w.ensureBases()
	s := st.(*resumeStack)
	t, k := r.i%tenants, r.i/tenants
	art := s.chains[t].base
	if k%chainLen != 0 {
		art = replies[r.i-tenants].artifact
	}
	if art == nil {
		return fmt.Errorf("no input artifact kept for request %d", r.i)
	}
	tr.value("checkpoint.artifact_kb", float64(len(art))/1024)
	delta := w.delta(t, k)

	sp := tr.start(r.i, 0, "checkpoint.decode")
	cp, err := checkpoint.Decode(art)
	sp.end()
	if err != nil {
		return err
	}
	opts := chase.Options{Variant: cp.Variant, Checkpoint: true, Compile: s.cache}
	var runErr error
	probeChase(tr, r.i, func() *chase.Result {
		res, err := chase.Resume(cp.Instance, delta, w.sigma, cp.State, opts)
		if err != nil {
			runErr = err
			return &chase.Result{Instance: logic.NewInstance()}
		}
		return res
	})
	if runErr != nil {
		return runErr
	}
	sp = tr.start(r.i, 0, "checkpoint.resume")
	res, err := cp.Resume(w.sigma, delta, opts)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.start(r.i, 0, "checkpoint.encode")
	next, err := checkpoint.Capture(w.sigma, res)
	if err == nil {
		_, err = next.Encode()
	}
	sp.end()
	if err != nil {
		return err
	}

	db := w.bases[t].Clone()
	for j := k - k%chainLen; j <= k; j++ {
		db.AddAll(w.delta(t, j))
	}
	sp = tr.start(r.i, 0, "chase.full_rechase")
	chase.Run(db, w.sigma, chase.Options{Compile: s.cache})
	sp.end()
	probeLogic(tr, r.i, res.Instance)
	return nil
}
