package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/families"
	"repro/internal/guarded"
	"repro/internal/logic"
	"repro/internal/service"
	"repro/internal/simplify"
	"repro/internal/tgds"
)

// The decide workload's ontology is families.RandomGuarded under a fixed
// Σ-seed (5 predicates, 6 rules, arity at most 3). Under sigmaSeed the
// set is guarded but not linear, so the service runs the guarded decider,
// and a decision over a 200-fact database takes about as long as a
// serve-guarded chase.
const (
	sigmaSeed   = 8
	decideFacts = 200
	decideConst = 40
)

// decideWorkload is decide-guarded: SubmitDecide (syntactic, which runs
// DecideG) of one guarded Σ against a distinct seeded database per
// request. Linearization and weak acyclicity do the work; no chase, no
// codec.
type decideWorkload struct {
	seed    int64
	clients int
	sigma   *tgds.Set
}

func newDecideWorkload(seed int64, clients int) (*decideWorkload, error) {
	cfg := families.DefaultRandomConfig()
	cfg.Predicates, cfg.Rules, cfg.MaxArity = 5, 6, 3
	sigma := families.RandomGuarded(rand.New(rand.NewSource(sigmaSeed)), cfg)
	if c := sigma.Classify(); c != tgds.ClassG {
		return nil, fmt.Errorf("decide-guarded: Σ-seed %d gives a %v set, want guarded", sigmaSeed, c)
	}
	return &decideWorkload{seed: seed, clients: clients, sigma: sigma}, nil
}

func (w *decideWorkload) input(stream uint64, i int) *logic.Instance {
	return families.RandomDatabase(rngFor(w.seed, stream, uint64(i)), w.sigma, decideFacts, decideConst)
}

type decideStack struct {
	w     *decideWorkload
	svc   *service.Service
	cache *compile.Cache
	fp    compile.Fingerprint
}

func (w *decideWorkload) coldStart() (stack, coldStats, error) {
	var cold coldStats
	cache := compile.NewCache(0)
	s := &decideStack{w: w, cache: cache, svc: service.New(service.Config{Workers: w.clients, Cache: cache})}
	start := time.Now()
	h, err := s.svc.RegisterOntology(w.sigma)
	cold.compile = time.Since(start)
	if err != nil {
		s.close()
		return nil, cold, err
	}
	s.fp = h.Fingerprint
	err = warm(w.clients, func(_, j int) error {
		_, err := s.submit(w.input(streamWarm, j), j, &reply{}, nil)
		return err
	})
	if err != nil {
		s.close()
		return nil, cold, err
	}
	return s, cold, nil
}

func (s *decideStack) close()                       { s.svc.Close() }
func (s *decideStack) compileCache() *compile.Cache { return s.cache }

func (s *decideStack) submit(db *logic.Instance, i int, r *reply, tr *tracer) (*core.Verdict, error) {
	res, err := submitTimed(tr, r, i, func() (*service.Ticket, error) {
		return s.svc.SubmitDecide(context.Background(), service.DecideRequest{
			Name:     "decide",
			Ontology: service.ByFingerprint(s.fp),
			Database: service.Payload{Instance: db},
			Method:   "syntactic",
		})
	}, nil)
	if err == nil && res.Verdict == nil {
		err = fmt.Errorf("decide request %d returned no verdict", i)
	}
	return res.Verdict, err
}

func (s *decideStack) serve(_, i int, tr *tracer) *reply {
	r := &reply{i: i}
	v, err := s.submit(s.w.input(streamInput, i), i, r, tr)
	if err != nil {
		r.err = err
		return r
	}
	r.verdict = v
	tr.job(r)
	return r
}

// check decides every request again with core.DecideG called directly;
// outcome, class, method and certificate must match.
func (w *decideWorkload) check(_ stack, replies []*reply) []error {
	return parallel(replies, w.clients, func(r *reply) error {
		if r.err != nil {
			return nil
		}
		db := w.input(streamInput, r.i)
		want, err := core.DecideG(db, w.sigma)
		if err != nil {
			return fmt.Errorf("request %d: reference DecideG: %w", r.i, err)
		}
		if r.verdict.String() != want.String() {
			return fmt.Errorf("request %d: verdict %v, DecideG says %v", r.i, r.verdict, want)
		}
		if r.i < countedRequests {
			l, err := guarded.NewLinearizer(w.sigma)
			if err != nil {
				return err
			}
			_, lin, err := l.Linearize(db)
			if err != nil {
				return err
			}
			r.linear = len(lin.TGDs)
		}
		return nil
	})
}

func (w *decideWorkload) counts(replies []*reply) []count {
	var lin, infinite int64
	for _, r := range replies[:min(len(replies), countedRequests)] {
		lin += int64(r.linear)
		if r.verdict != nil && r.verdict.Outcome == core.Infinite {
			infinite++
		}
	}
	return []count{{"database_facts", int64(decideFacts * min(len(replies), countedRequests))},
		{"linear_rules", lin}, {"infinite_verdicts", infinite}}
}

// probe splits one decision into the steps DecideG takes, each timed on
// its own: linearization (guarded), simplification, D-weak-acyclicity
// (depgraph), then the whole decision again (core), and the logic layer
// on the database.
func (w *decideWorkload) probe(_ stack, _ []*reply, r *reply, tr *tracer) error {
	db := w.input(streamInput, r.i)
	sp := tr.start(r.i, 0, "guarded.linearize")
	l, err := guarded.NewLinearizer(w.sigma)
	if err != nil {
		return err
	}
	linDB, linSigma, err := l.Linearize(db)
	sp.end()
	if err != nil {
		return err
	}
	tr.value("guarded.linear_rules", float64(len(linSigma.TGDs)))
	sp = tr.start(r.i, 0, "simplify.run")
	gsDB := simplify.Database(linDB)
	gsSigma, err := simplify.Set(linSigma)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.start(r.i, 0, "depgraph.wa")
	depgraph.IsWeaklyAcyclicFor(gsDB, gsSigma)
	sp.end()
	sp = tr.start(r.i, 0, "core.decide")
	_, err = core.DecideG(db, w.sigma)
	sp.end()
	if err != nil {
		return err
	}
	probeLogic(tr, r.i, db)
	return nil
}
