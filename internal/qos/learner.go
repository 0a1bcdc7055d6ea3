package qos

import (
	"repro/internal/chase"
	"repro/internal/compile"
)

// BoundSink is the write side of the learned-bound artifact store;
// *compile.Cache implements it.
type BoundSink interface {
	StoreBound(fp compile.Fingerprint, v chase.Variant, b compile.LearnedBound)
}

// Recorder is a chase.Observer that stores the run's observed round and
// atom counts as the (fingerprint, variant) learned bound when the run
// ends. A terminated reference run records Observed=true — its Rounds
// includes the final fixpoint round, so serving under MaxRounds=Rounds
// reproduces termination on the reference database. A budget-truncated
// run records the prefix it reached with Observed=false (the useful
// shape for the paper's non-terminating families, where any bound is
// necessarily a prefix). Relearning overwrites: the freshest reference
// run wins.
type Recorder struct {
	sink    BoundSink
	fp      compile.Fingerprint
	variant chase.Variant
}

// NewRecorder returns a Recorder storing into sink under (fp, v).
func NewRecorder(sink BoundSink, fp compile.Fingerprint, v chase.Variant) *Recorder {
	return &Recorder{sink: sink, fp: fp, variant: v}
}

// ObserveRound implements chase.Observer; only the run's end matters.
func (r *Recorder) ObserveRound(chase.Stats) {}

// ObserveDone stores the learned bound.
func (r *Recorder) ObserveDone(st chase.Stats, terminated bool) {
	r.sink.StoreBound(r.fp, r.variant, compile.LearnedBound{
		Rounds:   st.Rounds,
		Atoms:    st.Atoms,
		Observed: terminated,
	})
}

// Attach composes the recorder onto an options value's observer chain.
func (r *Recorder) Attach(opts *chase.Options) {
	if opts.Observer != nil {
		opts.Observer = chase.MultiObserver(opts.Observer, r)
	} else {
		opts.Observer = r
	}
}
