package chase

// Observer is the engine's one round-boundary hook: a passive listener
// invoked at every round boundary — the same barrier at which Interrupt
// is polled — and once at run end. Serving layers use it to meter
// rounds, derived atoms and per-round trace spans, and to stream
// progress, without the engine knowing about telemetry or channels;
// internal/runtime adapts it onto internal/telemetry and onto a
// ticket's latest-wins Progress stream.
//
// Contract: both methods are called inline from the engine goroutine
// (never concurrently), and ObserveRound runs before the next round's
// collection starts, so an observer that blocks stalls the run. Direct
// console diagnostics (chtrm's -stream probe) and tests that gate a
// worker on a round accept that; the streaming scheduler decouples its
// consumers through a latest-wins channel, so a slow consumer throttles
// nothing. An observer must not mutate anything the run depends on.
// Observation never reorders the chase — every byte-identity suite runs
// unchanged with and without an Observer. The nil Observer is the fast
// path: a disabled run pays one nil check per round and nothing else.
type Observer interface {
	// ObserveRound is invoked at every round boundary — after the round's
	// apply phase — with the run's statistics so far (the final round
	// included).
	ObserveRound(Stats)
	// ObserveDone is invoked exactly once, after the final round (or the
	// budget/interrupt stop), with the run's final statistics and whether
	// a fixpoint was reached.
	ObserveDone(Stats, bool)
}

// MultiObserver fans one run's observations out to several observers in
// order. Nil entries are skipped: none live yields nil (the disabled fast
// path) and one live observer is returned as itself, both without
// allocating. Joining two or three costs one allocation.
func MultiObserver(obs ...Observer) Observer {
	var n int
	var last Observer
	for _, o := range obs {
		if o != nil {
			n, last = n+1, o
		}
	}
	switch n {
	case 0:
		return nil
	case 1:
		return last
	}
	m := &multiObserver{}
	m.live = m.inline[:0]
	if n > len(m.inline) {
		m.live = make([]Observer, 0, n)
	}
	for _, o := range obs {
		if o != nil {
			m.live = append(m.live, o)
		}
	}
	return m
}

// multiObserver is MultiObserver's fan-out. Its live list normally points
// into its own inline array, so the fan-out is one heap object.
type multiObserver struct {
	live   []Observer
	inline [3]Observer
}

func (m *multiObserver) ObserveRound(s Stats) {
	for _, o := range m.live {
		o.ObserveRound(s)
	}
}

func (m *multiObserver) ObserveDone(s Stats, terminated bool) {
	for _, o := range m.live {
		o.ObserveDone(s, terminated)
	}
}
