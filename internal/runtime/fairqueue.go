package runtime

// fairQueue is the scheduler's admission queue: strict priority lanes
// (high before normal before low), round-robin across tenants within a
// lane, FIFO within a tenant. A single tenant submitting at one priority
// — every experiment fleet — therefore sees plain FIFO; a multi-tenant
// service sees per-tenant fairness: one tenant's deep
// backlog delays another tenant's next job by at most one job per
// competing tenant per dequeue (the starvation bound the fairness tests
// pin down). Strict priority means a saturating stream of high-priority
// work does starve lower lanes — deliberate: lanes are for operator
// traffic classes, fairness within a lane is for tenants.
//
// fairQueue is not safe for concurrent use; the Scheduler serializes
// access through its queue mutex.
type fairQueue struct {
	lanes [numLanes]laneQueue
	n     int
}

const numLanes = 3

// laneIndex maps a Priority to its lane: all positive priorities share
// the high lane and all negative ones the low lane, so the type remains
// an open scale while the queue stays three-way.
func laneIndex(p Priority) int {
	switch {
	case p > PriorityNormal:
		return 0
	case p < PriorityNormal:
		return 2
	default:
		return 1
	}
}

// laneQueue is one priority lane: a rotation ring of per-tenant FIFOs.
type laneQueue struct {
	fifos map[string]*tenantFIFO
	ring  []*tenantFIFO // tenants with backlog, in rotation order
	next  int           // rotation cursor into ring
	n     int
}

type tenantFIFO struct {
	tenant string
	items  []*Ticket
	head   int
}

func (q *fairQueue) push(t *Ticket) {
	la := &q.lanes[laneIndex(t.job.Meta.Priority)]
	if la.fifos == nil {
		la.fifos = make(map[string]*tenantFIFO)
	}
	f, ok := la.fifos[t.job.Meta.Tenant]
	if !ok {
		f = &tenantFIFO{tenant: t.job.Meta.Tenant}
		la.fifos[t.job.Meta.Tenant] = f
		// A tenant (re)joining the rotation enters just behind the
		// cursor: it is served only after every tenant already waiting
		// has had its turn.
		la.ring = append(la.ring, nil)
		copy(la.ring[la.next+1:], la.ring[la.next:])
		la.ring[la.next] = f
		la.next++
		if la.next >= len(la.ring) {
			la.next = 0
		}
	}
	f.items = append(f.items, t)
	la.n++
	q.n++
}

// pop removes and returns the next ticket by lane priority and tenant
// rotation. It must only be called on a non-empty queue (the scheduler's
// work tokens guarantee that); popping empty returns nil.
func (q *fairQueue) pop() *Ticket {
	for li := range q.lanes {
		la := &q.lanes[li]
		if la.n == 0 {
			continue
		}
		if la.next >= len(la.ring) {
			la.next = 0
		}
		f := la.ring[la.next]
		t := f.items[f.head]
		f.items[f.head] = nil // release for GC
		f.head++
		if f.head == len(f.items) {
			// Tenant drained: leave the rotation (the cursor now points
			// at the tenant that was next anyway).
			delete(la.fifos, f.tenant)
			la.ring = append(la.ring[:la.next], la.ring[la.next+1:]...)
		} else {
			if f.head > 32 && f.head*2 >= len(f.items) {
				// Compact the consumed prefix so a tenant with a steady
				// backlog does not grow its buffer without bound.
				f.items = append(f.items[:0], f.items[f.head:]...)
				f.head = 0
			}
			la.next++
		}
		if la.next >= len(la.ring) {
			la.next = 0
		}
		la.n--
		q.n--
		return t
	}
	return nil
}

// len returns the number of queued tickets.
func (q *fairQueue) len() int { return q.n }
