package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/logic"
)

// workload is one serving path. Its inputs are a pure function of the
// seed and a request index, so a traced replay and a check see exactly
// the requests the timed phase sent.
type workload interface {
	// coldStart builds and warms a fresh serving stack: everything
	// setup_s times.
	coldStart() (stack, coldStats, error)
	// check compares every reply with a reference answer computed
	// directly through the layer packages, off the timed path, and
	// returns one error per wrong answer. st is the stack that served
	// them, still open, so sampled requests can be sent again for their
	// whole answer: the timed phase keeps no answers, because live answers
	// would add their size to every garbage collection it measures.
	check(st stack, replies []*reply) []error
	// counts sums the exact work counts of requests 0..countedRequests-1.
	counts(replies []*reply) []count
	// probe times each layer's public functions on the inputs of reply r,
	// which the traced replay sent through st.
	probe(st stack, replies []*reply, r *reply, tr *tracer) error
}

// stack is one cold-started serving stack.
type stack interface {
	// serve sends request i from client c and waits for the answer. It
	// is called concurrently, once per client.
	serve(c, i int, tr *tracer) *reply
	// compileCache is the cache the stack's service compiles Σ into.
	compileCache() *compile.Cache
	close()
}

// coldStats are the layer figures a cold start measures on the way.
type coldStats struct {
	compile  time.Duration // RegisterOntology plus the first compile on a fresh cache
	coldPull time.Duration // fleet only: first job on a cold worker minus the same job warm
}

// reply is what the timed path keeps of one answer: enough to check it
// off the timed path.
type reply struct {
	i       int
	err     error
	latency time.Duration // submit until the answer is in hand
	done    time.Duration // completion, since the phase started
	wait    time.Duration // Ticket.Wait
	wall    time.Duration // Result.Wall: the job's own run time

	atoms, rounds int
	terminated    bool
	verdict       *core.Verdict
	artifact      []byte // resume: the next artifact, kept for checked and probed requests
	bytes         int    // wire bytes (fleet) or artifact bytes (resume) of the request
	linear        int    // decide: |lin(Σ)| for the request's database, set by check

	ref chase.Stats // the reference run's statistics, set by check
}

// Seeded inputs. Each (stream, index) pair gets its own generator, so a
// request's input does not depend on which client sent it or when.
const (
	streamInput = iota + 1
	streamWarm
	streamSample
	streamTenant
	streamDelta
)

func mix(seed int64, stream, i uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ (i+1)*0x94d049bb133111eb
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func rngFor(seed int64, stream, i uint64) *rand.Rand {
	return rand.New(&splitmix{mix(seed, stream, i)})
}

// splitmix is a small rand.Source64. Clients build their request's input
// inside the timed phase, and seeding math/rand's own source there would
// cost more than half of building a decide-guarded database.
type splitmix struct{ s uint64 }

func (x *splitmix) Uint64() uint64 {
	x.s += 0x9e3779b97f4a7c15
	return mix(0, 0, x.s)
}

func (x *splitmix) Int63() int64    { return int64(x.Uint64() >> 1) }
func (x *splitmix) Seed(seed int64) { x.s = uint64(seed) }

// Sampling. One request in sampleEvery among the first sampleBelow gets
// its whole answer compared by canonical key; countedRequests fixes the
// requests whose work counts are printed, and probeRequests the requests
// the traced mode probes layer by layer.
const (
	sampleEvery     = 32
	sampleBelow     = 1024
	countedRequests = 32
	probeRequests   = 48
)

func sampled(seed int64, i int) bool {
	return i < sampleBelow && mix(seed, streamSample, uint64(i))%sampleEvery == 0
}

// phase is one closed-loop pass and what the process spent on it.
type phase struct {
	replies []*reply
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	peakRSS int64
	steal   float64
	gcFrac  float64
	gcs     uint32
	sys     time.Duration
}

// deadline admits requests until d has passed since the first admission,
// and at least the counted ones however slow the host is, so that the
// printed work counts always cover the same requests.
func deadline(d time.Duration) func(i int) bool {
	var end time.Time
	return func(i int) bool {
		if i == 0 {
			end = time.Now().Add(d)
		}
		return i < countedRequests || time.Now().Before(end)
	}
}

// drive runs one closed-loop client per slot against st. admit is called
// under a lock with consecutive indices, so the indices served are
// exactly 0..n-1 for the first n that admit accepts.
func drive(st stack, clients int, admit func(i int) bool, tr *tracer) *phase {
	runtime.GC()
	debug.FreeOSMemory()
	before := readCounters()
	rss := startRSSSampler()
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		per     = make([][]*reply, clients)
		wg      sync.WaitGroup
	)
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if stopped || !admit(next) {
			stopped = true
			return -1
		}
		next++
		return next - 1
	}
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := take(); i >= 0; i = take() {
				r := st.serve(c, i, tr)
				r.done = time.Since(start)
				per[c] = append(per[c], r)
			}
		}()
	}
	wg.Wait()
	p := &phase{wall: time.Since(start), peakRSS: rss.stop()}
	after := readCounters()
	p.cpu = after.cpu - before.cpu
	p.sys = after.sys - before.sys
	p.gcs = after.gcs - before.gcs
	p.mallocs = after.mallocs - before.mallocs
	p.bytes = after.bytes - before.bytes
	if total := after.stat.total() - before.stat.total(); total > 0 {
		p.steal = float64(after.stat.steal-before.stat.steal) / float64(total)
	}
	if cpu := after.cpuSec - before.cpuSec; cpu > 0 {
		p.gcFrac = (after.gcSec - before.gcSec) / cpu
	}
	p.replies = make([]*reply, next)
	for _, rs := range per {
		for _, r := range rs {
			p.replies[r.i] = r
		}
	}
	return p
}

// endToEnd computes the end-to-end metrics of a timed phase. Latency
// percentiles are over the requests that succeeded.
func (p *phase) endToEnd(setupSec float64) []metric {
	var lat []float64
	for _, r := range p.replies {
		if r.err == nil {
			lat = append(lat, float64(r.latency)/float64(time.Millisecond))
		}
	}
	n := float64(len(p.replies))
	return []metric{
		{"latency_p50_ms", quantile(lat, 0.50), "ms"},
		{"latency_p90_ms", quantile(lat, 0.90), "ms"},
		{"throughput_rps", float64(len(lat)) / p.wall.Seconds(), "1/s"},
		{"cpu_ms_per_req", float64(p.cpu) / float64(time.Millisecond) / n, "ms"},
		{"allocs_per_req", float64(p.mallocs) / n, "count"},
		{"alloc_kb_per_req", float64(p.bytes) / 1024 / n, "KiB"},
		{"peak_rss_mb", float64(p.peakRSS) / (1 << 20), "MiB"},
		{"setup_s", setupSec, "s"},
	}
}

// printWindows prints the timed phase second by second: answers, p50 and
// p90. A trend across the windows is drift inside the run; a step between
// runs with flat windows is the host.
func (p *phase) printWindows(w io.Writer) {
	lat := make([][]float64, int(p.wall/time.Second))
	for _, r := range p.replies {
		if k := int(r.done / time.Second); k < len(lat) && r.err == nil {
			lat[k] = append(lat[k], ms(r.latency))
		}
	}
	var n, p50, p90 []string
	for _, l := range lat {
		n = append(n, strconv.Itoa(len(l)))
		p50 = append(p50, strconv.FormatFloat(quantile(l, 0.5), 'f', 1, 64))
		p90 = append(p90, strconv.FormatFloat(quantile(l, 0.9), 'f', 1, 64))
	}
	fmt.Fprintf(w, "# per second: answers %s\n# per second: p50_ms %s\n# per second: p90_ms %s\n",
		strings.Join(n, " "), strings.Join(p50, " "), strings.Join(p90, " "))
}

// counters is a snapshot of the process- and host-level counters a phase
// is measured with.
type counters struct {
	cpu, sys       time.Duration
	gcs            uint32
	mallocs, bytes uint64
	stat           cpuStat
	gcSec, cpuSec  float64
}

func readCounters() counters {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		c.sys = time.Duration(ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.bytes, c.gcs = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	c.stat = readCPUStat()
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		c.gcSec, c.cpuSec = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return c
}

// cpuStat is the host's aggregate CPU time from /proc/stat, in ticks.
type cpuStat struct {
	busyIdle, steal uint64
}

func (s cpuStat) total() uint64 { return s.busyIdle + s.steal }

// readCPUStat reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal. Where the file is missing
// the steal share reads 0; it is reported, never used to drop a run.
func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var s cpuStat
	for k, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if k == 7 {
			s.steal = v
		} else {
			s.busyIdle += v
		}
	}
	return s
}

// rssSampler polls the process's resident set size during a phase and
// keeps the largest sample of each second.
type rssSampler struct {
	stopc chan struct{}
	done  chan []float64
}

const rssInterval = 10 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		start := time.Now()
		peaks := []float64{float64(residentBytes())}
		sample := func() {
			k := int(time.Since(start) / time.Second)
			for len(peaks) <= k {
				peaks = append(peaks, 0)
			}
			peaks[k] = max(peaks[k], float64(residentBytes()))
		}
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				sample()
				s.done <- peaks
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak resident bytes: the median of
// the per-second peaks, so that a single second in which a collection
// finished late does not set the figure for the whole phase.
func (s *rssSampler) stop() int64 {
	close(s.stopc)
	return int64(quantile(<-s.done, 0.5))
}

// residentBytes reads the resident set size from /proc/self/statm.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(fields[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// parallel runs f over items with n goroutines and collects its errors.
func parallel[T any](items []T, n int, f func(T) error) []error {
	var (
		mu   sync.Mutex
		errs []error
		next int
		wg   sync.WaitGroup
	)
	for range max(1, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(items) {
					mu.Unlock()
					return
				}
				it := items[next]
				next++
				mu.Unlock()
				if err := f(it); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

// compareChase checks a chase answer against a reference run of the same
// request: atom count, round count and termination on every request, and
// the canonical key when the whole served answer is at hand (sampled
// requests).
func (r *reply) compareChase(ref *chase.Result, what string, served *logic.Instance) error {
	r.ref = ref.Stats
	if !ref.Terminated {
		return fmt.Errorf("request %d: reference %s did not terminate", r.i, what)
	}
	if r.atoms != ref.Instance.Len() || r.rounds != ref.Stats.Rounds || !r.terminated {
		return fmt.Errorf("request %d: %d atoms in %d rounds (terminated %v), %s has %d atoms in %d rounds",
			r.i, r.atoms, r.rounds, r.terminated, what, ref.Instance.Len(), ref.Stats.Rounds)
	}
	if served != nil && served.CanonicalKey() != ref.Instance.CanonicalKey() {
		return fmt.Errorf("request %d: answer differs from %s in its canonical key", r.i, what)
	}
	return nil
}

// setChase records a chase answer's counts.
func (r *reply) setChase(res *chase.Result) {
	r.atoms, r.rounds, r.terminated = res.Instance.Len(), res.Stats.Rounds, res.Terminated
}

// chaseCounts sums the reference chase statistics of the counted requests.
func chaseCounts(replies []*reply) []count {
	var atoms, rounds, considered, fired int64
	for _, r := range replies[:min(len(replies), countedRequests)] {
		atoms += int64(r.ref.Atoms)
		rounds += int64(r.ref.Rounds)
		considered += int64(r.ref.TriggersConsidered)
		fired += int64(r.ref.TriggersFired)
	}
	return []count{
		{"chase_atoms", atoms}, {"chase_rounds", rounds},
		{"triggers_considered", considered}, {"triggers_fired", fired},
	}
}
