// Command perfbench measures the chase system's four serving paths end to
// end and, in its traced mode, layer by layer.
//
// One run is one workload, one seed and one fresh process. From the
// repository root:
//
//	bash perfbench/run.sh --workload serve-guarded --seed 1 --seconds 10 --trace 0
//
// A run cold-starts the workload's serving stack several times (the
// median is setup_s), then drives nproc closed-loop clients through the
// last stack for --seconds, checks every answer against a reference
// computed directly through the layer packages, and prints its metrics.
// With --trace 1 it then replays the same seeded requests on a fresh
// stack with spans around every layer call, times each layer's public
// functions on a sample of those requests, and prints the per-layer
// metrics instead. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. README.md defines
// the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are a run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceDir string
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 replays the requests traced and reports per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build", "directory the traced mode writes its spans to")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		return 2
	}
	clients := runtime.NumCPU()
	w, err := newWorkload(opt.workload, opt.seed, clients)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	out, err := measure(w, opt, clients)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out.print(stdout)
	if !out.correct() {
		fmt.Fprintf(stderr, "perfbench: %d of %d requests failed or answered wrongly; first: %v\n",
			out.failed, out.attempted, out.firstErr)
		return 1
	}
	return 0
}

// coldStartCount is how many cold starts a run makes; their median is
// setup_s. A single cold start of serve, fleet or decide is tens of
// milliseconds, too little to read steadily on its own.
const coldStartCount = 7

// outcome is everything one run prints.
type outcome struct {
	opt       options
	clients   int
	timed     *phase
	attempted int
	failed    int
	firstErr  error
	metrics   []metric
	extra     []metric // printed, not in the JSON line
	counts    []count
	notes     []string
}

type metric struct {
	name  string
	value float64
	unit  string
}

type count struct {
	name  string
	value int64
}

func (o *outcome) correct() bool { return o.failed == 0 && o.attempted > 0 }

func (o *outcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// measure runs the set-up, the timed phase and the checks, and in traced
// mode the replay and the layer probes.
func measure(w workload, opt options, clients int) (*outcome, error) {
	out := &outcome{opt: opt, clients: clients}
	st, setup, cold, err := coldStarts(w, coldStartCount)
	if err != nil {
		return nil, err
	}
	if r, ok := w.(inputReleaser); ok {
		r.releaseInputs()
	}
	out.timed = drive(st, clients, deadline(time.Duration(opt.seconds)*time.Second), nil)
	out.attempted = len(out.timed.replies)
	for _, r := range out.timed.replies {
		if r.err != nil {
			out.fail(fmt.Errorf("request %d: %w", r.i, r.err))
		}
	}
	for _, err := range w.check(st, out.timed.replies) {
		out.fail(err)
	}
	st.close()
	out.counts = w.counts(out.timed.replies)
	if opt.trace {
		if err := traced(w, opt, clients, out.timed, cold, out); err != nil {
			return nil, err
		}
	} else {
		out.metrics = out.timed.endToEnd(median(setup))
	}
	out.extra = append(out.extra, metric{"error_rate", float64(out.failed) / float64(out.attempted), "ratio"})
	return out, nil
}

// inputReleaser is a workload that holds inputs only its set-up needs and
// can drop them before a timed phase, which should carry only the serving
// stack's own live heap.
type inputReleaser interface {
	releaseInputs()
}

// coldStarts builds the workload's stack n times and returns the last one
// with every start's duration; the earlier stacks are closed untimed.
func coldStarts(w workload, n int) (stack, []time.Duration, []coldStats, error) {
	var (
		st    stack
		durs  []time.Duration
		colds []coldStats
	)
	for k := 0; k < n; k++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		start := time.Now()
		s, cold, err := w.coldStart()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("cold start: %w", err)
		}
		durs = append(durs, time.Since(start))
		colds = append(colds, cold)
		st = s
	}
	return st, durs, colds, nil
}

func (o *outcome) print(w io.Writer) {
	mode, p := 0, o.timed
	if o.opt.trace {
		mode = 1
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", o.opt.workload, o.opt.seed, o.opt.seconds, mode)
	fmt.Fprintf(w, "# provenance commit=%s source=%s go=%s nproc=%d gomaxprocs=%d clients=%d seed=%d requests=%d steal=%.4f\n",
		envOr("PERFBENCH_COMMIT", "unknown"), envOr("PERFBENCH_SOURCE", "unknown"), runtime.Version(),
		runtime.NumCPU(), runtime.GOMAXPROCS(0), o.clients, o.opt.seed, len(p.replies), p.steal)
	fmt.Fprintf(w, "# timed phase wall_s=%.3f cpu_ms=%.1f sys_ms=%.1f gc_cycles=%d gc_cpu_frac=%.4f\n",
		p.wall.Seconds(), ms(p.cpu), ms(p.sys), p.gcs, p.gcFrac)
	p.printWindows(w)
	var cs []string
	for _, c := range o.counts {
		cs = append(cs, fmt.Sprintf("%s=%d", c.name, c.value))
	}
	fmt.Fprintf(w, "# counts over requests 0..%d: %s\n", countedRequests-1, strings.Join(cs, " "))
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range append(append([]metric(nil), o.metrics...), o.extra...) {
		fmt.Fprintf(w, "metric %-28s %14.6f %s\n", m.name, m.value, m.unit)
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]jv, len(o.metrics))
	for _, m := range o.metrics {
		vals[m.name] = jv{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, vals})
	if err != nil {
		// Only a NaN or infinite value can fail to marshal; that is a bug
		// in a metric's definition.
		panic(err)
	}
	fmt.Fprintln(w, string(line))
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// median returns the median duration in seconds.
func median(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
