package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the output must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// printed is what one run printed: its counts line and its result line.
type printed struct {
	counts string
	result struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	keys map[string]json.RawMessage
}

func runOnce(t *testing.T, args ...string) printed {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v exited %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var p printed
	for _, l := range lines {
		if strings.HasPrefix(l, "# counts") {
			p.counts = l
		}
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &p.result); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, last)
	}
	if err := json.Unmarshal([]byte(last), &p.keys); err != nil {
		t.Fatal(err)
	}
	return p
}

// checkResult asserts the result line's shape: exactly the four keys, a
// correct run, and exactly the named metrics with their units.
func checkResult(t *testing.T, p printed, want []specMetric) {
	t.Helper()
	if len(p.keys) != 4 {
		t.Errorf("result has keys %v, want correct, attempted, failed, metrics", p.keys)
	}
	if !p.result.Correct || p.result.Failed != 0 || p.result.Attempted < 1 {
		t.Errorf("run not correct: %+v", p.result)
	}
	if len(p.result.Metrics) != len(want) {
		t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(p.result.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := p.result.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not printed", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSameSeedSameCounts runs every workload twice with one seed: both
// runs must print identical work counts, and each must print every
// end-to-end metric BENCHMARK.json names, with its unit. One traced run
// per workload must print every per-layer metric.
func TestSameSeedSameCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	s := readSpec(t)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("BENCHMARK.json workload %d is %s, the harness has %s", i, w.Name, workloadNames[i])
		}
	}
	if len(s.PerLayer) != len(layers) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the harness has %d", len(s.PerLayer), len(layers))
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			args := []string{"--workload", w, "--seed", "7", "--seconds", "1", "--trace", "0"}
			a, b := runOnce(t, args...), runOnce(t, args...)
			if a.counts == "" || a.counts != b.counts {
				t.Errorf("same seed, different counts:\n%s\n%s", a.counts, b.counts)
			}
			checkResult(t, a, s.EndToEnd)
			tr := runOnce(t, "--workload", w, "--seed", "7", "--seconds", "1", "--trace", "1", "--trace-dir", t.TempDir())
			checkResult(t, tr, s.PerLayer)
		})
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown workload printed a result: %s", stdout.String())
	}
}
