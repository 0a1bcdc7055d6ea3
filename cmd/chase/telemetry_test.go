package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/cli/clitest"
)

// TestChaseTelemetryFiles: -metrics writes Prometheus text (JSON for a
// .json path) and -trace the job's spans as JSON lines, and neither
// changes stdout.
func TestChaseTelemetryFiles(t *testing.T) {
	argv := []string{"-program", clitest.Example("quickstart.dlgp")}
	var want, stderr bytes.Buffer
	if code := run(argv, &want, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	dir := t.TempDir()
	prom, js, trace := filepath.Join(dir, "x.prom"), filepath.Join(dir, "x.json"), filepath.Join(dir, "x.jsonl")
	for _, flags := range [][]string{{"-metrics", prom, "-trace", trace}, {"-metrics", js}} {
		var got bytes.Buffer
		if code := run(append(flags, argv...), &got, &stderr); code != 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%v: exit %d, stdout differs from the run without them:\n%s", flags, code, got.String())
		}
	}
	read := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, series := range []string{"service_requests_total", "chase_rounds_total"} {
		if !regexp.MustCompile(`(?m)^` + series + `[{ ]`).Match(read(prom)) {
			t.Errorf("%s carries no %s series", prom, series)
		}
	}
	var metrics map[string]any
	if err := json.Unmarshal(read(js), &metrics); err != nil {
		t.Errorf("%s: %v", js, err)
	}
	ran := false
	for sc := bufio.NewScanner(bytes.NewReader(read(trace))); sc.Scan(); {
		var span struct{ Job, Span string }
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("%s: %v", trace, err)
		}
		ran = ran || span.Job == "chase" && span.Span == "run"
	}
	if !ran {
		t.Errorf("%s holds no run span of the chase job", trace)
	}
}
