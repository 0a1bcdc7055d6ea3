// Package clitest is the golden-file end-to-end harness for the
// command-line tools. Each cmd package exposes its run(argv, stdout,
// stderr) entry point to a test that tables up invocations over the
// programs in examples/dlgp; the harness executes every case — once per
// sweep flag when the test names any (experiments sweeps its scheduler's
// -workers), asserting the outputs are byte-identical — and compares
// stdout against a checked-in golden file.
//
// Regenerate goldens with:
//
//	go test ./cmd/... -update
package clitest

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Update rewrites golden files instead of comparing against them.
var Update = flag.Bool("update", false, "rewrite the golden files instead of comparing")

// RunFunc is the testable main shared by the cmd packages.
type RunFunc func(argv []string, stdout, stderr io.Writer) int

// Case is one golden invocation.
type Case struct {
	Name string   // golden file basename (testdata/<Name>.golden)
	Argv []string // arguments, without any sweep flag
	Exit int      // expected exit code (same under every sweep flag)
	// SameAs names an earlier case whose golden file this case's stdout
	// must equal byte for byte — the streaming-vs-batch identity. The
	// named golden is the case's only oracle (no duplicate file is
	// written or compared, so the twins can never go stale against each
	// other), and it is enforced even under -update, so regeneration can
	// never silently record a divergence.
	SameAs string
}

// Golden runs every case and compares stdout against its golden file.
// With sweep flags, every case runs once per flag, with the flag
// appended, and stdout must not depend on which; without, it runs once
// as given.
func Golden(t *testing.T, run RunFunc, cases []Case, sweep ...string) {
	t.Helper()
	if len(sweep) == 0 {
		sweep = []string{""}
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			var first []byte
			for i, extra := range sweep {
				argv := append([]string{}, c.Argv...)
				if extra != "" {
					argv = append(argv, extra)
				}
				var stdout, stderr bytes.Buffer
				if exit := run(argv, &stdout, &stderr); exit != c.Exit {
					t.Fatalf("%v: exit %d, want %d\nstderr:\n%s", argv, exit, c.Exit, stderr.String())
				}
				if i == 0 {
					first = stdout.Bytes()
					continue
				}
				if !bytes.Equal(first, stdout.Bytes()) {
					t.Fatalf("%v: stdout differs between sweep flags\n--- %s\n%s\n--- %s\n%s",
						c.Argv, sweep[0], first, extra, stdout.Bytes())
				}
			}
			if c.SameAs != "" {
				want, err := os.ReadFile(filepath.Join("testdata", c.SameAs+".golden"))
				if err != nil {
					t.Fatalf("SameAs %q: %v (order the batch case before its stream twin)", c.SameAs, err)
				}
				if !bytes.Equal(want, first) {
					t.Fatalf("stdout diverges from the %s golden it must match byte for byte:\n%s\nwant:\n%s",
						c.SameAs, first, want)
				}
				return
			}
			path := filepath.Join("testdata", c.Name+".golden")
			if *Update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, first, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if !bytes.Equal(want, first) {
				t.Fatalf("stdout differs from %s:\n%s\nwant:\n%s\n(re-record with -update if the change is intended)",
					path, first, want)
			}
		})
	}
}

// Example returns the path of a program under examples/dlgp, relative to
// a cmd package's test binary.
func Example(name string) string {
	return filepath.Join("..", "..", "examples", "dlgp", name)
}
