package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/fleet"
	"repro/internal/parser"
	rt "repro/internal/runtime"
	"repro/internal/service"
	"repro/internal/wire"
)

// lockedBuffer is a bytes.Buffer safe to read while the daemon
// goroutine is still writing.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon runs the daemon with argv, waits for its listen lines,
// and returns the fleet address plus a stop function reporting the
// exit code.
func startDaemon(t *testing.T, argv ...string) (addr string, stdout *lockedBuffer, stop func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stdout = &lockedBuffer{}
	stderr := &lockedBuffer{}
	pr, pw := io.Pipe()
	code := make(chan int, 1)
	go func() {
		c := run(ctx, argv, io.MultiWriter(stdout, pw), stderr)
		pw.Close()
		code <- c
	}()
	line := make([]byte, 0, 64)
	buf := make([]byte, 1)
	for {
		if _, err := pr.Read(buf); err != nil {
			t.Fatalf("daemon exited before listening: stderr=%q", stderr.String())
		}
		if buf[0] == '\n' {
			break
		}
		line = append(line, buf[0])
	}
	go io.Copy(io.Discard, pr)
	addr = strings.TrimPrefix(string(line), "listening on ")
	if addr == string(line) {
		t.Fatalf("unexpected first stdout line %q", line)
	}
	stop = func() int {
		cancel()
		select {
		case c := <-code:
			return c
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not exit")
			return -1
		}
	}
	return addr, stdout, stop
}

// TestDaemonUnixSocketRoundTrip: a chased on a unix socket serves a
// coordinator submit end to end (including the cold pull — the daemon
// starts empty), and SIGINT-style cancellation exits 0.
func TestDaemonUnixSocketRoundTrip(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "chased.sock")
	addr, _, stop := startDaemon(t, "-listen", sock, "-network", "unix", "-workers", "2")
	if addr != sock {
		t.Fatalf("listen line reports %q, want %q", addr, sock)
	}

	prog, err := parser.Parse("e(a, b). e(X, Y) -> e(Y, X).")
	if err != nil {
		t.Fatal(err)
	}
	local := service.New(service.Config{Cache: compile.NewCache(0)})
	defer local.Close()
	h, err := local.RegisterOntology(prog.Rules)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.NewCoordinator(fleet.Config{
		Workers: []string{sock},
		Network: "unix",
		Source:  local,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	tk, err := coord.Submit(fleet.Job{
		Name:        "rt",
		Fingerprint: h.Fingerprint,
		Variant:     chase.SemiOblivious,
		Snapshot:    wire.EncodeSnapshot(prog.Database),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Terminated || res.Instance.Len() != 2 {
		t.Fatalf("remote chase = terminated %v, %d atoms; want terminated, 2", res.Terminated, res.Instance.Len())
	}
	if coord.ColdPulls() != 1 {
		t.Fatalf("cold pulls = %d, want 1", coord.ColdPulls())
	}
	coord.Close()
	if code := stop(); code != 0 {
		t.Fatalf("daemon exit code %d, want 0", code)
	}
}

// TestDaemonHealthSurface: -http serves the service's health and
// metrics endpoints.
func TestDaemonHealthSurface(t *testing.T) {
	_, stdout, stop := startDaemon(t, "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0")
	defer stop()

	deadline := time.Now().Add(5 * time.Second)
	var httpAddr string
	for httpAddr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no http line in stdout: %q", stdout.String())
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "http on "); ok {
				httpAddr = rest
			}
		}
	}
	resp, err := http.Get("http://" + httpAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}
	resp, err = http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
}

// TestDaemonBadFlags: flag misuse fails with exit 2 before any socket
// is bound.
func TestDaemonBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-network", "carrier-pigeon"}, &out, &errb); code != 2 {
		t.Fatalf("bad network exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"stray"}, &out, &errb); code != 2 {
		t.Fatalf("stray arg exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-listen", "999.999.999.999:1"}, &out, &errb); code != 1 {
		t.Fatalf("unbindable listen exit %d, want 1", code)
	}
}

// TestDaemonHelp: -h exits 2 without binding, and the help text states
// what -workers and -queue-bound set: the embedded scheduler's job-worker
// count and admission queue bound, with 0 selecting their defaults.
func TestDaemonHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &out, &errb); code != 2 {
		t.Fatalf("-h exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Fatalf("-h wrote to stdout: %q", out.String())
	}
	help := errb.String()
	for _, want := range []string{
		"scheduler job workers: jobs run at once (0 = GOMAXPROCS)",
		fmt.Sprintf("scheduler admission queue bound (0 = the scheduler default, %d)", rt.DefaultQueueBound),
	} {
		if !strings.Contains(help, want) {
			t.Errorf("-h output lacks %q:\n%s", want, help)
		}
	}
	if strings.Contains(help, "per job") || strings.Contains(help, "sequential") || strings.Contains(help, "unbounded") {
		t.Errorf("-h output still describes a per-job pool or an unbounded queue:\n%s", help)
	}
}

// TestDaemonStaleUnixSocket: a leftover socket file from an unclean
// exit must not wedge the next start.
func TestDaemonStaleUnixSocket(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "stale.sock")
	// First daemon creates the socket; cancel without removing it is
	// simulated by just writing a stale file.
	addr, _, stop := startDaemon(t, "-listen", sock, "-network", "unix")
	stop()
	if addr != sock {
		t.Fatalf("listen = %q", addr)
	}
	addr2, _, stop2 := startDaemon(t, "-listen", sock, "-network", "unix")
	defer stop2()
	if addr2 != sock {
		t.Fatalf("restart over stale socket listened on %q", addr2)
	}
}
