package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli/clitest"
	"repro/internal/compile"
	"repro/internal/fleet"
	"repro/internal/service"
)

// startFleetWorkers boots n cold in-process fleet workers on unix
// sockets (exactly what chased serves) and returns the -fleet value.
func startFleetWorkers(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, n)
	for i := range addrs {
		sock := filepath.Join(dir, "w"+string(rune('0'+i))+".sock")
		svc := service.New(service.Config{Workers: 4, Cache: compile.NewCache(0)})
		t.Cleanup(svc.Close)
		srv := fleet.NewServer(svc)
		lis, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(lis)
		t.Cleanup(srv.Close)
		addrs[i] = sock
	}
	return strings.Join(addrs, ",")
}

// TestChaseFleetGolden pins the -fleet route against the in-process
// goldens: shipping the chase to a two-worker fleet (cold workers, so
// every ontology crosses through the cold-pull handshake) must leave
// stdout byte-identical — SameAs makes the local golden the only
// oracle, so the remote path can never drift silently.
func TestChaseFleetGolden(t *testing.T) {
	fleetArg := startFleetWorkers(t, 2)
	remote := []string{"-fleet", fleetArg, "-fleet-network", "unix"}
	clitest.Golden(t, run, []clitest.Case{
		{
			Name:   "fleet-quickstart-pretty",
			Argv:   append([]string{"-program", clitest.Example("quickstart.dlgp")}, remote...),
			SameAs: "quickstart-pretty",
		},
		{
			Name:   "fleet-quickstart-oblivious",
			Argv:   append([]string{"-program", clitest.Example("quickstart.dlgp"), "-engine", "oblivious", "-format", "dlgp"}, remote...),
			SameAs: "quickstart-oblivious",
		},
		{
			Name:   "fleet-linear-dlgp",
			Argv:   append([]string{"-program", clitest.Example("linear.dlgp"), "-format", "dlgp"}, remote...),
			SameAs: "linear-semi",
		},
		{
			// Budget truncation crosses the wire: same "% truncated" line,
			// same exit code, with the round-progress stream relayed from
			// the remote worker to stderr.
			Name:   "fleet-infinite-budget",
			Argv:   append([]string{"-program", clitest.Example("infinite.dlgp"), "-max-atoms", "50", "-quiet", "-stats", "-stream"}, remote...),
			Exit:   1,
			SameAs: "infinite-budget",
		},
	})
}

// TestChaseFleetMisuse: flags that need the local process are diagnosed
// as CLI misuse with -fleet, and an unreachable fleet fails typed.
func TestChaseFleetMisuse(t *testing.T) {
	step := func(argv ...string) (int, string) {
		var stdout, stderr bytes.Buffer
		code := run(argv, &stdout, &stderr)
		return code, stderr.String()
	}
	quick := clitest.Example("quickstart.dlgp")
	if code, errout := step("-program", quick, "-fleet", "127.0.0.1:1", "-resume", clitest.Example("quickstart.checkpoint")); code != 2 || !strings.Contains(errout, "-resume") {
		t.Fatalf("fleet+resume: exit %d, stderr %q", code, errout)
	}
	if code, errout := step("-program", quick, "-fleet", "127.0.0.1:1", "-checkpoint", filepath.Join(t.TempDir(), "x.cp")); code != 2 || !strings.Contains(errout, "-checkpoint") {
		t.Fatalf("fleet+checkpoint: exit %d, stderr %q", code, errout)
	}
	if code, errout := step("-program", quick, "-fleet", "127.0.0.1:1", "-metrics", filepath.Join(t.TempDir(), "m.txt")); code != 2 || !strings.Contains(errout, "-metrics") {
		t.Fatalf("fleet+metrics: exit %d, stderr %q", code, errout)
	}
	// Nothing listens on the reserved port: the dial retries exhaust and
	// the failure is a diagnostic, not a hang or a panic.
	if code, errout := step("-program", quick, "-fleet", "127.0.0.1:1"); code != 2 || !strings.Contains(errout, "chase:") {
		t.Fatalf("dead fleet: exit %d, stderr %q", code, errout)
	}
}

// TestChaseFleetRequestName: a request file's name labels the job on
// both routes, so a failure names the same job in-process and over
// -fleet. A bounded request for an ontology with no learned bound fails
// at admission on either side.
func TestChaseFleetRequestName(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"nightly.dlgp": "nightly_src(a). nightly_src(X) -> nightly_dst(X).\n",
		"req.json":     `{"kind": "chase", "name": "nightly", "qos": "bounded", "program": "nightly.dlgp"}`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	req := filepath.Join(dir, "req.json")
	for route, argv := range map[string][]string{
		"in-process": {"-request", req},
		"fleet":      {"-request", req, "-fleet", startFleetWorkers(t, 1), "-fleet-network", "unix"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(argv, &stdout, &stderr)
		errout := stderr.String()
		if code != 2 || !strings.Contains(errout, `service: chase "nightly" [bad-request]`) || strings.Contains(errout, `"chase"`) {
			t.Fatalf("%s: exit %d, stderr %q; want the bad request named \"nightly\"", route, code, errout)
		}
	}
}
