// Command chased is the chase fleet worker: a daemon that serves the
// framed fleet protocol (internal/fleet) over TCP or a unix socket,
// dispatching Register and Submit requests to a local service.Service
// and streaming typed Progress/Result/Error frames back. A coordinator
// (internal/fleet.Coordinator, or cmd/chase -fleet) fans jobs out over
// a set of chased processes; workers may start cold — an unknown
// ontology fails typed and the coordinator replays it through the
// cold-pull handshake, so nothing but the listen address has to be
// provisioned ahead of time.
//
// Usage:
//
//	chased -listen 127.0.0.1:7466 [-network tcp|unix] [-workers N]
//	       [-queue-bound N] [-http ADDR]
//
// On startup the daemon prints "listening on <addr>" (and, with -http,
// "http on <addr>") to stdout — pass port 0 and scrape the line to
// wire up an ephemeral fleet. -workers and -queue-bound shape the
// embedded service's scheduler; they bound one worker's concurrency,
// not the fleet's. With -http, the service's telemetry surface
// (/healthz, /metrics, /metrics.json) is served on ADDR. SIGINT or
// SIGTERM drains and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/fleet"
	rt "repro/internal/runtime"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chased", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:0", "fleet listen address (host:port, or a socket path with -network unix)")
	network := fs.String("network", "tcp", "listen network: tcp or unix")
	workers := fs.Int("workers", 0, "scheduler job workers: jobs run at once (0 = GOMAXPROCS)")
	queueBound := fs.Int("queue-bound", 0, fmt.Sprintf("scheduler admission queue bound (0 = the scheduler default, %d)", rt.DefaultQueueBound))
	httpAddr := fs.String("http", "", "serve /healthz and /metrics on this address (empty = off)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "chased: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *network != "tcp" && *network != "unix" {
		fmt.Fprintf(stderr, "chased: -network must be tcp or unix, got %q\n", *network)
		return 2
	}
	if *network == "unix" {
		// A previous unclean exit leaves the socket file behind; binding
		// would fail even though nothing is listening. Remove it — if a
		// live daemon holds it, the remove succeeds but its listener
		// keeps the open inode, and our Listen fails loudly below.
		os.Remove(*listen)
	}

	svc := service.New(service.Config{
		Workers:    *workers,
		QueueBound: *queueBound,
		Telemetry:  telemetry.New(),
	})
	defer svc.Close()

	lis, err := net.Listen(*network, *listen)
	if err != nil {
		fmt.Fprintf(stderr, "chased: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "listening on %s\n", lis.Addr())

	var httpSrv *http.Server
	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			lis.Close()
			fmt.Fprintf(stderr, "chased: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "http on %s\n", hl.Addr())
		httpSrv = &http.Server{Handler: svc.Handler()}
		go httpSrv.Serve(hl)
	}

	srv := fleet.NewServer(svc)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()

	select {
	case <-ctx.Done():
		srv.Close()
		<-done
		err = nil
	case err = <-done:
		srv.Close()
	}
	if httpSrv != nil {
		httpSrv.Shutdown(context.Background())
	}
	if err != nil {
		fmt.Fprintf(stderr, "chased: %v\n", err)
		return 1
	}
	return 0
}
