// statsatd is the attack-as-a-service daemon: it accepts attack jobs
// over a small REST API (POST /v1/jobs), runs them on a bounded worker
// pool, and exposes live status, an NDJSON trace stream and results
// per job. See docs/SERVER.md for the API and cmd/statsat -server for
// the companion client mode.
//
// Usage:
//
//	statsatd -addr 127.0.0.1:9355 -workers 4
//
// SIGINT/SIGTERM triggers a graceful drain: submissions are refused,
// every queued or running job is cancelled (each flushes an
// `interrupted` trace event and keeps its best-effort partial result),
// and the process exits once the pool is idle or the -drain budget
// runs out.
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
	"time"

	"statsat/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run carries the whole daemon so tests can drive it with their own
// context, flags and pipes (and so deferred cleanup survives the error
// paths). The listener binds before the "listening" line prints, so a
// -addr with port 0 is usable: parse the printed address.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("statsatd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:9355", "listen address (host:port; port 0 picks a free port)")
		workers  = fs.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
		maxJobs  = fs.Int("maxjobs", 256, "retained jobs before oldest finished jobs are evicted")
		queue    = fs.Int("queue", 0, "queued-job bound (0 = 2*maxjobs)")
		maxBody  = fs.Int64("maxbody", 8<<20, "POST body size limit in bytes (netlist uploads included)")
		traceBuf = fs.Int("tracebuf", 0, "bound on each job's trace replay ring, in events; the ring costs 176 B per retained event (0 = 4096)")
		dataDir  = fs.String("data", "", "durable job directory: WAL + trace spill; jobs survive and resume across restarts (empty = in-memory)")
		drain    = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		quiet    = fs.Bool("q", false, "suppress per-job lifecycle logging")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "statsatd: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	cfg := server.Config{
		Workers:      *workers,
		MaxJobs:      *maxJobs,
		QueueDepth:   *queue,
		MaxBodyBytes: *maxBody,
		TraceBuffer:  *traceBuf,
		DataDir:      *dataDir,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "statsatd:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "statsatd:", err)
		return 1
	}
	srv.Start(ctx)
	fmt.Fprintf(stdout, "statsatd listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintln(stderr, "statsatd:", err)
		srv.Shutdown(context.WithoutCancel(ctx))
		return 1
	}

	// Drain: cancel the jobs first so live trace streams close and
	// their handlers return, then let the HTTP server finish in-flight
	// responses. The budget context must not inherit ctx's cancellation
	// — ctx is already done; that is why we are draining.
	fmt.Fprintln(stdout, "statsatd: signal received, draining")
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drain)
	defer cancel()
	code := 0
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(stderr, "statsatd:", err)
		code = 1
	}
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintln(stderr, "statsatd:", err)
		code = 1
	}
	return code
}
