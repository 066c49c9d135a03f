// Command simd is the simulation server: the batch experiment engine
// exposed as a long-running job service with a content-addressed
// result cache.
//
// Usage:
//
//	simd -addr 127.0.0.1:8080
//	simd -addr :8080 -workers 8 -cachemb 256 -draintimeout 1m
//
// API:
//
//	POST /v1/jobs              submit a job: {"experiment":"fig9","quick":true,
//	                           "sms":0,"sched":"","tlactive":0,"maxcycles":0,
//	                           "wait":true}; "wait" blocks until completion and
//	                           inlines the rendered table in the response
//	GET  /v1/jobs/{id}         job status (queued | running | done | failed)
//	GET  /v1/jobs/{id}/output  the rendered table, byte-identical to what
//	                           cmd/experiments prints for the same knobs
//	                           (long-polls until the job completes)
//	GET  /healthz              liveness (503 while draining)
//	GET  /statsz               job totals, cache hit/miss/eviction counters and
//	                           the launch memo's (launches: hits, misses, joined)
//
// Jobs run on one long-lived shared worker pool (the -workers budget
// bounds total simulation concurrency across all in-flight requests),
// and every successful table is memoized by its content address
// (experiment ID + table-affecting knobs): the simulator is
// deterministic, so a repeated submission is served the byte-identical
// cached table without simulating anything. Below that, the pool's
// launch memo simulates each distinct kernel launch once, so requests
// that differ only in a knob the model never reads share their work.
//
// SIGINT/SIGTERM shut down gracefully: new jobs are rejected with 503,
// in-flight jobs drain to completion (bounded by -draintimeout), then
// the process exits 0.
//
// Exit codes: 0 clean shutdown (including signal-initiated), 1 server
// error, 2 flag errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"
)

const (
	exitOK     = 0
	exitFailed = 1
	exitUsage  = 2
)

// Flag bounds, matching the other CLIs: values beyond these are
// almost certainly typos.
const (
	maxWorkers = 4096
	maxCacheMB = 1 << 20 // a terabyte of cached tables is a typo
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// validateFlags rejects out-of-range serving knobs at the flag
// boundary with a clear error.
func validateFlags(addr string, workers, cacheMB int, drainTimeout time.Duration) error {
	if addr == "" {
		return fmt.Errorf("simd: -addr must not be empty")
	}
	if workers < 0 || workers > maxWorkers {
		return fmt.Errorf("simd: -workers %d out of range (want 0 for one per CPU, or 1..%d)", workers, maxWorkers)
	}
	if cacheMB < 0 || cacheMB > maxCacheMB {
		return fmt.Errorf("simd: -cachemb %d out of range (want 0 to disable caching, or 1..%d)", cacheMB, maxCacheMB)
	}
	if drainTimeout < 0 {
		return fmt.Errorf("simd: -draintimeout must be ≥ 0 (0 = drain forever)")
	}
	return nil
}

// run is main's body with a normal return path so tests can pin the
// exit-code contract in-process. A canceled ctx (the signal path)
// triggers the graceful drain.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "shared worker-pool budget across all jobs (0 = one per CPU)")
	cacheMB := fs.Int("cachemb", 64, "content-addressed result cache budget in MiB (0 disables caching)")
	drainTimeout := fs.Duration("draintimeout", time.Minute, "bound on the SIGTERM drain; past it remaining jobs are canceled (0 = drain forever)")
	if err := fs.Parse(args); err != nil {
		// -h/-help is a successful usage request, not a usage error.
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}
	if err := validateFlags(*addr, *workers, *cacheMB, *drainTimeout); err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "simd: listen:", err)
		return exitFailed
	}
	s := newServer(*workers, int64(*cacheMB)<<20, *drainTimeout)
	defer s.close()
	fmt.Fprintf(stdout, "simd: serving on http://%s (%d workers, %d MiB cache)\n",
		ln.Addr(), s.pool.Workers(), *cacheMB)
	return s.serve(ctx, ln, stderr)
}
