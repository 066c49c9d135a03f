package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// The job-submission seam over the shared worker pool. Every run has a
// pool: RunAll owns one for the span of one batch invocation (the CLI
// shape), a bare Experiment.Run gets a transient one from forEach, and
// a serving process (cmd/simd) keeps one Pool alive for its whole
// lifetime and submits experiments as jobs arrive, so the Workers
// budget bounds total simulation concurrency across every in-flight
// request exactly like it bounds a batch sweep.

// Pool is a long-lived shared worker pool accepting experiment jobs.
// It is safe for concurrent use: any number of goroutines may call Run
// at once, and their data points interleave on the same fixed worker
// set. Close drains the workers; it must not race with Run.
type Pool struct {
	p       *sharedPool
	workers int
}

// NewPool starts a pool of the given size (0 = one worker per CPU,
// matching Options.Workers semantics).
func NewPool(workers int) *Pool {
	w := Options{Workers: workers}.workers()
	return &Pool{p: newSharedPool(w), workers: w}
}

// Workers reports the pool's fixed worker count.
func (p *Pool) Workers() int { return p.workers }

// LaunchStats reports the counters of the pool's launch memo: how many
// of the launches its jobs issued simulated, and how many were answered
// by an identical earlier or concurrent one.
func (p *Pool) LaunchStats() LaunchStats { return p.p.memo.stats() }

// Close shuts the pool down after in-flight jobs drain. Run must not
// be called after (or concurrently with) Close.
func (p *Pool) Close() { p.p.close() }

// Run runs one experiment with its data points fanned onto the pool,
// with the same panic isolation as RunAll: a panicking experiment
// surfaces as that job's error, never a crash of the serving process.
// The result is byte-identical whatever the pool size or the number of
// concurrent Run calls — each data point simulates on its own
// Simulator and tables are assembled in point order (the PR 1/2
// contract that makes results content-addressable, see ExperimentKey).
func (p *Pool) Run(e Experiment, opt Options) (*Table, error) {
	opt.pool = p.p
	return runSafely(e, opt)
}

// ExperimentKey returns the deterministic identity of one experiment's
// whole table under the given options: the content address the serving
// cache (internal/servecache, cmd/simd) stores rendered tables under, a
// 128-bit hex digest of the experiment ID and every Options knob that
// can change the table (Quick, SMs, Scheduler, TwoLevelActive). Workers
// is excluded — tables are byte-identical at any pool size — as are
// the fault-tolerance options (Ctx, MaxCycles, KeepGoing, Journal):
// they bound how a run can fail, never what a successful table
// contains, and only successes are cached. The key names no kernel and
// no config: it addresses tables of this process's model, which is all
// a serving process's in-memory cache ever holds.
func ExperimentKey(expID string, opt Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00quick=%t sms=%d sched=%s tla=%d",
		expID, opt.Quick, opt.SMs, opt.Scheduler, opt.TwoLevelActive)
	return hex.EncodeToString(h.Sum(nil)[:16])
}
