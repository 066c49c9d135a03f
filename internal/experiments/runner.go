package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The parallel experiment engine. Every experiment is a set of independent
// data points (GEMM sizes, latency sweeps, warp counts) that each build
// their own kernel, gpu.Simulator, mem.System and zeroMemory — nothing is
// shared between points, so they fan out across a worker pool. Results are
// written into index-addressed slots and tables are assembled in index
// order afterwards, which makes the parallel output byte-identical to a
// sequential run regardless of completion order.
//
// Every run's points go through one sharedPool: RunAll's, fanning the
// whole registry's data points into one pool bounded by Options.Workers
// (see runall.go); a serving Pool's; or, for a single-experiment Run
// without either, a transient pool of min(Workers, n) that forEach
// starts for the call. Either way fn runs at most Workers points at a
// time, and every launch has a pool and so a memo (memo.go).
//
// Fault tolerance (points.go, checkpoint.go) layers on top: forEach
// routes fn through callSafely so a panicking data point surfaces as
// that point's error instead of crashing the process, and stops handing
// out new indexes once the run's context is canceled so a SIGINT drains
// gracefully.

// workers resolves the Options.Workers knob: 0 means one worker per CPU,
// 1 runs the points one at a time, in index order.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// forEach runs fn(opt, i) for every i in [0, n) on the option's pool,
// with opt carrying that pool: fn's launches must go through it. fn must
// confine its writes to the i-th slot of result slices sized before the
// call. On error (or cancellation) the remaining points of this call
// no-op — other experiments sharing the pool are unaffected — and the
// lowest-indexed error is returned, matching what a sequential run
// would surface.
func forEach(opt Options, n int, fn func(opt Options, i int) error) error {
	if opt.pool == nil {
		p := newSharedPool(min(opt.workers(), n))
		defer p.close()
		opt.pool = p
	}
	ctx := opt.ctx()
	var (
		wg     sync.WaitGroup
		failed atomic.Bool
		errs   = make([]error, n)
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		opt.pool.jobs <- func() {
			defer wg.Done()
			if failed.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[i] = fmt.Errorf("experiments: canceled before data point %d: %w", i, err)
				failed.Store(true)
				return
			}
			// A panicking point must not take down the workers other
			// experiments may share; surface it as this experiment's
			// error instead.
			if err := callSafely(fn, opt, i); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// callSafely invokes one data-point function, converting a panic into an
// error: a panicking point surfaces as that point's error, never a
// process crash.
func callSafely(fn func(Options, int) error, opt Options, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: data point %d panicked: %v", i, r)
		}
	}()
	return fn(opt, i)
}

// sharedPool is the worker pool every run's points go through: a fixed
// set of workers draining one job queue. Jobs are leaves — they never
// block on the pool themselves — so a fixed worker count cannot
// deadlock, and the pool's size is the global simulation-concurrency
// budget however many experiments are in flight.
type sharedPool struct {
	jobs chan func()
	wg   sync.WaitGroup
	// memo shares launch results between everything that runs on the
	// pool, for as long as the pool lives (memo.go).
	memo *launchMemo
}

// newSharedPool starts a pool of the given size.
func newSharedPool(workers int) *sharedPool {
	p := &sharedPool{jobs: make(chan func(), 4*workers), memo: newLaunchMemo(launchMemoBytes)}
	p.wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// close drains the pool and waits for its workers to exit.
func (p *sharedPool) close() {
	close(p.jobs)
	p.wg.Wait()
}
