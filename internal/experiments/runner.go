package experiments

import (
	"runtime"
	"sync"
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
// without either, a transient pool of min(Workers, n) that runPoints
// starts for the call. Either way at most Workers points run at a time,
// and every launch has a pool and so a memo (memo.go).
//
// Fault tolerance (points.go, checkpoint.go) layers on top: runPoints
// recovers a panicking data point into that point's error instead of
// crashing the process, and stops starting points once the run's
// context is canceled so a SIGINT drains gracefully.

// workers resolves the Options.Workers knob: 0 means one worker per CPU,
// 1 runs the points one at a time, in index order.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
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
