package experiments

import (
	"context"
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
// The engine is two-level (see runall.go): RunAll fans the whole
// registry's data points into one sharedPool bounded by Options.Workers,
// while a single-experiment Run without a pool spins a private pool of
// the same size. Either way fn(i) runs at most Workers at a time.
//
// Fault tolerance (points.go, checkpoint.go) layers on top: every path
// below — sequential, private pool and shared pool — routes fn through
// callSafely so a panicking data point surfaces as that point's error
// instead of crashing the process, and every path stops handing out new
// indexes once the run's context is canceled so a SIGINT drains
// gracefully.

// workers resolves the Options.Workers knob: 0 means one worker per CPU,
// 1 forces the sequential path.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// forEach runs fn(i) for every i in [0, n) on the option's worker pool.
// fn must confine its writes to the i-th slot of result slices sized
// before the call. On error the pool stops handing out new indexes and
// the lowest-indexed error is returned, matching what a sequential run
// would surface. When the options carry a shared cross-experiment pool,
// the indexes are submitted there so the global worker budget bounds all
// experiments together.
func forEach(opt Options, n int, fn func(i int) error) error {
	ctx := opt.ctx()
	if opt.pool != nil {
		return opt.pool.forEach(ctx, n, fn)
	}
	w := min(opt.workers(), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("experiments: canceled before data point %d: %w", i, err)
			}
			if err := callSafely(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errs   = make([]error, n)
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = fmt.Errorf("experiments: canceled before data point %d: %w", i, err)
					failed.Store(true)
					return
				}
				if err := callSafely(fn, i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
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
// error. Every engine path routes through it, so a panicking point in a
// sequential run or a private pool surfaces exactly like one on the
// shared pool: as that point's error, never a process crash.
func callSafely(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: data point %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}

// sharedPool is the cross-experiment worker pool: a fixed set of workers
// draining one job queue. Jobs are leaves — they never block on the pool
// themselves — so a fixed worker count cannot deadlock, and the pool's
// size is the global simulation-concurrency budget however many
// experiments are in flight.
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

// forEach submits n point jobs and waits for them. Error semantics match
// the private-pool forEach: after the first failure (or cancellation)
// remaining points of this experiment no-op (other experiments sharing
// the pool are unaffected), and the lowest-indexed error is returned.
func (p *sharedPool) forEach(ctx context.Context, n int, fn func(i int) error) error {
	var (
		wg     sync.WaitGroup
		failed atomic.Bool
		errs   = make([]error, n)
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		p.jobs <- func() {
			defer wg.Done()
			if failed.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[i] = fmt.Errorf("experiments: canceled before data point %d: %w", i, err)
				failed.Store(true)
				return
			}
			// A panicking point must not take down the shared workers the
			// other experiments depend on; surface it as this experiment's
			// error instead.
			if err := callSafely(fn, i); err != nil {
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
