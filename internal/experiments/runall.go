package experiments

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// The cross-experiment scheduler: the second level of the parallel
// engine. RunAll fans the data points of every experiment in the registry
// into one shared worker pool (runner.go) so the Options.Workers budget
// bounds the whole run, streams each experiment's table in registry order
// as soon as it — and all its predecessors — completes, and aggregates
// per-experiment failures instead of dying on the first one.

// Result is one experiment's outcome under RunAll.
type Result struct {
	Experiment Experiment
	// Table is the regenerated artifact. It is nil when the experiment
	// failed outright; under Options.KeepGoing both fields can be set —
	// a partial table with errMark cells alongside the aggregated
	// *PointFailures error (use AsPointFailures to unwrap).
	Table *Table
	// Err is the experiment's failure; other experiments keep running.
	Err error
	// Elapsed is the experiment's wall time inside the shared pool.
	Elapsed time.Duration
}

// RunAll runs the experiments on one shared worker pool with a global
// Options.Workers budget (0 = one worker per CPU). Every experiment's
// independent data points are submitted to the same pool, so the budget
// bounds total simulation concurrency, not per-experiment concurrency.
//
// emit, when non-nil, is called exactly once per experiment, in registry
// order, as soon as that experiment and all its predecessors have
// completed — tables stream out while later experiments are still
// simulating. The returned slice holds every result in registry order;
// the tables are byte-identical whatever the worker count, because each
// data point simulates on its own Simulator and tables are assembled in
// point order.
func RunAll(exps []Experiment, opt Options, emit func(Result)) []Result {
	pool := newSharedPool(opt.workers())
	defer pool.close()
	opt.pool = pool

	st := newTableStreamer(len(exps), emit)
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		// One lightweight driver goroutine per experiment: it assembles
		// tables and blocks while its points run on the shared pool.
		go func(i int, e Experiment) {
			defer wg.Done()
			//simlint:wallclock Elapsed is stderr progress diagnostics only; it never reaches Stats or tables
			start := time.Now()
			tb, err := runSafely(e, opt)
			st.record(i, Result{Experiment: e, Table: tb, Err: err, Elapsed: time.Since(start)}) //simlint:wallclock same diagnostic timing
		}(i, e)
	}
	wg.Wait() // every driver goroutine has recorded: no writer remains
	return st.results
}

// tableStreamer collects per-experiment results from the driver
// goroutines and replays them to emit in registry order: a table is
// emitted as soon as it and all its predecessors have completed.
type tableStreamer struct {
	// mu guards results, done and next.
	mu   sync.Mutex
	emit func(Result) // called with mu held, in registry order; may be nil

	results []Result
	done    []bool
	// next is the first experiment index not yet emitted.
	next int
}

func newTableStreamer(n int, emit func(Result)) *tableStreamer {
	return &tableStreamer{
		emit:    emit,
		results: make([]Result, n),
		done:    make([]bool, n),
	}
}

// record stores one experiment's result and emits every consecutive
// completed table starting at the replay cursor.
func (s *tableStreamer) record(i int, r Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results[i] = r
	s.done[i] = true
	for s.next < len(s.results) && s.done[s.next] {
		if s.emit != nil {
			s.emit(s.results[s.next])
		}
		s.next++
	}
}

// runSafely runs one experiment, converting a panic into an error so a
// bad experiment cannot take down the rest of the registry. The error
// names the experiment, as every recover() site in the engine names its
// failing unit (runall_test.go and the pool tests assert it).
func runSafely(e Experiment, opt Options) (tb *Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			tb, err = nil, fmt.Errorf("experiment %s panicked: %v", e.ID, r)
		}
	}()
	return e.Run(opt)
}

// Errs aggregates the failures of a RunAll pass into one error (nil when
// every experiment succeeded). Each failure is prefixed with its
// experiment id.
func Errs(results []Result) error {
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", r.Experiment.ID, r.Err))
		}
	}
	return errors.Join(errs...)
}

// Failures returns the subset of results that failed, in registry order.
func Failures(results []Result) []Result {
	var out []Result
	for _, r := range results {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}
