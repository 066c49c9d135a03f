package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// The fault-tolerant data-point engine. runPoints fans one experiment's
// points onto the run's pool (runner.go) and adds:
//
//   - per-point panic isolation and, under Options.KeepGoing, failure
//     isolation: a failing point becomes an annotated table cell
//     instead of discarding the experiment's remaining points
//   - cancellation: once the run's context is canceled no further
//     point starts
//   - the point's identity on the Options its compute receives, the
//     provenance a checkpoint record carries (checkpoint/resume itself
//     happens per launch, in launchOn)
//
// The simulator is deterministic, so a failed point fails the same way
// on every attempt: there is no retry.
//
// Every simulating experiment routes its point loop through runPoints,
// so the whole registry inherits the layer at once.

// errMark is the cell marker rendered for a failed data point when
// Options.KeepGoing preserves the rest of the table.
const errMark = "ERR!"

// PointError is one data point's failure, carrying its identity.
type PointError struct {
	Exp   string
	Index int
	Err   error
}

func (e PointError) Error() string {
	return fmt.Sprintf("%s point %d: %v", e.Exp, e.Index, e.Err)
}

func (e PointError) Unwrap() error { return e.Err }

// PointFailures aggregates the failed points of one experiment run
// under Options.KeepGoing. It is returned alongside the (partial)
// table, so RunAll's Result carries both.
type PointFailures struct {
	Points []PointError
}

func (e *PointFailures) Error() string {
	first := e.Points[0]
	if len(e.Points) == 1 {
		return fmt.Sprintf("1 data point failed: %v", first)
	}
	return fmt.Sprintf("%d data points failed (first: %v)", len(e.Points), first)
}

// AsPointFailures unwraps an experiment error into its per-point
// failures, if that is what it is.
func AsPointFailures(err error) (*PointFailures, bool) {
	var pf *PointFailures
	ok := errors.As(err, &pf)
	return pf, ok
}

// runPoints runs one experiment's n data points through the
// fault-tolerance layer and returns their payloads in index order.
//
// The points run on the option's pool, or on a transient pool of
// min(Workers, n) when it has none. compute receives the Options its
// point runs under: the caller's, with that pool and the point's
// identity. Its launches must go through that value — compute closures
// take it as opt, shadowing the experiment's — and it must confine its
// writes to the i-th slot of anything shared between points.
//
// The second return value is nil when every point succeeded; under
// Options.KeepGoing it holds per-point errors (indexed like vals, nil
// entries for successes). The third is the experiment-fatal error:
// without KeepGoing the lowest-indexed point failure, matching what a
// sequential run would surface, and in every mode cancellation. After
// a fatal error the points not yet started no-op; other experiments
// sharing the pool are unaffected.
func runPoints[T any](opt Options, expID string, n int, compute func(opt Options, i int) (T, error)) ([]T, []error, error) {
	if opt.pool == nil {
		p := newSharedPool(min(opt.workers(), n))
		defer p.close()
		opt.pool = p
	}
	ctx := opt.ctx()
	vals := make([]T, n)
	perr := make([]error, n)
	fatal := make([]error, n)
	var (
		wg           sync.WaitGroup
		stop, failed atomic.Bool
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		opt.pool.jobs <- func() {
			defer wg.Done()
			if stop.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				fatal[i] = PointError{Exp: expID, Index: i, Err: fmt.Errorf("not started: %w", err)}
				stop.Store(true)
				return
			}
			opt := opt
			opt.exp, opt.point = expID, i
			v, err := runPoint(opt, compute)
			switch {
			case err == nil:
				vals[i] = v
			case opt.KeepGoing && ctx.Err() == nil:
				perr[i] = err
				failed.Store(true)
			default:
				// Cancellation trumps keep-going: an interrupted point
				// is not a bad cell, it is the run shutting down.
				fatal[i] = PointError{Exp: expID, Index: i, Err: err}
				stop.Store(true)
			}
		}
	}
	wg.Wait()
	for _, err := range fatal {
		if err != nil {
			return nil, nil, err
		}
	}
	if failed.Load() {
		return vals, perr, nil
	}
	return vals, nil, nil
}

// runPoint runs one point with panic isolation: the test hook first,
// then the real computation.
func runPoint[T any](opt Options, compute func(Options, int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: %s point %d panicked: %v", opt.exp, opt.point, r)
		}
	}()
	if opt.pointHook != nil {
		if err := opt.pointHook(opt.exp, opt.point); err != nil {
			return v, err
		}
	}
	return compute(opt, opt.point)
}

// pointFailures folds per-point errors into the experiment's aggregate
// error and annotates the table with one note per failed cell, so a
// keep-going table documents its own holes. Returns nil when perr is
// nil or empty of failures.
func pointFailures(t *Table, expID string, perr []error) error {
	if perr == nil {
		return nil
	}
	var pf PointFailures
	for i, err := range perr {
		if err != nil {
			pf.Points = append(pf.Points, PointError{Exp: expID, Index: i, Err: err})
		}
	}
	if len(pf.Points) == 0 {
		return nil
	}
	for _, p := range pf.Points {
		t.Note("%s cell: point %d failed: %v", errMark, p.Index, p.Err)
	}
	return &pf
}

// pointOK reports whether point i completed (perr nil or no entry).
func pointOK(perr []error, i int) bool {
	return perr == nil || perr[i] == nil
}

// errRow returns a row of errMark cells for a failed point, after the
// given label cells.
func errRow(labels []string, width int) []string {
	row := append([]string{}, labels...)
	for len(row) < width {
		row = append(row, errMark)
	}
	return row
}
