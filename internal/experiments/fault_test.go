package experiments

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/ptx"
)

// The fault-tolerance integration suite. fig12c in Quick mode is the
// workhorse grid: 8 cheap one-SM points, so an every-boundary resume
// sweep stays in the tens of milliseconds.

// faultAt returns a pointHook that runs fault at point i of experiment
// exp and leaves every other point alone.
func faultAt(exp string, i int, fault func() error) func(string, int) error {
	return func(e string, j int) error {
		if e == exp && j == i {
			return fault()
		}
		return nil
	}
}

func injectPanic() error { panic("injected panic") }

// hangKernel builds an infinite-loop kernel: a single warp spinning on
// an unconditional branch, the malformed workload the cycle-budget
// watchdog exists to reap.
func hangKernel() (*ptx.Kernel, error) {
	b := ptx.NewBuilder("hang")
	b.Label("spin")
	b.Bra("spin")
	b.Exit()
	return b.Build()
}

// runHang simulates the infinite-loop kernel on a one-SM slice under
// the run's cycle budget and cancellation context. With the watchdog
// off it spins until the 4e9-cycle backstop — exactly the hang the
// MaxCycles option exists to bound — so tests always set MaxCycles.
func runHang(o Options) error {
	k, err := hangKernel()
	if err != nil {
		return err
	}
	cfg := gpu.TitanV()
	cfg.NumSMs = 1
	sim, err := gpu.New(cfg)
	if err != nil {
		return err
	}
	_, err = sim.Run(gpu.LaunchSpec{
		Kernel:    k,
		Grid:      ptx.Dim3{X: 1, Y: 1, Z: 1},
		Block:     ptx.Dim3{X: 32, Y: 1, Z: 1},
		Global:    newZeroMemory(),
		MaxCycles: o.MaxCycles,
		Ctx:       o.Ctx,
	})
	if err == nil {
		return errors.New("hang kernel finished, which should be impossible")
	}
	return err
}

// A panicking data point must surface as that point's error — never a
// process crash — on a bare Run's transient pool of one worker and of
// four (RunAll's pool is covered by TestWatchdogSharedPool and
// runall_test.go).
func TestPanicPointSurfacesAsError(t *testing.T) {
	e, err := ByID("fig12c")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opt := Options{Quick: true, Workers: workers,
			pointHook: faultAt("fig12c", 2, injectPanic)}
		tb, err := e.Run(opt)
		if err == nil || tb != nil {
			t.Fatalf("workers=%d: Run = (%v, %v), want a point-2 panic error", workers, tb, err)
		}
		if !strings.Contains(err.Error(), "point 2 panicked") {
			t.Errorf("workers=%d: error %q does not carry the point identity", workers, err)
		}
	}
}

// Under KeepGoing a failing point becomes an annotated errMark cell;
// the other points' rows match an uninterrupted run and the aggregated
// error names exactly the failed point.
func TestKeepGoingIsolatesFailedPoint(t *testing.T) {
	ref := runQuick(t, "fig12c")
	e, err := ByID("fig12c")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := e.Run(Options{Quick: true, Workers: 1, KeepGoing: true,
		pointHook: faultAt("fig12c", 2, injectPanic)})
	if tb == nil {
		t.Fatalf("KeepGoing discarded the table: %v", err)
	}
	pf, ok := AsPointFailures(err)
	if !ok || len(pf.Points) != 1 || pf.Points[0].Index != 2 {
		t.Fatalf("error %v, want PointFailures{point 2}", err)
	}
	for i, row := range tb.Rows {
		if i == 2 {
			if row[1] != errMark {
				t.Errorf("failed point's row = %v, want %s cells", row, errMark)
			}
			continue
		}
		for c := range row {
			if row[c] != ref.Rows[i][c] {
				t.Errorf("row %d cell %d = %q, want %q (healthy points must match)", i, c, row[c], ref.Rows[i][c])
			}
		}
	}
	if !strings.Contains(tb.String(), errMark) {
		t.Error("rendered table does not mark the failed cell")
	}
}

// An injected infinite-loop kernel is reaped by the cycle-budget
// watchdog and, under KeepGoing, costs exactly its own cell.
func TestHangReapedByWatchdog(t *testing.T) {
	e, err := ByID("fig12c")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Quick: true, Workers: 1, KeepGoing: true, MaxCycles: 10_000}
	opt.pointHook = faultAt("fig12c", 0, func() error { return runHang(opt) })
	tb, err := e.Run(opt)
	if tb == nil {
		t.Fatalf("KeepGoing discarded the table: %v", err)
	}
	pf, ok := AsPointFailures(err)
	if !ok || len(pf.Points) != 1 || pf.Points[0].Index != 0 {
		t.Fatalf("error %v, want PointFailures{point 0}", err)
	}
	if !errors.Is(pf.Points[0], gpu.ErrCycleBudget) {
		t.Fatalf("hang point failed with %v, want gpu.ErrCycleBudget", pf.Points[0].Err)
	}
}

// A hanging experiment on the shared pool must not stall the others:
// fig12c's injected hang is reaped by the watchdog while fig9 (sharing
// the pool) still produces its table.
func TestWatchdogSharedPool(t *testing.T) {
	hang, err := ByID("fig12c")
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := ByID("fig9")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Quick: true, Workers: 2, MaxCycles: 10_000}
	opt.pointHook = faultAt("fig12c", 0, func() error { return runHang(opt) })
	results := RunAll([]Experiment{hang, healthy}, opt, nil)
	if !errors.Is(results[0].Err, gpu.ErrCycleBudget) {
		t.Errorf("hanging experiment: %v, want gpu.ErrCycleBudget", results[0].Err)
	}
	if results[1].Err != nil || results[1].Table == nil {
		t.Errorf("healthy experiment was dragged down: %v", results[1].Err)
	}
}

// The acceptance test: kill the run at EVERY point boundary of the
// fig12c grid, resume from the checkpoint, and require the resumed
// table to be byte-identical to an uninterrupted run — with exactly the
// pre-kill points replayed rather than re-simulated.
func TestResumeEquivalenceEveryBoundary(t *testing.T) {
	ref := runQuick(t, "fig12c")
	e, err := ByID("fig12c")
	if err != nil {
		t.Fatal(err)
	}
	const n = 8 // fig12c's quick grid
	for b := 0; b <= n; b++ {
		path := filepath.Join(t.TempDir(), "ckpt")

		// Interrupted run: the injected kill cancels the run context at
		// point b, exactly like a signal would.
		j, err := OpenJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		kill := func() error {
			cancel()
			return fmt.Errorf("killed at point %d: %w", b, context.Canceled)
		}
		_, runErr := e.Run(Options{Quick: true, Workers: 1, Ctx: ctx,
			Journal: j, pointHook: faultAt("fig12c", b, kill)})
		cancel()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if b < n && runErr == nil {
			t.Fatalf("boundary %d: killed run reported success", b)
		}

		// Resumed run: no faults, same identity knobs.
		j2, err := OpenJournal(path, true)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := e.Run(Options{Quick: true, Workers: 1, Journal: j2})
		if err != nil {
			t.Fatalf("boundary %d: resume failed: %v", b, err)
		}
		if tb.String() != ref.String() {
			t.Fatalf("boundary %d: resumed table differs from the uninterrupted run", b)
		}
		if _, replayed := j2.Stats(); replayed != b {
			t.Errorf("boundary %d: replayed %d points, want %d", b, replayed, b)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Resume is worker-count independent: a checkpoint written sequentially
// replays byte-identically on a parallel pool, and pool workers writing
// the journal concurrently (run with -race) produce a checkpoint that
// replays byte-identically too.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	ref := runQuick(t, "fig12c")
	e, err := ByID("fig12c")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(Options{Quick: true, Workers: 4, Journal: j}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	tb, err := e.Run(Options{Quick: true, Workers: 2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if tb.String() != ref.String() {
		t.Error("table resumed from a parallel-written checkpoint differs")
	}
	if points, replayed := j2.Stats(); points != 8 || replayed != 8 {
		t.Errorf("Stats = (%d, %d), want every point replayed (8, 8)", points, replayed)
	}
}

// Cancellation beats KeepGoing: an interrupted point is the run
// shutting down, not a bad cell to annotate.
func TestCancellationTrumpsKeepGoing(t *testing.T) {
	e, err := ByID("fig12c")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tb, err := e.Run(Options{Quick: true, Workers: 1, KeepGoing: true, Ctx: ctx})
	if err == nil || tb != nil {
		t.Fatalf("canceled run = (%v, %v), want an error and no table", tb, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run error = %v, want context.Canceled in the chain", err)
	}
}
