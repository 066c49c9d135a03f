package experiments

import (
	"errors"
	"sync/atomic"
	"testing"
)

// runPoints must visit every index exactly once, whatever the pool size,
// and hand each point's payload back in its slot.
func TestForEachCoverage(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 53
		var visits [53]atomic.Int32
		vals, _, err := runPoints(Options{Workers: workers}, "cover", n, func(_ Options, i int) (int, error) {
			visits[i].Add(1)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
			if vals[i] != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, vals[i], i*i)
			}
		}
	}
}

// runPoints must surface the lowest-indexed error, like a sequential
// run, named by its experiment and point.
func TestForEachError(t *testing.T) {
	boom3 := errors.New("boom 3")
	boom7 := errors.New("boom 7")
	_, _, err := runPoints(Options{Workers: 4}, "errs", 10, func(_ Options, i int) (struct{}, error) {
		switch i {
		case 3:
			return struct{}{}, boom3
		case 7:
			return struct{}{}, boom7
		}
		return struct{}{}, nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	// With a pool, index 7 may or may not run before the stop flag is
	// seen; whichever errors were recorded, the lowest index wins.
	if !errors.Is(err, boom3) && !errors.Is(err, boom7) {
		t.Fatalf("unexpected error %v", err)
	}
	// compute runs on a pool worker, off the test goroutine: no t.Fatalf.
	_, _, err = runPoints(Options{Workers: 1}, "errs", 10, func(_ Options, i int) (struct{}, error) {
		if i == 3 {
			return struct{}{}, boom3
		}
		if i > 3 {
			t.Errorf("sequential run continued past the error (i=%d)", i)
		}
		return struct{}{}, nil
	})
	if !errors.Is(err, boom3) || err.Error() != "errs point 3: boom 3" {
		t.Fatalf("sequential error = %v, want errs point 3: boom 3", err)
	}
}

// Parallel experiment runs must emit byte-identical tables whatever the
// worker count: every data point simulates on its own Simulator and the
// table is assembled in point order, so completion order must not leak
// into the output. The reference table comes from the per-process
// memoized quick run (runQuick) — the same simulation the other tests
// assert against — so each id here costs one extra simulation, not two.
func TestParallelDeterminism(t *testing.T) {
	ids := []string{"fig12c", "fig14a", "fig16", "fig14b"}
	if testing.Short() {
		ids = []string{"fig12c", "fig14a"}
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			ref := runQuick(t, id)
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			workers := 4
			par, err := e.Run(Options{Quick: true, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if ref.String() != par.String() {
				t.Errorf("parallel table differs from memoized reference:\n--- reference ---\n%s\n--- workers=%d ---\n%s",
					ref.String(), workers, par.String())
			}
		})
	}
}
