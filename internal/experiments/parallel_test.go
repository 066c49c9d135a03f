package experiments

import (
	"errors"
	"sync/atomic"
	"testing"
)

// forEach must visit every index exactly once, whatever the pool size.
func TestForEachCoverage(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 53
		var visits [53]atomic.Int32
		err := forEach(Options{Workers: workers}, n, func(_ Options, i int) error {
			visits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

// forEach must surface the lowest-indexed error, like a sequential run.
func TestForEachError(t *testing.T) {
	boom3 := errors.New("boom 3")
	boom7 := errors.New("boom 7")
	err := forEach(Options{Workers: 4}, 10, func(_ Options, i int) error {
		switch i {
		case 3:
			return boom3
		case 7:
			return boom7
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	// With a pool, index 7 may or may not run before the stop flag is
	// seen; whichever errors were recorded, the lowest index wins.
	if err != boom3 && err != boom7 {
		t.Fatalf("unexpected error %v", err)
	}
	// fn runs on a pool worker, off the test goroutine: no t.Fatalf.
	if err := forEach(Options{Workers: 1}, 10, func(_ Options, i int) error {
		if i == 3 {
			return boom3
		}
		if i > 3 {
			t.Errorf("sequential run continued past the error (i=%d)", i)
		}
		return nil
	}); err != boom3 {
		t.Fatalf("sequential error = %v, want boom 3", err)
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
