package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeExp builds a registry entry with a synthetic Run function, so the
// cross-experiment scheduler can be tested without simulating anything.
func fakeExp(id string, run func(Options) (*Table, error)) Experiment {
	return Experiment{ID: id, Paper: id, Title: "fake " + id, Run: run}
}

func fakeTable(id string) *Table {
	t := &Table{ID: id, Title: id, Columns: []string{"v"}}
	t.AddRow(id)
	return t
}

// RunAll must emit results in registry order even when later experiments
// finish first. Experiment a0 deliberately blocks until a2 has completed;
// the emit sequence must still be a0, a1, a2.
func TestRunAllStreamsInRegistryOrder(t *testing.T) {
	a2done := make(chan struct{})
	exps := []Experiment{
		fakeExp("a0", func(Options) (*Table, error) {
			<-a2done
			return fakeTable("a0"), nil
		}),
		fakeExp("a1", func(Options) (*Table, error) { return fakeTable("a1"), nil }),
		fakeExp("a2", func(Options) (*Table, error) {
			defer close(a2done)
			return fakeTable("a2"), nil
		}),
	}
	var order []string
	results := RunAll(exps, Options{Workers: 2}, func(r Result) {
		order = append(order, r.Experiment.ID)
	})
	if got, want := strings.Join(order, ","), "a0,a1,a2"; got != want {
		t.Errorf("emit order %s, want %s", got, want)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	for i, r := range results {
		if r.Err != nil || r.Table == nil || r.Table.ID != exps[i].ID {
			t.Errorf("result %d = %+v, want table %s", i, r, exps[i].ID)
		}
	}
	if err := Errs(results); err != nil {
		t.Errorf("unexpected aggregate error: %v", err)
	}
}

// A failing experiment must not suppress the others: every other table is
// still produced and the aggregate error names the failure.
func TestRunAllContinuesPastFailure(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{
		fakeExp("ok0", func(Options) (*Table, error) { return fakeTable("ok0"), nil }),
		fakeExp("bad", func(Options) (*Table, error) { return nil, boom }),
		fakeExp("panics", func(Options) (*Table, error) { panic("kaboom") }),
		fakeExp("ok1", func(Options) (*Table, error) { return fakeTable("ok1"), nil }),
	}
	emitted := 0
	results := RunAll(exps, Options{Workers: 2}, func(Result) { emitted++ })
	if emitted != len(exps) {
		t.Errorf("emit called %d times, want %d (failures must stream too)", emitted, len(exps))
	}
	if results[0].Err != nil || results[3].Err != nil {
		t.Errorf("healthy experiments failed: %v / %v", results[0].Err, results[3].Err)
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("result[1].Err = %v, want boom", results[1].Err)
	}
	// The error itself names the experiment, not just Errs' prefix: a
	// recover that drops the identity leaves an operator nothing to find.
	if err := results[2].Err; err == nil || !strings.Contains(err.Error(), "panics") || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("panicking experiment should surface as an error naming it and the panic, got %v", err)
	}
	err := Errs(results)
	if err == nil || !strings.Contains(err.Error(), "bad:") || !strings.Contains(err.Error(), "panics:") {
		t.Errorf("aggregate error %v should name both failures", err)
	}
	if got := Failures(results); len(got) != 2 || got[0].Experiment.ID != "bad" || got[1].Experiment.ID != "panics" {
		t.Errorf("Failures = %v, want [bad panics]", got)
	}
}

// The Workers budget must be global: with N experiments all fanning
// points through runPoints concurrently, no more than Workers points may
// ever run at once.
func TestRunAllGlobalWorkerBudget(t *testing.T) {
	const workers = 2
	var running, peak atomic.Int32
	point := func(Options, int) (struct{}, error) {
		cur := running.Add(1)
		defer running.Add(-1)
		for p := peak.Load(); cur > p; p = peak.Load() {
			if peak.CompareAndSwap(p, cur) {
				break
			}
		}
		// Give other points a chance to overlap if the budget were leaky.
		for i := 0; i < 1000; i++ {
			_ = i
		}
		return struct{}{}, nil
	}
	var exps []Experiment
	for i := 0; i < 6; i++ {
		exps = append(exps, fakeExp(fmt.Sprintf("e%d", i), func(opt Options) (*Table, error) {
			if _, _, err := runPoints(opt, "e", 40, point); err != nil {
				return nil, err
			}
			return fakeTable("e"), nil
		}))
	}
	results := RunAll(exps, Options{Workers: workers}, nil)
	if err := Errs(results); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrent points = %d, exceeds the global budget %d", got, workers)
	}
}

// A point failure inside one experiment stops that experiment (lowest-
// indexed error, like a sequential run) without disturbing the others
// sharing the pool.
func TestRunAllPointErrorIsolation(t *testing.T) {
	boom := errors.New("point 3 failed")
	exps := []Experiment{
		fakeExp("failing", func(opt Options) (*Table, error) {
			if _, _, err := runPoints(opt, "failing", 10, func(_ Options, i int) (struct{}, error) {
				if i == 3 {
					return struct{}{}, boom
				}
				return struct{}{}, nil
			}); err != nil {
				return nil, err
			}
			return fakeTable("failing"), nil
		}),
		fakeExp("healthy", func(opt Options) (*Table, error) {
			var sum atomic.Int64
			if _, _, err := runPoints(opt, "healthy", 100, func(_ Options, i int) (struct{}, error) {
				sum.Add(int64(i))
				return struct{}{}, nil
			}); err != nil {
				return nil, err
			}
			if sum.Load() != 4950 {
				return nil, fmt.Errorf("lost points: sum %d", sum.Load())
			}
			return fakeTable("healthy"), nil
		}),
	}
	results := RunAll(exps, Options{Workers: 3}, nil)
	if !errors.Is(results[0].Err, boom) {
		t.Errorf("failing experiment error = %v, want boom", results[0].Err)
	}
	if results[1].Err != nil {
		t.Errorf("healthy experiment failed: %v", results[1].Err)
	}
}

// Stress the shared pool under the race detector: many experiments, many
// points, all hammering per-experiment slot slices concurrently.
func TestRunAllSharedPoolStress(t *testing.T) {
	var exps []Experiment
	for e := 0; e < 8; e++ {
		exps = append(exps, fakeExp(fmt.Sprintf("s%d", e), func(opt Options) (*Table, error) {
			slots, _, err := runPoints(opt, "s", 64, func(_ Options, i int) (int, error) {
				return i * i, nil
			})
			if err != nil {
				return nil, err
			}
			tb := fakeTable("s")
			for i, v := range slots {
				if v != i*i {
					return nil, fmt.Errorf("slot %d = %d", i, v)
				}
			}
			return tb, nil
		}))
	}
	var mu sync.Mutex
	var emitted []string
	results := RunAll(exps, Options{Workers: 8}, func(r Result) {
		mu.Lock()
		emitted = append(emitted, r.Experiment.ID)
		mu.Unlock()
	})
	if err := Errs(results); err != nil {
		t.Fatal(err)
	}
	if len(emitted) != len(exps) {
		t.Errorf("emitted %d, want %d", len(emitted), len(exps))
	}
}

// Real experiments through the cross-experiment scheduler: the streamed
// tables must be byte-identical between a 1-worker and an N-worker pool,
// and identical to standalone runs.
func TestRunAllDeterminism(t *testing.T) {
	ids := []string{"fig12c", "fig14a"}
	var exps []Experiment
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	render := func(workers int) string {
		var b strings.Builder
		results := RunAll(exps, Options{Quick: true, Workers: workers}, func(r Result) {
			if r.Err != nil {
				t.Errorf("%s: %v", r.Experiment.ID, r.Err)
				return
			}
			b.WriteString(r.Table.String())
		})
		if err := Errs(results); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Errorf("cross-experiment output differs between worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}
	// And the shared-pool tables match the standalone engine's.
	var solo strings.Builder
	for _, id := range ids {
		solo.WriteString(runQuick(t, id).String())
	}
	if solo.String() != par {
		t.Errorf("shared-pool tables differ from standalone runs")
	}
}
