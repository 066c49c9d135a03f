package experiments

import (
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/ptx"
)

// TestConcurrentSimulatorsRace is the race-detector witness for the
// frozen-state contract: N simulators execute the SAME kernel — and
// therefore share one decoded program, its fragment plans and the wmma
// mappings behind them — concurrently. internal/gpu's concurrency test
// builds a kernel per goroutine, so only this test catches a write
// slipping into the shared decoded artifacts after construction. Run
// with -race; the stats comparison additionally pins determinism.
func TestConcurrentSimulatorsRace(t *testing.T) {
	const goroutines = 8
	l, err := kernels.MMALoop(kernels.TensorMixed, 4, 16, 2)
	if err != nil {
		t.Fatal(err)
	}

	run := func() (*gpu.Stats, error) {
		cfg := gpu.TitanV()
		cfg.NumSMs = 2
		sim, err := gpu.New(cfg)
		if err != nil {
			return nil, err
		}
		// The launch spec shares l.Kernel (and its decoded program);
		// only the memory image is per-goroutine.
		return sim.Run(gpu.LaunchSpec{
			Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
			Args: []uint64{0}, Global: ptx.NewFlatMemory(4096),
		})
	}

	stats := make([]*gpu.Stats, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stats[g], errs[g] = run()
		}(g)
	}
	wg.Wait()

	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	first := stats[0]
	if first.Cycles == 0 || first.TensorOps == 0 {
		t.Fatalf("degenerate run: %+v", first)
	}
	for g, st := range stats[1:] {
		if st.Cycles != first.Cycles || st.WarpInstructions != first.WarpInstructions ||
			st.TensorOps != first.TensorOps {
			t.Errorf("goroutine %d diverged: cycles %d vs %d, instrs %d vs %d",
				g+1, st.Cycles, first.Cycles, st.WarpInstructions, first.WarpInstructions)
		}
	}
}

// TestRunAllWorkersRace drives the same contract through the production
// path: RunAll fans real registry experiments over a shared worker pool,
// so concurrent simulators inside one experiment and across experiments
// all draw on the shared decoded caches at once.
func TestRunAllWorkersRace(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two registry experiments")
	}
	byID := map[string]Experiment{}
	for _, e := range All() {
		byID[e.ID] = e
	}
	exps := []Experiment{byID["fig9"], byID["tab1"]}
	results := RunAll(exps, Options{Quick: true, Workers: 4}, nil)
	if err := Errs(results); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Table == nil || len(r.Table.Rows) == 0 {
			t.Errorf("%s: empty table", r.Experiment.ID)
		}
	}
}
