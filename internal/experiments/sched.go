package experiments

import (
	"repro/internal/cutlass"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/wmma"
)

// SchedSweep tables IPC per warp-scheduler policy across the CUTLASS GEMM
// grid — the scenario axis opened by the pluggable-scheduler refactor
// (DESIGN.md). Unlike the paper reproductions it has no figure
// counterpart; it documents how sensitive the simulated GEMMs are to the
// scheduling policy. Every (size, policy) cell is an independent launch
// on its own simulator, so the grid fans out across the worker pool like
// any other experiment. Options.Scheduler is deliberately ignored: the
// sweep is the policy axis itself.
func SchedSweep(opt Options) (*Table, error) {
	sizes := []int{256, 512, 1024}
	sms := 16
	kCap := 256 // steady-state throughput sampling, like fig17's kCap
	if opt.Quick {
		sizes = []int{128, 256}
		sms = 8
		kCap = 128
	}
	if opt.SMs > 0 {
		sms = opt.SMs
	}
	pols := gpu.Schedulers()
	base := opt.applyKnobs(scaledTitanV(sms))

	cols := []string{"size"}
	for _, p := range pols {
		cols = append(cols, p.String()+"_ipc")
	}
	t := &Table{ID: "sched", Title: "CUTLASS GEMM IPC by warp scheduler policy",
		Columns: cols}

	cells, perr, err := runPoints(opt, "sched", len(sizes)*len(pols), func(opt Options, i int) (float64, error) {
		n := sizes[i/len(pols)]
		cfg := base
		cfg.Scheduler = pols[i%len(pols)]
		k := min(n, kCap)
		l, err := cutlass.Build(cutlass.GemmConfig{
			Policy:    cutlass.TilePolicy{BlockM: 64, BlockN: 64, WarpM: 32, WarpN: 32, DoubleBuffer: true},
			Precision: kernels.TensorMixed, M: n, N: n, K: k,
		})
		if err != nil {
			return 0, err
		}
		st, err := opt.launchOn(cfg, l, gemmElems(wmma.F32), gemmDims(n, n, k), cfg.NumSMs*8, false)
		if err != nil {
			return 0, err
		}
		return st.IPC(), nil
	})
	if err != nil {
		return nil, err
	}
	for si, n := range sizes {
		row := []string{fmtI(uint64(n))}
		for pi := range pols {
			if i := si*len(pols) + pi; pointOK(perr, i) {
				row = append(row, fmtF(cells[i]))
			} else {
				row = append(row, errMark)
			}
		}
		t.AddRow(row...)
	}
	t.Note("gto (greedy-then-oldest) is the hardware default; twolevel keeps %d warps per sub-core active", base.TwoLevelActive)
	return t, pointFailures(t, "sched", perr)
}
