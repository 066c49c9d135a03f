package tcgpu

// The benchmark harness: one testing.B target per paper table and figure
// (run with `go test -bench=. -benchmem`; each regenerates the artifact
// in Quick mode and reports its headline number as a custom metric), plus
// ablation benchmarks for the design choices DESIGN.md calls out.

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/cutlass"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/ptx"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string, metric func(*experiments.Table) (string, float64)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb, err := RunExperiment(id, ExperimentOptions{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if metric != nil && i == b.N-1 {
			name, v := metric(tb)
			b.ReportMetric(v, name)
		}
	}
}

// noteNumber extracts the first float from the note containing substr.
func noteNumber(tb *experiments.Table, substr string) float64 {
	for _, n := range tb.Notes {
		if !strings.Contains(n, substr) {
			continue
		}
		for _, f := range strings.Fields(n) {
			f = strings.TrimSuffix(f, "%")
			if v, err := strconv.ParseFloat(f, 64); err == nil {
				return v
			}
		}
	}
	return 0
}

// lastCell parses the float in the given column of the last row.
func lastCell(tb *experiments.Table, col string) float64 {
	for i, c := range tb.Columns {
		if c == col {
			v, _ := strconv.ParseFloat(tb.Rows[len(tb.Rows)-1][i], 64)
			return v
		}
	}
	return 0
}

func BenchmarkFig7VoltaMappings(b *testing.B)  { benchExperiment(b, "fig7", nil) }
func BenchmarkFig8TuringMappings(b *testing.B) { benchExperiment(b, "fig8", nil) }

func BenchmarkFig9HMMACycles(b *testing.B) {
	benchExperiment(b, "fig9", func(tb *experiments.Table) (string, float64) {
		// Total mixed-precision latency: row 16's cumulative value.
		v, _ := strconv.ParseFloat(tb.Rows[15][4], 64)
		return "mixed_total_cycles", v
	})
}

func BenchmarkTableITuringCycles(b *testing.B) { benchExperiment(b, "tab1", nil) }
func BenchmarkTableIIOctets(b *testing.B)      { benchExperiment(b, "tab2", nil) }
func BenchmarkTableIIIOuterProducts(b *testing.B) {
	benchExperiment(b, "tab3", nil)
}
func BenchmarkFig10VoltaSubTiles(b *testing.B)  { benchExperiment(b, "fig10", nil) }
func BenchmarkFig11TuringSubTiles(b *testing.B) { benchExperiment(b, "fig11", nil) }

func BenchmarkFig12cWarpKnee(b *testing.B) {
	benchExperiment(b, "fig12c", func(tb *experiments.Table) (string, float64) {
		return "knee_ratio", noteNumber(tb, "knee at 4 warps")
	})
}

func BenchmarkFig14aCycleAccuracy(b *testing.B) {
	benchExperiment(b, "fig14a", func(tb *experiments.Table) (string, float64) {
		return "stddev_pct", noteNumber(tb, "relative deviation")
	})
}

func BenchmarkFig14bIPCCorrelation(b *testing.B) {
	benchExperiment(b, "fig14b", func(tb *experiments.Table) (string, float64) {
		return "correlation_pct", noteNumber(tb, "IPC correlation")
	})
}

func BenchmarkFig14cIPCvsSize(b *testing.B) {
	benchExperiment(b, "fig14c", func(tb *experiments.Table) (string, float64) {
		return "sim_over_hw", lastCell(tb, "sim/hw")
	})
}

func BenchmarkFig15LatencyDistribution(b *testing.B) {
	benchExperiment(b, "fig15", nil)
}

func BenchmarkFig16LatencyVsSize(b *testing.B) {
	benchExperiment(b, "fig16", func(tb *experiments.Table) (string, float64) {
		return "load_global_cycles", lastCell(tb, "load(gl)")
	})
}

func BenchmarkFig17TFLOPS(b *testing.B) {
	benchExperiment(b, "fig17", func(tb *experiments.Table) (string, float64) {
		return "tc_fp16_tflops", lastCell(tb, "CUBLAS_WITH_TC_FP16")
	})
}

// BenchmarkExperimentEngine quantifies the parallel experiment engine:
// the same fig17 grid sequentially and on the worker pool.
func BenchmarkExperimentEngine(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "sequential"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunExperiment("fig17", ExperimentOptions{Quick: true, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablation benchmarks (DESIGN.md) ----

// ablationRun measures cycles of the MMALoop workload under a modified
// configuration.
func ablationRun(b *testing.B, mod func(*gpu.Config)) uint64 {
	b.Helper()
	cfg := gpu.TitanV()
	cfg.NumSMs = 1
	if mod != nil {
		mod(&cfg)
	}
	l, err := kernels.MMALoop(kernels.TensorMixed, 4, 64, 2)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := gpu.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	st, err := sim.Run(gpu.LaunchSpec{
		Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
		Args: []uint64{0}, Global: ptx.NewFlatMemory(4096),
	})
	if err != nil {
		b.Fatal(err)
	}
	return st.Cycles
}

// BenchmarkAblationScheduler compares GTO against loose round-robin on a
// memory-plus-tensor workload.
func BenchmarkAblationScheduler(b *testing.B) {
	for _, pol := range []gpu.SchedulerPolicy{gpu.GTO, gpu.LRR} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = ablationRun(b, func(c *gpu.Config) { c.Scheduler = pol })
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationTCPerSubcore quantifies the paper's central inference:
// each warp drives two tensor cores; halving them should roughly halve
// HMMA throughput.
func BenchmarkAblationTCPerSubcore(b *testing.B) {
	for _, tcs := range []int{2, 1} {
		tcs := tcs
		b.Run(strconv.Itoa(tcs), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = ablationRun(b, func(c *gpu.Config) { c.TensorCoresPerSubCore = tcs })
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationReuseCache removes the operand reuse cache the .reuse
// SASS flags reveal.
func BenchmarkAblationReuseCache(b *testing.B) {
	for _, on := range []bool{true, false} {
		on := on
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = ablationRun(b, func(c *gpu.Config) { c.ReuseCache = on })
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationHMMAII stretches the HMMA initiation interval.
func BenchmarkAblationHMMAII(b *testing.B) {
	for _, scale := range []int{1, 2} {
		scale := scale
		b.Run(strconv.Itoa(scale), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = ablationRun(b, func(c *gpu.Config) { c.HMMAIIScale = scale })
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationDecodedALU quantifies the decoded-instruction cache:
// the same SIMT GEMM (the fig17 bottleneck workload) with the table-driven
// decoded dispatch versus the per-lane interpreted ALU path.
func BenchmarkAblationDecodedALU(b *testing.B) {
	for _, interp := range []bool{false, true} {
		interp := interp
		name := "decoded"
		if interp {
			name = "interpreted"
		}
		b.Run(name, func(b *testing.B) {
			defer ptx.SwapInterpretALU(interp)()
			for i := 0; i < b.N; i++ {
				l, err := kernels.SGEMMSimt(128, 128, 128)
				if err != nil {
					b.Fatal(err)
				}
				cfg := gpu.TitanV()
				cfg.NumSMs = 2
				sim, err := gpu.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(gpu.LaunchSpec{
					Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
					Args:   []uint64{0, 1 << 20, 2 << 20, 3 << 20},
					Global: ptx.NewFlatMemory(4 << 20),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBatchedMem quantifies the batched struct-of-arrays
// memory pipeline (ptx.LegacyAccessPath; DESIGN.md "Batched memory
// path") on the two memory-staging SIMT GEMMs whose per-lane load/store
// execution and conflict counting dominated the fig17 profile.
func BenchmarkAblationBatchedMem(b *testing.B) {
	workloads := []struct {
		name  string
		build func() (*kernels.Launch, error)
	}{
		{"sgemm", func() (*kernels.Launch, error) { return kernels.SGEMMSimt(128, 128, 128) }},
		{"hgemm", func() (*kernels.Launch, error) { return kernels.HGEMMSimt(64, 128, 128) }},
	}
	for _, w := range workloads {
		for _, legacy := range []bool{false, true} {
			legacy := legacy
			name := w.name + "/batched"
			if legacy {
				name = w.name + "/legacy"
			}
			b.Run(name, func(b *testing.B) {
				defer ptx.SwapLegacyAccessPath(legacy)()
				for i := 0; i < b.N; i++ {
					l, err := w.build()
					if err != nil {
						b.Fatal(err)
					}
					cfg := gpu.TitanV()
					cfg.NumSMs = 2
					sim, err := gpu.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := sim.Run(gpu.LaunchSpec{
						Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
						Args:   []uint64{0, 1 << 20, 2 << 20, 3 << 20},
						Global: ptx.NewFlatMemory(4 << 20),
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationBatchedWMMA quantifies the batched wmma fragment
// pipeline (ptx.LegacyFragmentPath; DESIGN.md "Batched fragment path")
// on the tensor-core GEMMs whose per-element gather/scatter and
// fragment data movement dominate once ld/st is batched: the
// shared-memory WMMA kernel in both accumulation modes (hgemm is the
// FP16-accumulate variant of the fig17 tensor series).
func BenchmarkAblationBatchedWMMA(b *testing.B) {
	// Deep-K tiles keep the launch wmma-dominated (every k-step stages
	// fragments through shared memory and issues an mma), so the
	// fragment-path delta is the measured quantity rather than dispatch
	// and drain overhead.
	workloads := []struct {
		name    string
		prec    kernels.GemmPrecision
		m, n, k int
	}{
		{"hgemm", kernels.TensorFP16, 64, 64, 512},
		{"mixed", kernels.TensorMixed, 64, 64, 512},
	}
	for _, w := range workloads {
		for _, legacy := range []bool{false, true} {
			legacy := legacy
			w := w
			name := w.name + "/batched"
			if legacy {
				name = w.name + "/legacy"
			}
			b.Run(name, func(b *testing.B) {
				defer ptx.SwapLegacyFragmentPath(legacy)()
				for i := 0; i < b.N; i++ {
					l, err := kernels.WMMAGemmShared(w.prec, w.m, w.n, w.k)
					if err != nil {
						b.Fatal(err)
					}
					cfg := gpu.TitanV()
					cfg.NumSMs = 2
					sim, err := gpu.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := sim.Run(gpu.LaunchSpec{
						Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
						Args:   []uint64{0, 1 << 20, 2 << 20, 3 << 20},
						Global: ptx.NewFlatMemory(4 << 20),
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationReadySet quantifies the event-driven ready-set
// scheduler against the legacy per-cycle full scan (the gpu.ScanScheduler
// knob; DESIGN.md). Two workloads: the fig17 quick grid — whose profile
// motivated the refactor, with Workers pinned to 1 so the comparison
// measures scheduler cost rather than pool occupancy — and a 1-SM
// high-occupancy SIMT GEMM (64 warps, 16 per sub-core) where warp
// scheduling dominates and the bookkeeping win is sharpest.
func BenchmarkAblationReadySet(b *testing.B) {
	workloads := []struct {
		name string
		run  func(b *testing.B)
	}{
		{"fig17", func(b *testing.B) {
			if _, err := RunExperiment("fig17", ExperimentOptions{Quick: true, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}},
		{"simt1sm", func(b *testing.B) {
			l, err := kernels.SGEMMSimt(256, 256, 64)
			if err != nil {
				b.Fatal(err)
			}
			cfg := gpu.TitanV()
			cfg.NumSMs = 1
			sim, err := gpu.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(gpu.LaunchSpec{
				Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
				Args:   []uint64{0, 1 << 20, 2 << 20, 3 << 20},
				Global: ptx.NewFlatMemory(4 << 20),
			}); err != nil {
				b.Fatal(err)
			}
		}},
	}
	for _, w := range workloads {
		for _, scan := range []bool{false, true} {
			scan := scan
			name := w.name + "/readyset"
			if scan {
				name = w.name + "/scan"
			}
			b.Run(name, func(b *testing.B) {
				defer gpu.SwapScanScheduler(scan)()
				for i := 0; i < b.N; i++ {
					w.run(b)
				}
			})
		}
	}
}

// BenchmarkAblationIssueSelect quantifies O(1) issue selection — the
// incrementally maintained issue order, the proactive scoreboard wake
// and the per-unit candidate masks with pick-one — against the legacy
// per-cycle scan, sort and full visit (the gpu.ScanScheduler knob;
// DESIGN.md "O(1) issue selection"). The
// workload is deliberately scheduler-bound: a 1-SM SIMT GEMM at maximum
// occupancy (8 CTAs, 64 warps, 16 per sub-core), where per-cycle
// candidate ordering is the dominant cost, run under each policy so the
// per-policy order structures all get a datapoint in the bench
// trajectory.
func BenchmarkAblationIssueSelect(b *testing.B) {
	for _, pol := range []gpu.SchedulerPolicy{gpu.GTO, gpu.LRR, gpu.TwoLevel} {
		for _, scan := range []bool{false, true} {
			pol, scan := pol, scan
			name := pol.String() + "/incremental"
			if scan {
				name = pol.String() + "/scan"
			}
			b.Run(name, func(b *testing.B) {
				defer gpu.SwapScanScheduler(scan)()
				var cycles uint64
				for i := 0; i < b.N; i++ {
					l, err := kernels.SGEMMSimt(256, 256, 64)
					if err != nil {
						b.Fatal(err)
					}
					cfg := gpu.TitanV()
					cfg.NumSMs = 1
					cfg.Scheduler = pol
					sim, err := gpu.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					st, err := sim.Run(gpu.LaunchSpec{
						Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
						Args:   []uint64{0, 1 << 20, 2 << 20, 3 << 20},
						Global: ptx.NewFlatMemory(4 << 20),
					})
					if err != nil {
						b.Fatal(err)
					}
					cycles = st.Cycles
				}
				b.ReportMetric(float64(cycles), "cycles")
			})
		}
	}
}

// BenchmarkAblationSchedPolicies runs the scheduler sweep itself — one
// iteration regenerates the sched table across all three policies.
func BenchmarkAblationSchedPolicies(b *testing.B) {
	benchExperiment(b, "sched", func(tb *experiments.Table) (string, float64) {
		return "gto_ipc", lastCell(tb, "gto_ipc")
	})
}

// BenchmarkAblationDoubleBuffer compares single- against double-buffered
// shared-memory staging in the CUTLASS kernel — the software-pipelining
// optimization the paper credits for cuBLAS beating plain WMMA code.
func BenchmarkAblationDoubleBuffer(b *testing.B) {
	for _, db := range []bool{false, true} {
		db := db
		name := "single"
		if db {
			name = "double"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				pol := cutlass.TilePolicy{BlockM: 64, BlockN: 64, WarpM: 32, WarpN: 32, DoubleBuffer: db}
				l, err := cutlass.Build(cutlass.GemmConfig{
					Policy: pol, Precision: kernels.TensorMixed, M: 64, N: 64, K: 512})
				if err != nil {
					b.Fatal(err)
				}
				cfg := gpu.TitanV()
				cfg.NumSMs = 1
				sim, err := gpu.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				st, err := sim.Run(gpu.LaunchSpec{
					Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
					Args:   []uint64{0, 1 << 20, 2 << 20, 3 << 20},
					Global: ptx.NewFlatMemory(4 << 20),
				})
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkGemmThroughput is the end-to-end library benchmark: a 256³
// mixed-precision GEMM through the public API.
func BenchmarkGemmThroughput(b *testing.B) {
	cfg := TitanVConfig()
	cfg.NumSMs = 8
	var tflops float64
	for i := 0; i < b.N; i++ {
		dev, err := NewDevice(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunGEMM(dev, GemmTensorMixed, 256, 256, 256)
		if err != nil {
			b.Fatal(err)
		}
		tflops = res.TFLOPS
	}
	b.ReportMetric(tflops, "sim_tflops")
}

// BenchmarkMMAFunctional measures the pure functional tensor-core tile
// multiply (no timing model).
func BenchmarkMMAFunctional(b *testing.B) {
	a := newBenchMatrix(16, 16)
	m := newBenchMatrix(16, 16)
	c := newBenchMatrix(16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MMA(a, m, c); err != nil {
			b.Fatal(err)
		}
	}
}

func newBenchMatrix(r, c int) *Matrix {
	m := NewMatrix(r, c)
	m.FillSequential()
	return m
}
