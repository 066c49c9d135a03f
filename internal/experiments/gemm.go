package experiments

import (
	"fmt"

	"repro/internal/cutlass"
	"repro/internal/gpu"
	"repro/internal/hwproxy"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/wmma"
)

// GEMM-scale experiments: Section V's evaluation (Figures 14–17).
//
// Every point loop routes through runPoints (points.go), so the whole
// section inherits keep-going failure isolation, and every launch goes
// through launchOn's memo and checkpoint journal.

// gemmDims returns the operand allocation dims for an m×n×k GEMM launch
// with args (a, b, c, d).
func gemmDims(m, n, k int) [][2]int {
	return [][2]int{{m, k}, {k, n}, {m, n}, {m, n}}
}

func gemmElems(cd wmma.Precision) []wmma.Precision {
	return []wmma.Precision{wmma.F16, wmma.F16, cd, cd}
}

// Fig14a compares simulated cycles of the shared-memory WMMA GEMM against
// the hardware proxy as matrix size varies, reporting the relative
// deviation the paper quotes as "a standard deviation of less than 5%".
func Fig14a(opt Options) (*Table, error) {
	sizes := []int{32, 64, 128, 160, 192, 224, 256, 288, 320, 384, 480, 512}
	sms := 80
	if opt.Quick {
		sizes = []int{32, 64, 128}
		sms = 16
	}
	if opt.SMs > 0 {
		sms = opt.SMs
	}
	cfg, err := opt.titanV(sms)
	if err != nil {
		return nil, err
	}
	proxy := hwproxy.TitanV().Scale(cfg.NumSMs)

	t := &Table{ID: "fig14a", Title: "WMMA GEMM kernel cycles vs matrix size (simulator vs hardware proxy)",
		Columns: []string{"size", "sim_cycles", "hw_cycles", "sim/hw"}}
	type point struct {
		Cycles uint64
		HW     float64
	}
	pts, perr, err := runPoints(opt, "fig14a", len(sizes), func(opt Options, i int) (point, error) {
		n := sizes[i]
		l, err := kernels.WMMAGemmShared(kernels.TensorMixed, n, n, n)
		if err != nil {
			return point{}, err
		}
		st, err := opt.launchOn(cfg, l, gemmElems(wmma.F32), gemmDims(n, n, n), 0, false)
		if err != nil {
			return point{}, err
		}
		return point{st.Cycles, proxy.Cycles(hwproxy.GemmSpec{M: n, N: n, K: n, Kind: hwproxy.TensorCore,
			BlockM: 32, BlockN: 32, CBytes: 4})}, nil
	})
	if err != nil {
		return nil, err
	}
	var ratios, simSeries, hwSeries []float64
	for i, p := range pts {
		if !pointOK(perr, i) {
			t.AddRow(errRow([]string{fmtI(uint64(sizes[i]))}, len(t.Columns))...)
			continue
		}
		ratio := float64(p.Cycles) / p.HW
		ratios = append(ratios, ratio)
		simSeries = append(simSeries, float64(p.Cycles))
		hwSeries = append(hwSeries, p.HW)
		t.AddRow(fmtI(uint64(sizes[i])), fmtI(p.Cycles), fmtF(p.HW), fmtF(ratio))
	}
	if len(ratios) > 0 {
		t.Note("relative deviation stddev = %.1f%% (paper: < 5%%)", 100*stats.StdDev(ratios)/stats.Mean(ratios))
		t.Note("cycle-count correlation = %.2f%%", 100*stats.Correlation(simSeries, hwSeries))
	}
	return t, pointFailures(t, "fig14a", perr)
}

// cutlassPoint runs one CUTLASS configuration on the simulator and the
// proxy, returning (hwIPC, simIPC).
func cutlassPoint(opt Options, cfg gpu.Config, proxy hwproxy.Model, c cutlass.GemmConfig, maxCTAs int) (float64, float64, error) {
	l, err := cutlass.Build(c)
	if err != nil {
		return 0, 0, err
	}
	cd := wmma.F32
	cb := 4
	if c.Precision == kernels.TensorFP16 {
		cd = wmma.F16
		cb = 2
	}
	st, err := opt.launchOn(cfg, l, gemmElems(cd), gemmDims(c.M, c.N, c.K), maxCTAs, false)
	if err != nil {
		return 0, 0, err
	}
	// Scale sampled instruction counts back to the full problem.
	scale := float64(st.CTAsTotal) / float64(st.CTAsSimulated)
	totalInstr := uint64(float64(st.WarpInstructions) * scale)
	hwIPC := proxy.IPC(totalInstr, hwproxy.GemmSpec{
		M: c.M, N: c.N, K: c.K, Kind: hwproxy.TensorCore,
		BlockM: c.Policy.BlockM, BlockN: c.Policy.BlockN, CBytes: cb,
	})
	return hwIPC, st.IPC(), nil
}

// Fig14b sweeps CUTLASS configurations and reports the IPC correlation —
// the paper's 99.6 % headline.
func Fig14b(opt Options) (*Table, error) {
	type point struct {
		c cutlass.GemmConfig
	}
	policies := cutlass.DefaultPolicies()
	sizes := []int{128, 256, 384, 512, 640}
	sms := 80
	if opt.Quick {
		sizes = []int{128, 256}
		policies = policies[:2]
		sms = 16
	}
	if opt.SMs > 0 {
		sms = opt.SMs
	}
	cfg, err := opt.titanV(sms)
	if err != nil {
		return nil, err
	}
	proxy := hwproxy.TitanV().Scale(cfg.NumSMs)

	var pts []point
	for _, pol := range policies {
		for _, prec := range []kernels.GemmPrecision{kernels.TensorMixed, kernels.TensorFP16} {
			for _, n := range sizes {
				if n%pol.BlockM != 0 || n%pol.BlockN != 0 {
					continue
				}
				pts = append(pts, point{cutlass.GemmConfig{Policy: pol, Precision: prec, M: n, N: n, K: n}})
			}
		}
	}
	t := &Table{ID: "fig14b", Title: "CUTLASS GEMM IPC: simulator vs hardware proxy",
		Columns: []string{"config", "hw_ipc", "sim_ipc"}}
	type ipcPoint struct{ HW, Sim float64 }
	res, perr, err := runPoints(opt, "fig14b", len(pts), func(opt Options, i int) (ipcPoint, error) {
		hw, sim, err := cutlassPoint(opt, cfg, proxy, pts[i].c, 0)
		if err != nil {
			return ipcPoint{}, err
		}
		return ipcPoint{hw, sim}, nil
	})
	if err != nil {
		return nil, err
	}
	var hws, sims []float64
	for i, r := range res {
		if !pointOK(perr, i) {
			t.AddRow(errRow([]string{pts[i].c.String()}, len(t.Columns))...)
			continue
		}
		hws = append(hws, r.HW)
		sims = append(sims, r.Sim)
		t.AddRow(pts[i].c.String(), fmtF(r.HW), fmtF(r.Sim))
	}
	if len(hws) > 0 {
		corr := stats.Correlation(hws, sims)
		t.Note("IPC correlation = %.2f%% over %d kernels (paper: 99.6%%)", 100*corr, len(hws))
	}
	return t, pointFailures(t, "fig14b", perr)
}

// Fig14c plots CUTLASS IPC against matrix size for the simulator and the
// proxy, reproducing the trend that the simulator's relative performance
// rises with matrix size.
func Fig14c(opt Options) (*Table, error) {
	sizes := []int{128, 256, 512, 768, 1024, 2048}
	sms := 80
	maxCTAs := 0
	if opt.Quick {
		sizes = []int{128, 256}
		sms = 16
	}
	if opt.SMs > 0 {
		sms = opt.SMs
	}
	cfg, err := opt.titanV(sms)
	if err != nil {
		return nil, err
	}
	proxy := hwproxy.TitanV().Scale(cfg.NumSMs)
	pol := cutlass.DefaultPolicies()[1] // 64×64 block, 32×32 warp

	t := &Table{ID: "fig14c", Title: "CUTLASS GEMM IPC vs matrix size",
		Columns: []string{"size", "hw_ipc", "sim_ipc", "sim/hw"}}
	type ipcPoint struct{ HW, Sim float64 }
	res, perr, err := runPoints(opt, "fig14c", len(sizes), func(opt Options, i int) (ipcPoint, error) {
		n := sizes[i]
		cap := maxCTAs
		if n >= 1024 {
			cap = cfg.NumSMs * 12 // sample ~a wave of CTAs for the largest sizes
		}
		hw, sim, err := cutlassPoint(opt, cfg, proxy, cutlass.GemmConfig{
			Policy: pol, Precision: kernels.TensorMixed, M: n, N: n, K: n}, cap)
		if err != nil {
			return ipcPoint{}, err
		}
		return ipcPoint{hw, sim}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		if !pointOK(perr, i) {
			t.AddRow(errRow([]string{fmtI(uint64(sizes[i]))}, len(t.Columns))...)
			continue
		}
		t.AddRow(fmtI(uint64(sizes[i])), fmtF(r.HW), fmtF(r.Sim), fmtF(r.Sim/r.HW))
	}
	t.Note("the paper's Figure 14c shows GPGPU-Sim trending above hardware as size grows")
	return t, pointFailures(t, "fig14c", perr)
}

// fig15Row is one op's latency summary, derived from the launch's trace.
type fig15Row struct {
	Count              int
	Min, Med, P95, Max float64
}

// Fig15 profiles the latency distribution of the three wmma instructions
// during a shared-memory WMMA GEMM.
func Fig15(opt Options) (*Table, error) {
	n := 1024
	sms := 80
	if opt.Quick {
		n = 256
		sms = 16
	}
	if opt.SMs > 0 {
		sms = opt.SMs
	}
	cfg, err := opt.titanV(sms)
	if err != nil {
		return nil, err
	}
	l, err := cutlass.Build(cutlass.GemmConfig{
		Policy:    cutlass.DefaultPolicies()[1], // 64×64 block, 32×32 warp
		Precision: kernels.TensorMixed, M: n, N: n, K: n,
	})
	if err != nil {
		return nil, err
	}
	maxCTAs := cfg.NumSMs * 8
	// A single simulation, but still routed through runPoints so RunAll's
	// shared pool budget and keep-going cover it like every other data
	// point.
	rows, perr, err := runPoints(opt, "fig15", 1, func(opt Options, _ int) ([3]fig15Row, error) {
		st, err := opt.launchOn(cfg, l, gemmElems(wmma.F32), gemmDims(n, n, n), maxCTAs, true)
		if err != nil {
			return [3]fig15Row{}, err
		}
		var out [3]fig15Row
		for k, xs := range [][]float64{st.Trace.WmmaLoad, st.Trace.WmmaMMA, st.Trace.WmmaStore} {
			out[k] = fig15Row{len(xs), stats.Min(xs), stats.Median(xs),
				stats.Percentile(xs, 95), stats.Max(xs)}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig15", Title: fmt.Sprintf("wmma latency distribution, %d×%d shared-memory GEMM", n, n),
		Columns: []string{"op", "count", "min", "median", "p95", "max"}}
	names := []string{"wmma.load", "wmma.mma", "wmma.store"}
	for k, name := range names {
		if !pointOK(perr, 0) {
			t.AddRow(errRow([]string{name}, len(t.Columns))...)
			continue
		}
		r := rows[0][k]
		t.AddRow(name, fmtI(uint64(r.Count)), fmtF(r.Min), fmtF(r.Med), fmtF(r.P95), fmtF(r.Max))
	}
	t.Note("paper minimums: load 125, mma 70, store 120 cycles; occasional high outliers from scheduling and memory traffic")
	return t, pointFailures(t, "fig15", perr)
}

// Fig16 plots median wmma latencies against matrix size for the
// shared-memory and global-memory (naive) WMMA GEMMs.
func Fig16(opt Options) (*Table, error) {
	sizes := []int{64, 128, 256, 512, 1024, 2048, 4096}
	sms := 80
	if opt.Quick {
		sizes = []int{64, 128, 256}
		sms = 16
	}
	if opt.SMs > 0 {
		sms = opt.SMs
	}
	cfg, err := opt.titanV(sms)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig16", Title: "Median wmma latency vs matrix size (shared vs global operands)",
		Columns: []string{"size", "load(sh)", "load(gl)", "mma(sh)", "mma(gl)", "store(sh)", "store(gl)"}}
	rows, perr, err := runPoints(opt, "fig16", len(sizes), func(opt Options, i int) ([6]float64, error) {
		n := sizes[i]
		maxCTAs := cfg.NumSMs * 8
		shared, err := cutlass.Build(cutlass.GemmConfig{
			Policy:    cutlass.DefaultPolicies()[1],
			Precision: kernels.TensorMixed, M: n, N: n, K: n,
		})
		if err != nil {
			return [6]float64{}, err
		}
		stSh, err := opt.launchOn(cfg, shared, gemmElems(wmma.F32), gemmDims(n, n, n), maxCTAs, true)
		if err != nil {
			return [6]float64{}, err
		}
		naive, err := kernels.WMMAGemmNaive(kernels.TensorMixed, n, n, n)
		if err != nil {
			return [6]float64{}, err
		}
		stGl, err := opt.launchOn(cfg, naive, gemmElems(wmma.F32), gemmDims(n, n, n), maxCTAs*4, true)
		if err != nil {
			return [6]float64{}, err
		}
		return [6]float64{
			stats.Median(stSh.Trace.WmmaLoad), stats.Median(stGl.Trace.WmmaLoad),
			stats.Median(stSh.Trace.WmmaMMA), stats.Median(stGl.Trace.WmmaMMA),
			stats.Median(stSh.Trace.WmmaStore), stats.Median(stGl.Trace.WmmaStore),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if !pointOK(perr, i) {
			t.AddRow(errRow([]string{fmtI(uint64(sizes[i]))}, len(t.Columns))...)
			continue
		}
		t.AddRow(fmtI(uint64(sizes[i])),
			fmtF(r[0]), fmtF(r[1]), fmtF(r[2]), fmtF(r[3]), fmtF(r[4]), fmtF(r[5]))
	}
	t.Note("shared-memory loads stay flat while global-operand loads grow with size — the paper reports >100× at large sizes")
	return t, pointFailures(t, "fig16", perr)
}

// fig17Series describes one line of Figure 17.
type fig17Series struct {
	name  string
	build func(m, n, k int) (*kernels.Launch, error)
	cd    wmma.Precision
	// kCap limits the simulated K depth (steady-state throughput
	// sampling); 0 = full depth.
	kCap int
}

// Fig17 measures TFLOPS for every GEMM implementation across sizes.
func Fig17(opt Options) (*Table, error) {
	sizes := []int{256, 512, 1024, 2048, 4096, 8192, 16384}
	sms := 16 // chip-slice substitution; throughput is per-SM intensive
	if opt.Quick {
		sizes = []int{256, 512}
		sms = 8
	}
	if opt.SMs > 0 {
		sms = opt.SMs
	}
	cfg, err := opt.titanV(sms)
	if err != nil {
		return nil, err
	}
	scale := float64(gpu.TitanV().NumSMs) / float64(cfg.NumSMs)

	cublasLike := func(prec kernels.GemmPrecision) func(m, n, k int) (*kernels.Launch, error) {
		return func(m, n, k int) (*kernels.Launch, error) {
			return cutlass.Build(cutlass.GemmConfig{
				Policy:    cutlass.TilePolicy{BlockM: 128, BlockN: 64, WarpM: 32, WarpN: 32, DoubleBuffer: true},
				Precision: prec, M: m, N: n, K: k,
			})
		}
	}
	series := []fig17Series{
		{"CUBLAS_WO_TC_FP32", func(m, n, k int) (*kernels.Launch, error) { return kernels.SGEMMSimt(m, n, k) }, wmma.F32, 256},
		{"CUBLAS_WO_TC_FP16", func(m, n, k int) (*kernels.Launch, error) { return kernels.HGEMMSimt(m, n, k) }, wmma.F16, 256},
		{"WMMA_OPTIMIZED", func(m, n, k int) (*kernels.Launch, error) {
			return kernels.WMMAGemmShared(kernels.TensorFP16, m, n, k)
		}, wmma.F16, 512},
		{"CUBLAS_WITH_TC_FP32", cublasLike(kernels.TensorMixed), wmma.F32, 512},
		{"CUBLAS_WITH_TC_FP16", cublasLike(kernels.TensorFP16), wmma.F16, 512},
	}

	cols := []string{"size"}
	for _, s := range series {
		cols = append(cols, s.name)
	}
	cols = append(cols, "MAX_PERF_FP16", "THEORETICAL")
	t := &Table{ID: "fig17", Title: "Tensor core performance on the simulated Titan V (TFLOPS)",
		Columns: cols}

	peak := gpu.TitanV().PeakTensorTFLOPS()

	// One job per (size, series) cell, plus a final job for the MAX PERF
	// microbenchmark — every cell is an independent launch on its own
	// simulator, so the whole grid fans out across the worker pool.
	nCells := len(sizes) * len(series)
	cells, perr, err := runPoints(opt, "fig17", nCells+1, func(opt Options, i int) (float64, error) {
		if i == nCells {
			return fig17MaxPerf(cfg, scale, opt)
		}
		n := sizes[i/len(series)]
		s := series[i%len(series)]
		k := n
		if s.kCap > 0 && k > s.kCap && !opt.Quick {
			k = s.kCap
		} else if opt.Quick && k > 256 {
			k = 256
		}
		l, err := s.build(n, n, k)
		if err != nil {
			return 0, err
		}
		maxCTAs := cfg.NumSMs * 8
		st, err := opt.launchOn(cfg, l, gemmElems(s.cd), gemmDims(n, n, k), maxCTAs, false)
		if err != nil {
			return 0, err
		}
		sampled := l.FLOPs * float64(st.CTAsSimulated) / float64(st.CTAsTotal)
		return sampled / st.Seconds(cfg) / 1e12 * scale, nil
	})
	if err != nil {
		return nil, err
	}
	cell := func(i int) string {
		if !pointOK(perr, i) {
			return errMark
		}
		return fmtF(cells[i])
	}
	for si, n := range sizes {
		row := []string{fmtI(uint64(n))}
		for ci := range series {
			row = append(row, cell(si*len(series)+ci))
		}
		row = append(row, cell(nCells), fmtF(peak))
		t.AddRow(row...)
	}
	t.Note("simulated on a %d-SM slice with proportional bandwidth, scaled ×%.1f to the 80-SM chip", cfg.NumSMs, scale)
	t.Note("paper: TC ≈ 3–6× SGEMM and ≈3× HGEMM; max sustained 109.6 TFLOPS (FP16) vs 125 theoretical")
	return t, pointFailures(t, "fig17", perr)
}

func fig17MaxPerf(cfg gpu.Config, scale float64, opt Options) (float64, error) {
	iters := 200
	if opt.Quick {
		iters = 40
	}
	l, err := kernels.MaxPerf(kernels.TensorFP16, 2*cfg.NumSMs, 4, iters)
	if err != nil {
		return 0, err
	}
	st, err := opt.launchOn(cfg, l, []wmma.Precision{wmma.F16}, [][2]int{{64, 64}}, 0, false)
	if err != nil {
		return 0, err
	}
	return l.FLOPs / st.Seconds(cfg) / 1e12 * scale, nil
}
