package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cuda"
	"repro/internal/cutlass"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// simLaunch is one kernel launch of a simulator workload: how to build
// the kernel, the seeded host operands, and how to check the output.
type simLaunch struct {
	name string
	// buildSpan names the layer that generates the kernel:
	// kernels.build, cutlass.build or ptx.parse.
	buildSpan string
	// tag selects the gpu.run_s.<tag> breakdown (sched_occupancy only).
	tag   string
	cfg   gpu.Config
	build func() (*kernels.Launch, error)
	// upload writes the operands to a fresh device and returns the
	// kernel arguments.
	upload func(*cuda.Device) []uint64
	// verify compares the device output with the reference; nil for
	// kernels that produce none (the mma stress loops).
	verify func(*cuda.Device, []uint64) error
	// fp16Acc: the launch's wmma.mma ops accumulate in FP16 (selects the
	// probe cost used for wmma.mma_share).
	fp16Acc bool
}

// titanVSlice is the chip-slice substitution the experiments use: sms
// SMs of a Titan V with DRAM and L2 scaled in proportion, so per-SM
// behaviour matches the 80-SM part.
func titanVSlice(sms int, pol gpu.SchedulerPolicy) gpu.Config {
	cfg := gpu.TitanV()
	frac := float64(sms) / float64(cfg.NumSMs)
	cfg.NumSMs = sms
	cfg.Mem.DRAMBytesPerCycle = max(8, int(float64(cfg.Mem.DRAMBytesPerCycle)*frac))
	cfg.Mem.DRAMChannels = max(1, int(float64(cfg.Mem.DRAMChannels)*frac))
	cfg.Mem.L2SizeBytes = max(64<<10, int(float64(cfg.Mem.L2SizeBytes)*frac))
	cfg.Mem.L2Banks = max(1, int(float64(cfg.Mem.L2Banks)*frac))
	cfg.Scheduler = pol
	return cfg
}

// gemmLaunch wires a GEMM kernel (args a, b, c, d) to seeded FP16-random
// operands and the float64 reference check.
func gemmLaunch(name, buildSpan string, cfg gpu.Config, p kernels.GemmPrecision, m, n, k int,
	rng *rand.Rand, build func() (*kernels.Launch, error)) *simLaunch {
	ab, cd := wmma.F16, wmma.F32
	switch p {
	case kernels.SimtFP32:
		ab = wmma.F32
	case kernels.TensorFP16, kernels.SimtFP16:
		cd = wmma.F16
	}
	a := tensor.New(m, k, tensor.RowMajor)
	b := tensor.New(k, n, tensor.RowMajor)
	c := tensor.New(m, n, tensor.RowMajor)
	a.FillRandomFP16(rng)
	b.FillRandomFP16(rng)
	c.FillRandomFP16(rng)
	return &simLaunch{
		name: name, buildSpan: buildSpan, cfg: cfg, build: build, fp16Acc: cd == wmma.F16,
		upload: func(dev *cuda.Device) []uint64 {
			return []uint64{dev.UploadMatrix(a, ab), dev.UploadMatrix(b, ab),
				dev.UploadMatrix(c, cd), dev.MallocMatrix(m, n, cd)}
		},
		verify: func(dev *cuda.Device, args []uint64) error {
			got := dev.ReadMatrix(args[3], m, n, tensor.RowMajor, cd)
			return checkGemm(got, tensor.Gemm(a, b, c, tensor.RowMajor), gemmTolerance(cd, k))
		},
	}
}

// gemmTolerance bounds |simulated − float64 reference| for the seeded
// operands (multiples of 1/32 below 4 in magnitude). FP32 accumulation
// of such values is exact, so anything above rounding noise is a bug;
// FP16 accumulation rounds every step and gets wmma's own bound.
func gemmTolerance(cd wmma.Precision, k int) float64 {
	if cd == wmma.F32 {
		return 1e-3
	}
	return wmma.Tolerance(wmma.Config{Shape: wmma.Shape{M: 16, N: 16, K: k},
		AType: wmma.F16, CType: wmma.F16, DType: wmma.F16}, 4)
}

func checkGemm(got, want *tensor.Matrix, tol float64) error {
	if d := tensor.MaxAbsDiff(got, want); !(d <= tol) {
		return fmt.Errorf("output differs from the reference GEMM by %g (tolerance %g)", d, tol)
	}
	return nil
}

// checkStats fails a launch whose simulated statistics moved between
// two passes of the same inputs: the simulator is deterministic.
func checkStats(first, again gpu.Stats) error {
	first.Trace, again.Trace = nil, nil
	if first != again {
		return fmt.Errorf("gpu.Stats differ between passes: %+v then %+v", first, again)
	}
	return nil
}

// scratchLaunch wires an mma stress kernel to its one scratch argument.
func scratchLaunch(name, tag string, cfg gpu.Config, fp16Acc bool, build func() (*kernels.Launch, error)) *simLaunch {
	return &simLaunch{name: name, buildSpan: "kernels.build", tag: tag, cfg: cfg, build: build, fp16Acc: fp16Acc,
		upload: func(dev *cuda.Device) []uint64 { return []uint64{dev.Mem.Malloc(4096)} }}
}

func simtGemmLaunches(tiny bool, rng *rand.Rand) []*simLaunch {
	cfg := titanVSlice(8, gpu.GTO)
	type shape struct {
		p       kernels.GemmPrecision
		m, n, k int
	}
	shapes := []shape{
		{kernels.SimtFP32, 256, 256, 256}, {kernels.SimtFP32, 512, 256, 256},
		{kernels.SimtFP16, 256, 256, 256}, {kernels.SimtFP16, 512, 512, 256},
	}
	if tiny {
		shapes = []shape{{kernels.SimtFP32, 64, 64, 16}, {kernels.SimtFP16, 64, 128, 16}}
	}
	var ls []*simLaunch
	for _, s := range shapes {
		gen, kind := kernels.SGEMMSimt, "sgemm"
		if s.p == kernels.SimtFP16 {
			gen, kind = kernels.HGEMMSimt, "hgemm"
		}
		ls = append(ls, gemmLaunch(fmt.Sprintf("%s_%dx%dx%d", kind, s.m, s.n, s.k), "kernels.build",
			cfg, s.p, s.m, s.n, s.k, rng,
			func() (*kernels.Launch, error) { return gen(s.m, s.n, s.k) }))
	}
	return ls
}

func tcGemmLaunches(tiny bool, rng *rand.Rand) []*simLaunch {
	cfg := titanVSlice(8, gpu.GTO)
	n, iters := 256, 200
	policies := cutlass.DefaultPolicies()
	if tiny {
		n, iters, policies = 128, 4, policies[:1]
	}
	var ls []*simLaunch
	for _, pol := range policies {
		for _, p := range []kernels.GemmPrecision{kernels.TensorMixed, kernels.TensorFP16} {
			c := cutlass.GemmConfig{Policy: pol, Precision: p, M: n, N: n, K: n}
			ls = append(ls, gemmLaunch(c.String(), "cutlass.build", cfg, p, n, n, n, rng,
				func() (*kernels.Launch, error) { return cutlass.Build(c) }))
		}
	}
	ls = append(ls, gemmLaunch(fmt.Sprintf("wmma_shared_fp16_%d", n), "kernels.build", cfg, kernels.TensorFP16, n, n, n, rng,
		func() (*kernels.Launch, error) { return kernels.WMMAGemmShared(kernels.TensorFP16, n, n, n) }))
	ls = append(ls, scratchLaunch("maxperf_fp16", "", cfg, true,
		func() (*kernels.Launch, error) { return kernels.MaxPerf(kernels.TensorFP16, 16, 4, iters) }))
	return ls
}

func schedOccupancyLaunches(tiny bool, rng *rand.Rand) []*simLaunch {
	n, k, iters := 256, 256, 512
	if tiny {
		n, k, iters = 64, 16, 8
	}
	var ls []*simLaunch
	// Max occupancy: 16 CTAs of 8 warps queue on one SM's 64 warp slots.
	for _, pol := range gpu.Schedulers() {
		l := gemmLaunch(fmt.Sprintf("sgemm_%dx%dx%d_1sm_%v", n, n, k, pol), "kernels.build",
			titanVSlice(1, pol), kernels.SimtFP32, n, n, k, rng,
			func() (*kernels.Launch, error) { return kernels.SGEMMSimt(n, n, k) })
		l.tag = pol.String()
		ls = append(ls, l)
	}
	// Low occupancy: one CTA, then four warps of back-to-back mma.
	cfg := titanVSlice(1, gpu.GTO)
	l := gemmLaunch(fmt.Sprintf("sgemm_64x64x%d_1cta", k), "kernels.build", cfg, kernels.SimtFP32, 64, 64, k, rng,
		func() (*kernels.Launch, error) { return kernels.SGEMMSimt(64, 64, k) })
	l.tag = "low_occ"
	ls = append(ls, l)
	ls = append(ls, scratchLaunch("mma_loop_4warps", "low_occ", cfg, false,
		func() (*kernels.Launch, error) { return kernels.MMALoop(kernels.TensorMixed, 4, iters, 2) }))
	return ls
}

// passResult is what one pass over a workload's launches measured.
type passResult struct {
	wall  time.Duration // less verify
	stats []gpu.Stats
	// verify is the time spent computing and comparing reference outputs.
	verify time.Duration
}

// runPass executes every launch once, the way tcsim and the experiments
// pay for a data point: build the kernel, make a device, upload the
// operands, simulate. Each launch is one operation in r. first holds the
// statistics of the warm-up pass to compare with; the warm-up pass
// itself (first == nil) checks the outputs instead, outside the timed
// region.
func runPass(ls []*simLaunch, first []gpu.Stats, tr *tracer, r *report) passResult {
	res := passResult{stats: make([]gpu.Stats, len(ls))}
	begin := time.Now()
	for i, l := range ls {
		op := tr.start("op", l.name, 0)
		err := func() error {
			id := tr.start(l.buildSpan, l.name, op)
			kl, err := l.build()
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.start("cuda.new_device", l.name, op)
			dev, err := cuda.NewDevice(l.cfg)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.start("cuda.upload", l.name, op)
			args := l.upload(dev)
			tr.end(id)
			id = tr.start("gpu.run", l.name, op)
			st, err := dev.LaunchSpec(gpu.LaunchSpec{Kernel: kl.Kernel, Grid: kl.Grid, Block: kl.Block, Args: args})
			tr.end(id)
			if err != nil {
				return err
			}
			res.stats[i] = *st
			if first != nil {
				return checkStats(first[i], *st)
			}
			if l.verify != nil {
				t := time.Now()
				err = l.verify(dev, args)
				res.verify += time.Since(t)
			}
			return err
		}()
		tr.end(op)
		r.op(l.name, err)
	}
	res.wall = time.Since(begin) - res.verify
	return res
}

// runFunctional re-executes every launch functionally (no timing model)
// on fresh memory: the ptx layer's share of a launch.
func runFunctional(ls []*simLaunch, tr *tracer) error {
	for _, l := range ls {
		kl, err := l.build()
		if err != nil {
			return err
		}
		dev, err := cuda.NewDevice(l.cfg)
		if err != nil {
			return err
		}
		args := l.upload(dev)
		id := tr.start("ptx.func", l.name, 0)
		err = dev.RunFunctional(kl.Kernel, kl.Grid, kl.Block, args...)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: functional run: %w", l.name, err)
		}
	}
	return nil
}

// simWorkload runs one simulator workload: set-up with a verified
// warm-up pass, timed passes for the budget, and when traced one more
// pass under spans plus the out-of-band layer measurements. The launch
// list sees the seed only as the generator of its operands.
func simWorkload(launches func(tiny bool, rng *rand.Rand) []*simLaunch) func(runConfig, *report) error {
	return func(rc runConfig, r *report) error {
		ls := launches(rc.tiny, rand.New(rand.NewSource(rc.seed)))
		warm := runPass(ls, nil, nil, r)
		r.endSetup(rc, warm.verify)

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		walls := timedPasses(rc, 3, func() time.Duration {
			return runPass(ls, warm.stats, nil, r).wall
		})
		runtime.ReadMemStats(&ms1)
		r.setWall(walls)
		passes := float64(len(walls))
		r.Metrics["runtime.alloc_mb_per_pass"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / passes
		r.Metrics["runtime.gc_count_per_pass"] = float64(ms1.NumGC-ms0.NumGC) / passes

		simCounts(warm.stats, r.Metrics)
		r.Metrics["sim_kwinstr_per_s"] = r.Metrics["gpu.warp_instr"] / 1e3 / r.Metrics["wall_s"]
		r.Metrics["peak_rss_mb"] = selfPeakRSSMiB()
		if !rc.trace {
			return nil
		}

		tr := newTracer(r.Workload)
		traced := runPass(ls, warm.stats, tr, r)
		r.Metrics["trace.overhead_pct"] = 100 * (traced.wall.Seconds()/r.Metrics["wall_s"] - 1)
		if err := runFunctional(ls, tr); err != nil {
			return err
		}
		probes := runProbes(rc, tr)
		r.Spans = tr.all()
		simLayerMetrics(ls, warm.stats, r.Spans, probes, r.Metrics)
		return nil
	}
}

// simCounts sums the launches' simulated statistics: exact counts that
// a speed-only change must leave identical.
func simCounts(stats []gpu.Stats, m metrics) {
	var total gpu.Stats
	for _, st := range stats {
		total.Cycles += st.Cycles
		total.WarpInstructions += st.WarpInstructions
		total.ThreadInstructions += st.ThreadInstructions
		total.TensorOps += st.TensorOps
		total.DRAMAccesses += st.DRAMAccesses
		total.SharedConflicts += st.SharedConflicts
		m["mem.l1_hit_rate"] += st.L1HitRate / float64(len(stats))
		m["mem.l2_hit_rate"] += st.L2HitRate / float64(len(stats))
	}
	m["gpu.cycles"] = float64(total.Cycles)
	m["gpu.warp_instr"] = float64(total.WarpInstructions)
	m["gpu.thread_instr"] = float64(total.ThreadInstructions)
	m["gpu.tensor_ops"] = float64(total.TensorOps)
	m["gpu.ipc"] = float64(total.WarpInstructions) / float64(total.Cycles)
	m["mem.dram_accesses"] = float64(total.DRAMAccesses)
	m["mem.shared_conflicts"] = float64(total.SharedConflicts)
}

// simLayerMetrics derives the host-time numbers of a simulator workload's
// layers from the traced pass's spans and the probes.
func simLayerMetrics(ls []*simLaunch, stats []gpu.Stats, spans []span, probes, m metrics) {
	for k, v := range probes {
		m[k] = v
	}
	ms := func(name string) float64 { return spanTotal(spans, name).Seconds() * 1e3 }
	m["kernels.build_ms"] = ms("kernels.build")
	m["cutlass.build_ms"] = ms("cutlass.build")
	m["cuda.new_device_ms"] = ms("cuda.new_device")
	m["cuda.upload_ms"] = ms("cuda.upload")
	if d := spanTotal(spans, "ptx.parse"); d > 0 {
		m["ptx.parse_us"] = d.Seconds() * 1e6 / float64(len(ls))
	}

	var mmaNS float64
	for i, st := range stats {
		per := probes["wmma.mma_ns.mixed"]
		if ls[i].fp16Acc {
			per = probes["wmma.mma_ns.fp16"]
		}
		mmaNS += float64(st.TensorOps) * per
	}
	run := spanTotal(spans, "gpu.run").Seconds()
	fn := spanTotal(spans, "ptx.func").Seconds()
	m["gpu.run_s"] = run
	m["ptx.func_s"] = fn
	m["gpu.self_s"] = run - fn
	m["ptx.func_share"] = ratio(fn, run)
	m["ptx.func_kwinstr_per_s"] = m["gpu.warp_instr"] / 1e3 / fn
	m["gpu.host_ns_per_cycle"] = run * 1e9 / m["gpu.cycles"]
	m["wmma.mma_share"] = mmaNS / 1e9 / run
	for _, l := range ls {
		if l.tag == "" {
			continue
		}
		for _, s := range spans {
			if s.Name == "gpu.run" && s.Op == l.name {
				m["gpu.run_s."+l.tag] += s.dur().Seconds()
			}
		}
	}
}
