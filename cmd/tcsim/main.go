// Command tcsim runs one GEMM kernel on the simulated GPU and prints its
// timing statistics — the front door to the cycle-level model.
//
// Usage:
//
//	tcsim -kernel wmma -m 256 -n 256 -k 256
//	tcsim -kernel cutlass -m 512 -n 512 -k 512 -policy b64x64_w32x32
//	tcsim -kernel sgemm -m 256 -n 256 -k 256 -sms 16 -sched lrr
//	tcsim -kernel wmma -sizes 128,256,512 -workers 4
//	tcsim -kernel hgemm -m 512 -n 512 -k 256 -sms 8 -cpuprofile cpu.pprof
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cuda"
	"repro/internal/cutlass"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/profiling"
	"repro/internal/ptx"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// Exit codes: 0 success (including -h), 1 simulation failures, 2 flag
// errors — the same contract as cmd/experiments.
const (
	exitOK     = 0
	exitFailed = 1
	exitUsage  = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main's body with a normal return path, so the -legacyfrag
// restore and the pprof writers' defers run before exit (os.Exit skips
// defers) and CLI tests can pin the exit-code contract in-process
// (tables still print to the process stdout).
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kernel := fs.String("kernel", "wmma", "wmma | wmma-naive | sgemm | hgemm | cutlass | maxperf")
	m := fs.Int("m", 256, "rows of A and D")
	n := fs.Int("n", 256, "columns of B and D")
	k := fs.Int("k", 256, "inner dimension")
	sms := fs.Int("sms", 0, "simulated SM count (default: full 80)")
	sched := fs.String("sched", "gto", "warp scheduler: gto | lrr | twolevel")
	fs.StringVar(sched, "scheduler", "gto", "alias for -sched")
	policy := fs.String("policy", "b64x64_w32x32", "cutlass tile policy")
	fp16acc := fs.Bool("fp16acc", false, "accumulate in FP16 instead of FP32")
	verify := fs.Bool("verify", true, "check the result against the float64 reference")
	sizes := fs.String("sizes", "", "comma-separated square sizes to sweep (m = n = k); each point runs on its own simulator (timing only, -verify is ignored)")
	workers := fs.Int("workers", 0, "worker pool size for -sizes sweeps (0 = one per CPU)")
	tlActive := fs.Int("tlactive", 0, "two-level scheduler active-subset size per sub-core (0 = config default; other policies ignore it)")
	maxCycles := fs.Uint64("maxcycles", 0, "simulated-cycle budget per launch; a runaway kernel fails with a cycle-budget error instead of spinning (0 = generous backstop)")
	legacyFrag := fs.Bool("legacyfrag", false, "route wmma fragments through the per-element legacy path (debug/ablation; results are bit-identical, just slower)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (hot-spot hunts: go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		// -h/-help surfaces as flag.ErrHelp: a successful usage request,
		// not a usage error — it used to exit 2 like a typo.
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}

	if err := validateFlags(*m, *n, *k, *sms, *workers, *tlActive, *sched); err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	if *legacyFrag {
		// Swap-and-restore, not a bare set: leaking the process-global
		// knob past run() is the leak PR 6's Swap discipline exists to
		// prevent.
		defer ptx.SwapLegacyFragmentPath(true)()
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "tcsim:", err)
		return exitUsage
	}
	defer stopProfiles()

	cfg := gpu.TitanV()
	if *sms > 0 {
		cfg.NumSMs = *sms
	}
	cfg.Scheduler, _ = gpu.ParseSchedulerPolicy(*sched) // validated above
	if *tlActive > 0 {
		cfg.TwoLevelActive = *tlActive
	}

	if *sizes != "" {
		if err := runSweep(cfg, *kernel, *policy, *fp16acc, *sizes, *workers, *maxCycles); err != nil {
			fmt.Fprintln(stderr, err)
			return exitFailed
		}
		return exitOK
	}

	prec := kernels.TensorMixed
	cd := wmma.F32
	if *fp16acc {
		prec, cd = kernels.TensorFP16, wmma.F16
	}

	l, ab, abcd, err := buildLaunch(cfg, *kernel, *policy, prec, cd, *m, *n, *k)
	cd = abcd
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailed
	}

	dev := cuda.MustNewDevice(cfg)
	dev.MaxCycles = *maxCycles
	var args64 []uint64
	var want *tensor.Matrix
	if *kernel == "maxperf" {
		args64 = []uint64{dev.Mem.Malloc(2048)}
		*verify = false
	} else {
		a := tensor.New(*m, *k, tensor.RowMajor)
		b := tensor.New(*k, *n, tensor.RowMajor)
		c := tensor.New(*m, *n, tensor.RowMajor)
		fill(a, 1)
		fill(b, 2)
		fill(c, 3)
		args64 = []uint64{
			dev.UploadMatrix(a, ab),
			dev.UploadMatrix(b, ab),
			dev.UploadMatrix(c, cd),
			dev.MallocMatrix(*m, *n, cd),
		}
		if *verify {
			want = tensor.Gemm(a, b, c, tensor.RowMajor)
		}
	}

	st, err := dev.Launch(l.Kernel, l.Grid, l.Block, args64...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailed
	}

	fmt.Printf("kernel      : %s\n", l.Kernel.Name)
	fmt.Printf("gpu         : %s (%d SMs, %s scheduler)\n", cfg.Name, cfg.NumSMs, cfg.Scheduler)
	fmt.Printf("grid x block: %v x %v\n", l.Grid, l.Block)
	reportStats(st, cfg, l.FLOPs)
	if *verify && want != nil {
		got := dev.ReadMatrix(args64[3], *m, *n, tensor.RowMajor, cd)
		fmt.Printf("max |error| : %g vs float64 reference\n", tensor.MaxAbsDiff(got, want))
	}
	return exitOK
}

// reportStats prints the post-run statistics block. It is the
// sanctioned surface for every gpu.Stats counter — the statcomplete
// analyzer requires each numeric field to appear here, so a counter
// added to Stats cannot be silently dropped from the report (which is
// how CTAsSimulated and SharedConflicts used to vanish).
//
//simlint:emitter
func reportStats(st *gpu.Stats, cfg gpu.Config, flops float64) {
	fmt.Printf("CTAs        : %d simulated of %d launched\n", st.CTAsSimulated, st.CTAsTotal)
	fmt.Printf("cycles      : %d (%.3f ms at %.0f MHz)\n", st.Cycles, st.Seconds(cfg)*1e3, cfg.ClockMHz)
	fmt.Printf("instructions: %d warp (%d thread), IPC %.2f\n",
		st.WarpInstructions, st.ThreadInstructions, st.IPC())
	fmt.Printf("tensor ops  : %d wmma.mma\n", st.TensorOps)
	fmt.Printf("L1 hit rate : %.1f%%   L2 hit rate: %.1f%%   DRAM accesses: %d\n",
		100*st.L1HitRate, 100*st.L2HitRate, st.DRAMAccesses)
	fmt.Printf("shared mem  : %d bank-conflict replay passes\n", st.SharedConflicts)
	if flops > 0 {
		fmt.Printf("throughput  : %.2f TFLOPS\n", flops/st.Seconds(cfg)/1e12)
	}
}

// Flag bounds: dimensions beyond maxDim (the paper's largest sweep is
// 16384) would allocate absurd operand matrices; SM counts beyond maxSMs
// have no hardware analogue (the full Titan V has 80); active subsets
// beyond maxTLActive exceed the SM-wide warp budget.
const (
	maxDim      = 1 << 17
	maxSMs      = 1024
	maxWorkers  = 4096
	maxTLActive = 64
)

// validateFlags rejects negative or absurd flag values at the boundary:
// they used to panic in the kernel generators or be silently ignored
// (a negative -sms ran the full 80-SM chip without saying so).
func validateFlags(m, n, k, sms, workers, tlActive int, scheduler string) error {
	for _, d := range []struct {
		name string
		v    int
	}{{"-m", m}, {"-n", n}, {"-k", k}} {
		if d.v < 1 || d.v > maxDim {
			return fmt.Errorf("tcsim: %s %d out of range (want 1..%d)", d.name, d.v, maxDim)
		}
	}
	if sms < 0 || sms > maxSMs {
		return fmt.Errorf("tcsim: -sms %d out of range (want 0 for the full chip, or 1..%d)", sms, maxSMs)
	}
	if workers < 0 || workers > maxWorkers {
		return fmt.Errorf("tcsim: -workers %d out of range (want 0 for one per CPU, or 1..%d)", workers, maxWorkers)
	}
	if tlActive < 0 || tlActive > maxTLActive {
		return fmt.Errorf("tcsim: -tlactive %d out of range (want 0 for the config default, or 1..%d)", tlActive, maxTLActive)
	}
	if _, err := gpu.ParseSchedulerPolicy(scheduler); err != nil {
		return fmt.Errorf("tcsim: -sched: %v", err)
	}
	return nil
}

// buildLaunch generates the requested kernel, returning the launch and
// the operand/accumulator precisions.
func buildLaunch(cfg gpu.Config, kernel, policy string, prec kernels.GemmPrecision, cd wmma.Precision,
	m, n, k int) (*kernels.Launch, wmma.Precision, wmma.Precision, error) {
	ab := wmma.F16
	var (
		l   *kernels.Launch
		err error
	)
	switch kernel {
	case "wmma":
		l, err = kernels.WMMAGemmShared(prec, m, n, k)
	case "wmma-naive":
		l, err = kernels.WMMAGemmNaive(prec, m, n, k)
	case "sgemm":
		l, err = kernels.SGEMMSimt(m, n, k)
		ab, cd = wmma.F32, wmma.F32
	case "hgemm":
		l, err = kernels.HGEMMSimt(m, n, k)
		cd = wmma.F16
	case "cutlass":
		var pol cutlass.TilePolicy
		pol, err = findPolicy(policy)
		if err == nil {
			l, err = cutlass.Build(cutlass.GemmConfig{Policy: pol, Precision: prec, M: m, N: n, K: k})
		}
	case "maxperf":
		l, err = kernels.MaxPerf(prec, 2*cfg.NumSMs, 4, 100)
	default:
		err = fmt.Errorf("unknown kernel %q", kernel)
	}
	return l, ab, cd, err
}

// runSweep runs the kernel across the comma-separated square sizes, one
// independent device per point, fanned across the worker pool. Results
// print in size order whatever the completion order.
func runSweep(cfg gpu.Config, kernel, policy string, fp16acc bool, sizesCSV string, workers int, maxCycles uint64) error {
	var sizes []int
	for _, f := range strings.Split(sizesCSV, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 || v > maxDim {
			return fmt.Errorf("bad -sizes entry %q (want 1..%d)", f, maxDim)
		}
		sizes = append(sizes, v)
	}
	prec := kernels.TensorMixed
	cd := wmma.F32
	if fp16acc {
		prec, cd = kernels.TensorFP16, wmma.F16
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, len(sizes))

	lines := make([]string, len(sizes))
	errs := make([]error, len(sizes))
	var next, wg = make(chan int), sync.WaitGroup{}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				n := sizes[i]
				l, pab, pcd, err := buildLaunch(cfg, kernel, policy, prec, cd, n, n, n)
				if err != nil {
					errs[i] = err
					continue
				}
				dev := cuda.MustNewDevice(cfg)
				dev.MaxCycles = maxCycles
				var args []uint64
				if kernel == "maxperf" {
					args = []uint64{dev.Mem.Malloc(2048)}
				} else {
					args = []uint64{
						dev.MallocMatrix(n, n, pab),
						dev.MallocMatrix(n, n, pab),
						dev.MallocMatrix(n, n, pcd),
						dev.MallocMatrix(n, n, pcd),
					}
				}
				st, err := dev.Launch(l.Kernel, l.Grid, l.Block, args...)
				if err != nil {
					errs[i] = err
					continue
				}
				tflops := 0.0
				if l.FLOPs > 0 {
					tflops = l.FLOPs / st.Seconds(cfg) / 1e12
				}
				lines[i] = fmt.Sprintf("%-6d %12d %8.2f %10.2f %8.1f%% %8d",
					n, st.Cycles, st.IPC(), tflops, 100*st.L1HitRate, st.DRAMAccesses)
			}
		}()
	}
	go func() {
		for i := range sizes {
			next <- i
		}
		close(next)
	}()
	wg.Wait()

	fmt.Printf("kernel %s on %s (%d SMs, %d workers); sweeps are timing-only, no result verification\n",
		kernel, cfg.Name, cfg.NumSMs, workers)
	fmt.Printf("%-6s %12s %8s %10s %9s %8s\n", "size", "cycles", "ipc", "tflops", "l1hit", "dram")
	// Print every completed point even when some failed; failures are
	// summarized afterwards so one bad size cannot hide the others.
	var failed []int
	for i, line := range lines {
		if errs[i] != nil {
			failed = append(failed, i)
			continue
		}
		fmt.Println(line)
	}
	if len(failed) > 0 {
		for _, i := range failed {
			fmt.Fprintf(os.Stderr, "size %d: %v\n", sizes[i], errs[i])
		}
		return fmt.Errorf("%d of %d sweep points failed", len(failed), len(sizes))
	}
	return nil
}

func findPolicy(name string) (cutlass.TilePolicy, error) {
	for _, p := range cutlass.DefaultPolicies() {
		if p.String() == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range cutlass.DefaultPolicies() {
		names = append(names, p.String())
	}
	return cutlass.TilePolicy{}, fmt.Errorf("unknown policy %q (have %v)", name, names)
}

func fill(m *tensor.Matrix, seed int) {
	s := seed
	m.FillFunc(func(int, int) float64 {
		s = (s*1103515245 + 12345) & 0x7fffffff
		return float64(s%16-8) / 8
	})
}
