// Package tcgpu is a Go reproduction of "Modeling Deep Learning
// Accelerator Enabled GPUs" (Raihan, Goli and Aamodt, ISPASS 2019): a
// functional and cycle-level timing model of the tensor cores in NVIDIA's
// Volta and Turing architectures, embedded in a GPGPU-Sim-style GPU
// simulator, together with the paper's WMMA/CUTLASS workloads and every
// evaluation experiment.
//
// The package is a façade over the internal packages:
//
//   - fragment-to-thread mappings and functional wmma semantics
//     (internal/wmma), HMMA set/step decomposition and calibrated timings
//     (internal/tcore, internal/sass);
//   - a PTX-subset IR with builder and executor (internal/ptx);
//   - the cycle-level SM/memory simulator (internal/gpu, internal/mem)
//     and CUDA-like runtime (internal/cuda); warp scheduling is
//     event-driven (per-sub-core ready sets plus a wake-time heap, so
//     stalled warps are never rescanned) with pluggable policies —
//     greedy-then-oldest, loose round-robin and two-level — selected by
//     GPUConfig.Scheduler;
//   - GEMM kernels and a CUTLASS-style generator (internal/kernels,
//     internal/cutlass);
//   - the experiment registry regenerating every paper table and figure
//     (internal/experiments), backed by a two-level parallel engine: a
//     cross-experiment scheduler (RunAllExperiments) fans the whole
//     registry's data points into one shared worker pool with a global
//     ExperimentOptions.Workers budget (0 = one worker per CPU, 1 =
//     sequential), and single experiments fan their points across a
//     private pool of the same size. Parallel runs emit byte-identical
//     tables whatever the worker count.
//
// The module path is "repro"; import this root package as:
//
//	import tcgpu "repro"
//
// Quick start:
//
//	dev := tcgpu.NewTitanV()
//	res, err := tcgpu.RunGEMM(dev, tcgpu.GemmTensorMixed, 256, 256, 256)
//	fmt.Printf("%.1f TFLOPS in %d cycles\n", res.TFLOPS, res.Stats.Cycles)
//
// Regenerating a paper artifact with the parallel engine:
//
//	tb, err := tcgpu.RunExperiment("fig14b", tcgpu.ExperimentOptions{Quick: true})
//	fmt.Println(tb)
package tcgpu

import (
	"fmt"
	"math/rand"

	"repro/internal/cuda"
	"repro/internal/cutlass"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// Re-exported core types, so library users need only this package for the
// common paths.
type (
	// Device is a simulated GPU with device memory.
	Device = cuda.Device
	// GPUConfig configures the simulated GPU.
	GPUConfig = gpu.Config
	// Stats are the timing statistics of one kernel launch.
	Stats = gpu.Stats
	// Matrix is a host-side dense matrix.
	Matrix = tensor.Matrix
	// Experiment is one paper table/figure reproduction.
	Experiment = experiments.Experiment
	// ExperimentOptions tunes experiment cost.
	ExperimentOptions = experiments.Options
	// ExperimentTable is a regenerated table/figure.
	ExperimentTable = experiments.Table
	// TilePolicy is a CUTLASS-style threadblock/warp tiling.
	TilePolicy = cutlass.TilePolicy
	// SchedulerPolicy selects the warp scheduler of GPUConfig.Scheduler.
	SchedulerPolicy = gpu.SchedulerPolicy
)

// Warp scheduling policies for GPUConfig.Scheduler.
const (
	// SchedGTO is greedy-then-oldest, the hardware default.
	SchedGTO = gpu.GTO
	// SchedLRR is loose round-robin.
	SchedLRR = gpu.LRR
	// SchedTwoLevel is two-level scheduling: a small active subset issues
	// while a pending pool hides long latencies.
	SchedTwoLevel = gpu.TwoLevel
)

// ParseSchedulerPolicy maps the CLI spelling ("gto", "lrr", "twolevel")
// to a SchedulerPolicy.
func ParseSchedulerPolicy(s string) (SchedulerPolicy, error) {
	return gpu.ParseSchedulerPolicy(s)
}

// LegacyAccessPath routes warps created afterwards through the per-lane
// memory access path instead of the batched struct-of-arrays pipeline
// (the default). It is a debug/ablation knob: both paths produce
// bit-identical Stats and experiment tables; the batched one is simply
// faster. See DESIGN.md's "Batched memory path".
func LegacyAccessPath(on bool) { ptx.LegacyAccessPath(on) }

// SwapLegacyAccessPath sets the knob and returns a closure restoring the
// previous setting. Tests flip knobs through the Swap form (registered
// with defer or t.Cleanup) so a failure can never leak the legacy path
// into later tests; simlint's globalmut analyzer enforces this.
func SwapLegacyAccessPath(on bool) (restore func()) { return ptx.SwapLegacyAccessPath(on) }

// LegacyFragmentPath routes warps created afterwards through the
// per-element wmma fragment path (gather/scatter and fragment data
// movement one element at a time) instead of the batched slot-vector
// pipeline (the default). Like LegacyAccessPath it is a debug/ablation
// knob: both paths produce bit-identical Stats and experiment tables.
// See DESIGN.md's "Batched fragment path".
func LegacyFragmentPath(on bool) { ptx.LegacyFragmentPath(on) }

// SwapLegacyFragmentPath is the set-and-restore form of
// LegacyFragmentPath; see SwapLegacyAccessPath.
func SwapLegacyFragmentPath(on bool) (restore func()) { return ptx.SwapLegacyFragmentPath(on) }

// GemmKind selects the datapath of RunGEMM.
type GemmKind int

const (
	// GemmTensorMixed runs on tensor cores with FP32 accumulation.
	GemmTensorMixed GemmKind = iota
	// GemmTensorFP16 runs on tensor cores with FP16 accumulation.
	GemmTensorFP16
	// GemmSimtFP32 runs SGEMM on the FP32 SIMT cores.
	GemmSimtFP32
	// GemmSimtFP16 runs packed-half HGEMM on the SIMT cores.
	GemmSimtFP16
)

// TitanVConfig returns the calibrated Volta (Titan V) configuration.
func TitanVConfig() GPUConfig { return gpu.TitanV() }

// RTX2080Config returns the Turing (RTX 2080) configuration.
func RTX2080Config() GPUConfig { return gpu.RTX2080() }

// NewTitanV builds a simulated Titan V device.
func NewTitanV() *Device { return cuda.MustNewDevice(gpu.TitanV()) }

// NewDevice builds a device for an arbitrary configuration.
func NewDevice(cfg GPUConfig) (*Device, error) { return cuda.NewDevice(cfg) }

// GemmResult bundles the outcome of RunGEMM.
type GemmResult struct {
	Stats  *Stats
	D      *Matrix // result matrix (M×N, row-major)
	TFLOPS float64
	// MaxAbsError is the largest deviation from the float64 reference.
	MaxAbsError float64
}

// RunGEMM generates a GEMM kernel of the given kind, runs D = A×B + C on
// random matrices through the timing simulator, verifies the result
// against the float64 reference, and reports throughput. M, N and K must
// satisfy the kind's tile constraints (multiples of 64/128 for the SIMT
// kinds, 32 for the tensor kinds).
func RunGEMM(dev *Device, kind GemmKind, m, n, k int) (*GemmResult, error) {
	var (
		l   *kernels.Launch
		err error
		ab  = wmma.F16
		cd  = wmma.F32
	)
	switch kind {
	case GemmTensorMixed:
		l, err = kernels.WMMAGemmShared(kernels.TensorMixed, m, n, k)
	case GemmTensorFP16:
		l, err = kernels.WMMAGemmShared(kernels.TensorFP16, m, n, k)
		cd = wmma.F16
	case GemmSimtFP32:
		l, err = kernels.SGEMMSimt(m, n, k)
		ab, cd = wmma.F32, wmma.F32
	case GemmSimtFP16:
		l, err = kernels.HGEMMSimt(m, n, k)
		cd = wmma.F16
	default:
		return nil, fmt.Errorf("tcgpu: unknown GEMM kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(m)*1_000_003 + int64(n)*997 + int64(k)))
	a := tensor.New(m, k, tensor.RowMajor)
	bm := tensor.New(k, n, tensor.RowMajor)
	c := tensor.New(m, n, tensor.RowMajor)
	a.FillRandomFP16(rng)
	bm.FillRandomFP16(rng)
	c.FillRandomFP16(rng)
	da := dev.UploadMatrix(a, ab)
	db := dev.UploadMatrix(bm, ab)
	dc := dev.UploadMatrix(c, cd)
	dd := dev.MallocMatrix(m, n, cd)
	st, err := dev.Launch(l.Kernel, l.Grid, l.Block, da, db, dc, dd)
	if err != nil {
		return nil, err
	}
	d := dev.ReadMatrix(dd, m, n, tensor.RowMajor, cd)
	want := tensor.Gemm(a, bm, c, tensor.RowMajor)
	return &GemmResult{
		Stats:       st,
		D:           d,
		TFLOPS:      l.FLOPs / st.Seconds(dev.Sim.Config()) / 1e12,
		MaxAbsError: tensor.MaxAbsDiff(d, want),
	}, nil
}

// RunCutlassGEMM runs a CUTLASS-style tiled GEMM under the given policy.
func RunCutlassGEMM(dev *Device, policy TilePolicy, m, n, k int) (*GemmResult, error) {
	cfg := cutlass.GemmConfig{Policy: policy, Precision: kernels.TensorMixed, M: m, N: n, K: k}
	l, err := cutlass.Build(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(7))
	a := tensor.New(m, k, tensor.RowMajor)
	bm := tensor.New(k, n, tensor.RowMajor)
	c := tensor.New(m, n, tensor.RowMajor)
	a.FillRandomFP16(rng)
	bm.FillRandomFP16(rng)
	c.FillRandomFP16(rng)
	da := dev.UploadMatrix(a, wmma.F16)
	db := dev.UploadMatrix(bm, wmma.F16)
	dc := dev.UploadMatrix(c, wmma.F32)
	dd := dev.MallocMatrix(m, n, wmma.F32)
	st, err := dev.Launch(l.Kernel, l.Grid, l.Block, da, db, dc, dd)
	if err != nil {
		return nil, err
	}
	d := dev.ReadMatrix(dd, m, n, tensor.RowMajor, wmma.F32)
	want := tensor.Gemm(a, bm, c, tensor.RowMajor)
	return &GemmResult{
		Stats:       st,
		D:           d,
		TFLOPS:      l.FLOPs / st.Seconds(dev.Sim.Config()) / 1e12,
		MaxAbsError: tensor.MaxAbsDiff(d, want),
	}, nil
}

// DefaultTilePolicies returns the CUTLASS tile configurations shipped
// with the library.
func DefaultTilePolicies() []TilePolicy { return cutlass.DefaultPolicies() }

// Experiments returns the registry of paper-table/figure reproductions.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment regenerates one paper artifact by id (e.g. "fig9",
// "tab1", "fig14b"). The experiment's independent data points fan out
// across opt.Workers goroutines (0 = one per CPU); the table is identical
// whatever the worker count.
func RunExperiment(id string, opt ExperimentOptions) (*ExperimentTable, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(opt)
}

// RunAllExperiments regenerates the full registry in paper order on the
// two-level scheduler: every experiment's independent data points fan out
// into one shared worker pool bounded by opt.Workers (0 = one worker per
// CPU), so the budget is global rather than per experiment. A failing
// experiment no longer aborts the rest — every successful table is
// returned in registry order, and the returned error aggregates the
// failures (nil when all succeed).
func RunAllExperiments(opt ExperimentOptions) ([]*ExperimentTable, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	results := experiments.RunAll(experiments.All(), opt, nil)
	var out []*ExperimentTable
	for _, r := range results {
		if r.Err == nil {
			out = append(out, r.Table)
		}
	}
	return out, experiments.Errs(results)
}

// NewMatrix returns a zeroed rows×cols row-major host matrix.
func NewMatrix(rows, cols int) *Matrix { return tensor.New(rows, cols, tensor.RowMajor) }

// MMA computes one warp-level D = A×B + C tile with the tensor core
// functional model (Volta 16×16×16, FP32 accumulate), quantizing inputs
// to FP16 — a convenience for users who only need the arithmetic.
func MMA(a, b, c *Matrix) (*Matrix, error) {
	cfg := wmma.Config{Arch: wmma.Volta, Shape: wmma.M16N16K16,
		ALayout: tensor.RowMajor, BLayout: tensor.RowMajor,
		AType: wmma.F16, CType: wmma.F32, DType: wmma.F32}
	return wmma.MMA(cfg, a, b, c, tensor.RowMajor)
}
