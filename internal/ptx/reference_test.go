package ptx_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cutlass"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/ptx"
)

// registryLaunches are the kernel generators the fig12c, fig14a, fig15
// and fig17 tables launch, at sizes a 2-SM simulation runs in well under
// a second: Fig 12c's mma loop, the shared-memory WMMA GEMM in both
// accumulation modes, CUTLASS with Fig 15's tile policy and with Fig 17's
// double-buffered cuBLAS-like one, the SIMT SGEMM and HGEMM and the MAX
// PERF kernel.
func registryLaunches(t *testing.T) map[string]*kernels.Launch {
	t.Helper()
	builds := map[string]func() (*kernels.Launch, error){
		"mma-loop":   func() (*kernels.Launch, error) { return kernels.MMALoop(kernels.TensorMixed, 6, 8, 2) },
		"wmma-mixed": func() (*kernels.Launch, error) { return kernels.WMMAGemmShared(kernels.TensorMixed, 64, 64, 32) },
		"wmma-fp16":  func() (*kernels.Launch, error) { return kernels.WMMAGemmShared(kernels.TensorFP16, 32, 32, 64) },
		"cutlass": func() (*kernels.Launch, error) {
			return cutlass.Build(cutlass.GemmConfig{Policy: cutlass.DefaultPolicies()[1],
				Precision: kernels.TensorMixed, M: 128, N: 64, K: 64})
		},
		"cutlass-double-buffer": func() (*kernels.Launch, error) {
			return cutlass.Build(cutlass.GemmConfig{
				Policy:    cutlass.TilePolicy{BlockM: 128, BlockN: 64, WarpM: 32, WarpN: 32, DoubleBuffer: true},
				Precision: kernels.TensorFP16, M: 128, N: 128, K: 64})
		},
		"sgemm":    func() (*kernels.Launch, error) { return kernels.SGEMMSimt(64, 64, 32) },
		"hgemm":    func() (*kernels.Launch, error) { return kernels.HGEMMSimt(64, 128, 32) },
		"max-perf": func() (*kernels.Launch, error) { return kernels.MaxPerf(kernels.TensorFP16, 4, 4, 8) },
	}
	ls := make(map[string]*kernels.Launch, len(builds))
	for name, build := range builds {
		l, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ls[name] = l
	}
	return ls
}

// launchStats runs k with l's geometry on a fresh 2-SM simulator — no
// launch memo, since a reference copy keeps its original's digest —
// tracing the wmma latencies, over seeded finite operands. It returns the
// Stats and global memory afterwards.
func launchStats(t *testing.T, l *kernels.Launch, k *ptx.Kernel, timingOnly bool) (*gpu.Stats, []byte) {
	t.Helper()
	const region = 128 << 10 // the largest operand above is 64 KiB
	mem := ptx.NewFlatMemory(len(l.ArgNames) * region)
	rand.New(rand.NewSource(43)).Read(mem.Data)
	for i := range mem.Data {
		mem.Data[i] %= 0x3c // every binary16 and binary32 word finite and below 1
	}
	args := make([]uint64, len(l.ArgNames))
	for i := range args {
		args[i] = uint64(i * region)
	}
	cfg := gpu.TitanV()
	cfg.NumSMs = 2
	sim, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(gpu.LaunchSpec{Kernel: k, Grid: l.Grid, Block: l.Block, Args: args,
		Global: mem, Trace: true, TimingOnly: timingOnly})
	if err != nil {
		t.Fatal(err)
	}
	return st, mem.Data
}

// The decoded ALU dispatch must be invisible in the timing model: see
// checkReferenceStats.
func TestDecodedStatsMatchInterpreted(t *testing.T) {
	checkReferenceStats(t, ptx.InterpretedALU)
}

// The batched wmma image path must be invisible in the timing model: see
// checkReferenceStats.
func TestFragmentPathMatchesLegacyStats(t *testing.T) {
	checkReferenceStats(t, ptx.PerLaneFragments)
}

// checkReferenceStats runs every generator the registry's tensor and SIMT
// GEMM tables launch, as built and as reference(kernel). The reference
// copy gives the Stats — Trace included — of the production kernel's
// full-value launch, full and TimingOnly, and its full-value launch leaves
// the same memory; the production kernel's TimingOnly launch gives those
// Stats too. A table is a function of its launches' Stats, so this is the
// table-level equivalence as well.
func checkReferenceStats(t *testing.T, reference func(*ptx.Kernel) *ptx.Kernel) {
	for name, l := range registryLaunches(t) {
		t.Run(name, func(t *testing.T) {
			want, wantMem := launchStats(t, l, l.Kernel, false)
			if want.WarpInstructions == 0 || want.Cycles == 0 {
				t.Fatalf("degenerate run %+v", want)
			}
			if got, _ := launchStats(t, l, l.Kernel, true); !reflect.DeepEqual(want, got) {
				t.Errorf("TimingOnly changed the stats\nfull:        %+v\ntiming-only: %+v", want, got)
			}
			k := reference(l.Kernel)
			for _, timingOnly := range []bool{false, true} {
				got, gotMem := launchStats(t, l, k, timingOnly)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("TimingOnly %v: stats diverge\nproduction: %+v\nreference:  %+v", timingOnly, want, got)
				}
				if !timingOnly && !slices.Equal(wantMem, gotMem) {
					t.Error("memory differs from the production launch's")
				}
			}
		})
	}
}

// Building a reference copy leaves the original alone and keeps its
// digest; the copies are what their names say: no fragment operand is an
// image group, no wmma.load/store has an access shape and nothing skips
// on the per-lane copy, and every ALU and SFU instruction of the
// interpreted one decodes to the generic executor.
func TestReferenceCopies(t *testing.T) {
	ks := slices.Concat(gemmKernels(t), stressKernels(t))
	for _, k := range ks {
		prog, ahead, digest := k.Program(), k.StepsAhead(), k.Digest()
		before := fmt.Sprint(prog) // every field of every instruction, pointers as addresses
		perLane, interpreted := ptx.PerLaneFragments(k), ptx.InterpretedALU(k)
		if &k.Program()[0] != &prog[0] || fmt.Sprint(k.Program()) != before || k.StepsAhead() != ahead || k.Digest() != digest {
			t.Errorf("%s: building the copies changed the kernel", k.Name)
		}
		if perLane.Digest() != digest || interpreted.Digest() != digest {
			t.Errorf("%s: a copy does not keep the kernel's digest", k.Name)
		}
		if shapes, _ := ptx.FragmentShapes(perLane); ptx.ImageOperands(perLane) != 0 || len(shapes) != 0 {
			t.Errorf("%s: the per-lane copy keeps an image group or an access shape", k.Name)
		}
		dead, dataOnly := ptx.SkipClasses(perLane)
		if slices.Contains(dead, true) || slices.Contains(dataOnly, true) {
			t.Errorf("%s: the per-lane copy skips an instruction", k.Name)
		}
		if perLane.StepsAhead() || perLane.TimingSeparable() || perLane.TimingProgram() != nil {
			t.Errorf("%s: the per-lane copy keeps a TimingOnly program", k.Name)
		}
		prog = interpreted.Program()
		for i := range prog {
			if c := prog[i].Class; (c == ptx.DClassALU || c == ptx.DClassSFU) && !ptx.Interpreted(&prog[i]) {
				t.Errorf("%s: instruction %d (%v) is not interpreted on the interpreted copy", k.Name, i, prog[i].In.Op)
			}
		}
	}
}
