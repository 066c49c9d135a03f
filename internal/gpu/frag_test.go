package gpu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// wmmaSpec builds a shared-memory WMMA GEMM launch for the fragment
// equivalence tests.
func wmmaSpec(t *testing.T, p kernels.GemmPrecision, m, n, k int) LaunchSpec {
	t.Helper()
	l, err := kernels.WMMAGemmShared(p, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	return LaunchSpec{
		Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
		Args:   []uint64{0, 64 << 10, 128 << 10, 192 << 10},
		Global: ptx.NewFlatMemory(256 << 10),
	}
}

// The batched fragment path must be invisible in the timing model:
// every Stats field must be bit-identical to the per-element legacy
// path on the tensor-core workloads — the wmma GEMMs in both
// accumulation modes plus the scheduler suite's mma loop.
func TestFragmentPathMatchesLegacyStats(t *testing.T) {
	cases := map[string]func() LaunchSpec{
		"wmma-mixed": func() LaunchSpec { return wmmaSpec(t, kernels.TensorMixed, 64, 64, 32) },
		"wmma-fp16":  func() LaunchSpec { return wmmaSpec(t, kernels.TensorFP16, 32, 32, 64) },
		"mma-loop":   schedCases()["mma-loop"],
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			batched := runFragPath(t, false, build())
			legacy := runFragPath(t, true, build())
			if !reflect.DeepEqual(batched, legacy) {
				t.Errorf("stats diverge\nbatched: %+v\nlegacy:  %+v", batched, legacy)
			}
			// Knob × mode: TimingOnly changes nothing under either
			// fragment path.
			for _, legacyFrag := range []bool{false, true} {
				spec := build()
				spec.TimingOnly = true
				if got := runFragPath(t, legacyFrag, spec); !reflect.DeepEqual(batched, got) {
					t.Errorf("legacyFrag=%v: TimingOnly changed the stats\nfull:        %+v\ntiming-only: %+v",
						legacyFrag, batched, got)
				}
			}
			if batched.WarpInstructions == 0 || batched.Cycles == 0 || batched.TensorOps == 0 {
				t.Errorf("degenerate run %+v", batched)
			}
		})
	}
}

func runFragPath(t *testing.T, legacy bool, spec LaunchSpec) *Stats {
	t.Helper()
	defer ptx.SwapLegacyFragmentPath(legacy)()
	cfg := TitanV()
	cfg.NumSMs = 2
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// A CTA whose wmma.mma reads a C it never loaded sees zeros — register
// form, on a cleared file — also on a pipelined value side that recycles
// the register files (and the fragment images in them) of retired CTAs:
// 96 one-warp CTAs on two SMs run in waves. The result must match the
// serial launch and ptx.RunGrid byte for byte.
func TestPipelineNeverLoadedAccumulator(t *testing.T) {
	cfg := wmma.Config{Arch: wmma.Volta, Shape: wmma.M16N16K16, ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
		AType: wmma.F16, CType: wmma.F32, DType: wmma.F32}
	const ctas, tileA, tileD = 96, 512, 1024
	b := ptx.NewBuilder("never_loaded_c")
	pa, pd := b.Param("a", ptx.U64), b.Param("d", ptx.U64)
	off, a, d := b.Reg(), b.Reg(), b.Reg()
	b.MulWide(off, ptx.SR(ptx.SRegCtaIDX), ptx.Imm(tileA))
	b.Add(ptx.U64, a, ptx.R(off), ptx.R(pa))
	fa := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, ptx.R(a), ptx.Imm(16))
	fb := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, ptx.R(a), ptx.Imm(16))
	fd := b.WmmaMMA(cfg, fa, fb, b.Regs(8))
	b.MulWide(off, ptx.SR(ptx.SRegCtaIDX), ptx.Imm(tileD))
	b.Add(ptx.U64, d, ptx.R(off), ptx.R(pd))
	b.WmmaStore(cfg.Arch, cfg.Shape, tensor.RowMajor, cfg.DType, ptx.R(d), fd, ptx.Imm(16))
	b.Exit()
	k := b.MustBuild()
	global := make([]byte, ctas*(tileA+tileD))
	rand.New(rand.NewSource(32)).Read(global[:ctas*tileA])
	spec := LaunchSpec{Kernel: k, Grid: ptx.D1(ctas), Block: ptx.D1(32), Args: []uint64{0, ctas * tileA}}
	got := checkPipelineMatchesSerial(t, "never_loaded_c", twoSMs(), spec, global)
	ref := &ptx.FlatMemory{Data: append([]byte(nil), global...)}
	if err := ptx.RunGrid(k, ref, spec.Grid, spec.Block, spec.Args); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref.Data) {
		t.Fatal("gpu.Run memory differs from ptx.RunGrid's")
	}
}
