package gpu

import (
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// turingInt8Kernel loads, multiplies and stores one Turing INT8 tile.
func turingInt8Kernel(t *testing.T) *ptx.Kernel {
	t.Helper()
	cfg := wmma.Config{Arch: wmma.Turing, Shape: wmma.M16N16K16,
		ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
		AType: wmma.S8, CType: wmma.S32, DType: wmma.S32}
	b := ptx.NewBuilder("turing_int8")
	p := b.Param("p", ptx.U64)
	fa := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, ptx.R(p), ptx.Imm(16))
	fb := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, ptx.R(p), ptx.Imm(16))
	fc := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, tensor.RowMajor, cfg.CType, ptx.R(p), ptx.Imm(16))
	fd := b.WmmaMMA(cfg, fa, fb, fc)
	b.WmmaStore(cfg.Arch, cfg.Shape, tensor.RowMajor, cfg.DType, ptx.R(p), fd, ptx.Imm(16))
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// A kernel whose wmma instructions are for another architecture than the
// simulated GPU's is refused before cycle 0, on the full and the
// TimingOnly path alike; the same kernel runs on its own architecture.
func TestWmmaArchMismatchRejected(t *testing.T) {
	loop, err := kernels.MMALoop(kernels.TensorMixed, 4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := ptx.NewBuilder("turing_load")
	p := b.Param("p", ptx.U64)
	frag := b.WmmaLoad(wmma.Turing, wmma.M16N16K16, wmma.MatrixC, tensor.RowMajor, wmma.F32, ptx.R(p), ptx.Imm(16))
	b.WmmaStore(wmma.Turing, wmma.M16N16K16, tensor.RowMajor, wmma.F32, ptx.R(p), frag, ptx.Imm(16))
	b.Exit()
	load := b.MustBuild()
	cases := []struct {
		name  string
		k     *ptx.Kernel
		block int
		own   Config
		other Config
	}{
		{"volta-mma-loop", loop.Kernel, 128, TitanV(), RTX2080()},
		{"turing-int8", turingInt8Kernel(t), 32, RTX2080(), TitanV()},
		{"turing-load-store", load, 32, RTX2080(), TitanV()},
	}
	for _, tc := range cases {
		for _, timingOnly := range []bool{false, true} {
			run := func(cfg Config) error {
				cfg.NumSMs = 1
				sim, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				_, err = sim.Run(LaunchSpec{Kernel: tc.k, Grid: ptx.D1(1), Block: ptx.D1(tc.block),
					Args: []uint64{0}, Global: ptx.NewFlatMemory(4096), TimingOnly: timingOnly})
				return err
			}
			if err := run(tc.own); err != nil {
				t.Errorf("%s (TimingOnly %v) on %s: %v", tc.name, timingOnly, tc.own.Name, err)
			}
			err := run(tc.other)
			if err == nil || !strings.Contains(err.Error(), "instruction") {
				t.Errorf("%s (TimingOnly %v) on %s: error %v, want the instruction named", tc.name, timingOnly, tc.other.Name, err)
			}
		}
	}
}

// Issuing a wmma.mma reads the timing resolved for the launch: a launch
// that issues sixteen times the mmas allocates no more.
func TestMMAIssueAllocatesNothing(t *testing.T) {
	allocs := func(iters int) float64 {
		l, err := kernels.MMALoop(kernels.TensorMixed, 4, iters, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := TitanV()
		cfg.NumSMs = 1
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec := LaunchSpec{Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
			Args: []uint64{0}, Global: ptx.NewFlatMemory(4096), TimingOnly: true}
		return testing.AllocsPerRun(5, func() {
			if _, err := sim.Run(spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(4), allocs(64); many != few {
		t.Errorf("a launch of 64 mma iterations allocates %v, of 4 %v", many, few)
	}
}
