package gpu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ptx"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

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
