package ptx

import (
	"testing"

	"repro/internal/tensor"
	"repro/internal/wmma"
)

// BenchmarkWarpStep times Warp.step per instruction class. Every case
// cycles 64 warps of one CTA round-robin — an SM's resident set — with
// a GEMM-sized register file (~100 registers per thread), so the figure
// includes the register file's cache behaviour and not one hot warp's.
// A case is a set-up prologue followed by a body; each warp runs the
// prologue once, untimed, and then re-executes the body forever. One
// benchmark op is 64 instructions on each warp (so -benchtime 1x still
// measures something); the metric to read is ns per warp instruction.
func BenchmarkWarpStep(b *testing.B) {
	const warps, perOp = 64, 64 * 64
	type benchCase struct {
		name string
		// body emits the prologue, the "body" label and the timed
		// instructions after it.
		body func(kb *Builder, base Reg)
	}
	mad := func(t Type) func(*Builder, Reg) {
		// The GEMM inner product: 64 accumulators over 8+8 operands.
		return func(kb *Builder, _ Reg) {
			acc, x, y := kb.Regs(64), kb.Regs(8), kb.Regs(8)
			kb.Label("body")
			for i, r := range acc {
				kb.Mad(t, r, R(x[i%8]), R(y[i/8]), R(r))
			}
		}
	}
	cases := []benchCase{
		{"mad.f32", mad(F32)},
		{"mad.f16x2", mad(F16X2)},
		{"add.u32.ri", func(kb *Builder, _ Reg) {
			kb.Label("body")
			for _, r := range kb.Regs(16) {
				kb.Add(U32, r, R(r), Imm(4))
			}
		}},
		{"setp+bra", func(kb *Builder, _ Reg) {
			i, p := kb.Reg(), kb.Reg()
			kb.Label("body")
			kb.Setp(U32, CmpLT, p, R(i), Imm(1))
			kb.BraIf(p, false, "body") // always taken: the body loops by itself
		}},
		{"ld.shared.v4", func(kb *Builder, _ Reg) {
			smem := kb.Shared(32 * 16)
			lane, addr := kb.Reg(), kb.Reg()
			kb.Mov(U32, lane, SR(SRegLaneID))
			kb.MulWide(addr, R(lane), Imm(16))
			kb.Add(U64, addr, R(addr), Imm(smem))
			kb.Label("body")
			for i := 0; i < 4; i++ {
				kb.Ld(Shared, 128, kb.Regs(4), R(addr))
			}
		}},
		{"ld.global", func(kb *Builder, base Reg) {
			tid, addr := kb.Reg(), kb.Reg()
			kb.Mov(U32, tid, SR(SRegTidX))
			kb.MulWide(addr, R(tid), Imm(4))
			kb.Add(U64, addr, R(addr), R(base))
			kb.Label("body")
			for i := 0; i < 4; i++ {
				kb.Ld(Global, 32, kb.Regs(1), R(addr))
			}
		}},
		{"wmma.mma", func(kb *Builder, base Reg) {
			cfg := wmma.Config{Arch: wmma.Volta, Shape: wmma.M16N16K16,
				ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
				AType: wmma.F16, CType: wmma.F32, DType: wmma.F32}
			// Zero operands: the in-place accumulator stays finite.
			fa := kb.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, R(base), Imm(16))
			fb := kb.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, R(base), Imm(16))
			fc := kb.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, tensor.RowMajor, cfg.CType, R(base), Imm(16))
			kb.Label("body")
			kb.WmmaMMA(cfg, fa, fb, fc)
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			kb := NewBuilder("warpstep")
			base := kb.Param("base", U64)
			kb.Regs(96) // pad the register file to GEMM size
			c.body(kb, base)
			kb.Exit()
			k := kb.MustBuild()
			start, end := k.Labels["body"], len(k.Instrs)-1 // end: the exit
			env := &Env{
				Global:   NewFlatMemory(warps * 32 * 4),
				Shared:   make([]byte, k.SharedBytes),
				GridDim:  D1(1),
				BlockDim: D1(warps * 32),
				Clock:    func() uint64 { return 0 },
			}
			ws := make([]*Warp, warps)
			var res Result
			for i := range ws {
				w, err := NewWarp(k, env, i, []uint64{0})
				if err != nil {
					b.Fatal(err)
				}
				for w.PC < start {
					if err := w.StepInto(&res); err != nil {
						b.Fatal(err)
					}
				}
				ws[i] = w
			}
			b.ResetTimer()
			for i := 0; i < b.N*perOp; i++ {
				w := ws[i%warps]
				if w.PC == end {
					w.PC = start
				}
				if err := w.StepInto(&res); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perOp), "ns/warp-instr")
		})
	}
}
