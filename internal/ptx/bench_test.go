package ptx

import (
	"math/rand"
	"slices"
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
//
// The sgemm, hgemm and wmma cases are the GEMM inner loops whole — the
// shared-memory fragment loads and the multiply-adds of one K step — run
// once as cuda.Device launches execute them (full) and once as a
// registry launch does (timingonly: Env.TimingOnly, DESIGN.md "Value-free
// timing"), on the zeroed operands every registry launch has. The
// wmma.load/store cases are the fragment instructions alone, in the same
// two modes: the layer the decode-time access shape moves.
func BenchmarkWarpStep(b *testing.B) {
	// The GEMM inner product: 64 accumulators over 8+8 operands, once
	// with x and once with −x, so each product is followed by its
	// negation and the accumulators stay where they started (to within
	// rounding) however long the benchmark runs. The operands come from
	// a fixed-seed generator and differ in every lane of every warp:
	// finite, magnitudes in [2^-4, 4), as irregular as a seeded GEMM's.
	// That is the point — the host cost of a floating-point mad is in
	// what its rounding does with the operand bits, which zeros (and
	// any constant: it predicts perfectly) do not show.
	mad := func(name string, t Type, operand func(*rand.Rand) uint64, neg uint64, finite func(uint64) bool) stepCase {
		var acc, x, nx, y []Reg
		c := stepCase{name: name, body: func(kb *Builder, _ Reg) []Reg {
			acc, x, nx, y = kb.Regs(64), kb.Regs(8), kb.Regs(8), kb.Regs(8)
			kb.Label("body")
			for _, xs := range [][]Reg{x, nx} {
				for i, r := range acc {
					kb.Mad(t, r, R(xs[i%8]), R(y[i/8]), R(r))
				}
			}
			return acc
		}}
		if operand == nil {
			return c // all-zero registers: what every launchOn launch runs on
		}
		c.finite = finite
		c.regs = func(w *Warp, rng *rand.Rand) {
			for lane := 0; lane < 32; lane++ {
				for _, r := range slices.Concat(acc, y) {
					w.setReg(lane, r, operand(rng))
				}
				for i, r := range x {
					v := operand(rng)
					w.setReg(lane, r, v)
					w.setReg(lane, nx[i], v^neg)
				}
			}
		}
		return c
	}
	halfOperand := func(rng *rand.Rand) uint64 { return uint64(rng.Intn(2)<<15 | (11+rng.Intn(6))<<10 | rng.Intn(1<<10)) }
	cases := []stepCase{
		mad("mad.f32", F32,
			func(rng *rand.Rand) uint64 { return uint64(rng.Intn(2)<<31 | (123+rng.Intn(6))<<23 | rng.Intn(1<<23)) },
			1<<31, func(v uint64) bool { return v>>23&0xff != 0xff }),
		mad("mad.f16x2", F16X2,
			func(rng *rand.Rand) uint64 { return halfOperand(rng)<<16 | halfOperand(rng) },
			1<<31|1<<15, func(v uint64) bool { return v>>10&0x1f != 0x1f && v>>26&0x1f != 0x1f }),
		mad("mad.f16x2.zero", F16X2, nil, 0, nil),
		{name: "add.u32.ri", body: func(kb *Builder, _ Reg) []Reg {
			kb.Label("body")
			rs := kb.Regs(16)
			for _, r := range rs {
				kb.Add(U32, r, R(r), Imm(4))
			}
			return rs
		}},
		{name: "setp+bra", body: func(kb *Builder, _ Reg) []Reg {
			i, p := kb.Reg(), kb.Reg()
			kb.Label("body")
			kb.Setp(U32, CmpLT, p, R(i), Imm(1))
			kb.BraIf(p, false, "body") // always taken: the body loops by itself
			return nil
		}},
		{name: "ld.shared.v4", body: func(kb *Builder, _ Reg) []Reg {
			smem := kb.Shared(32 * 16)
			lane, addr := kb.Reg(), kb.Reg()
			kb.Mov(U32, lane, SR(SRegLaneID))
			kb.MulWide(addr, R(lane), Imm(16))
			kb.Add(U64, addr, R(addr), Imm(smem))
			kb.Label("body")
			rs := kb.Regs(16)
			for i := 0; i < 4; i++ {
				kb.Ld(Shared, 128, rs[4*i:4*i+4], R(addr))
			}
			return rs
		}},
		{name: "ld.global", body: func(kb *Builder, base Reg) []Reg {
			tid, addr := kb.Reg(), kb.Reg()
			kb.Mov(U32, tid, SR(SRegTidX))
			kb.MulWide(addr, R(tid), Imm(4))
			kb.Add(U64, addr, R(addr), R(base))
			kb.Label("body")
			rs := kb.Regs(4)
			for i := range rs {
				kb.Ld(Global, 32, rs[i:i+1], R(addr))
			}
			return rs
		}},
		wmmaCase("wmma.mma", wmma.F32),
		wmmaCase("wmma.mma.f16", wmma.F16),
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { benchWarpStep(b, c, false) })
	}
	for _, c := range slices.Concat(gemmStepCases(), fragStepCases()) {
		b.Run(c.name+"/full", func(b *testing.B) { benchWarpStep(b, c, false) })
		b.Run(c.name+"/timingonly", func(b *testing.B) { benchWarpStep(b, c, true) })
	}
}

// stepCase is one BenchmarkWarpStep kernel.
type stepCase struct {
	name string
	// body emits the prologue, the "body" label and the timed
	// instructions after it, and returns the registers they compute.
	body func(kb *Builder, base Reg) []Reg
	// seed, when set, fills global memory before the prologues run;
	// a seeded body must then be a fixed point of the register file
	// (checked after the timed loop), so its operands never drift.
	seed func(global []byte)
	// regs, when set, writes a warp's operand registers once its
	// prologue has run; finite then reports whether a register
	// value is still finite, checked after the timed loop.
	regs   func(w *Warp, rng *rand.Rand)
	finite func(v uint64) bool
	// keep, when set, emits the never-run stores that keep the body's
	// results alive in place of st of the returned registers: wmma
	// fragments reach memory through wmma alone, or they are no image
	// groups and the body would time the per-lane fallback.
	keep func(kb *Builder, base Reg)
}

// buildStepKernel assembles a case's kernel and returns the body's bounds:
// a warp runs [0, start) once and then [start, end) forever. After the body
// — never run — the kernel stores what it computes: a value nothing stores
// is dead, and a dead instruction would be skipped rather than timed.
func buildStepKernel(c stepCase) (k *Kernel, start, end int) {
	kb := NewBuilder("warpstep")
	base := kb.Param("base", U64)
	kb.Regs(96) // pad the register file to GEMM size
	results := c.body(kb, base)
	kb.Label("end")
	for _, r := range results {
		kb.St(Global, 32, R(base), []Operand{R(r)})
	}
	if c.keep != nil {
		c.keep(kb, base)
	}
	kb.Exit()
	k = kb.MustBuild()
	return k, k.Labels["body"], k.Labels["end"]
}

// gemmStepCases are one K step of the three GEMM inner loops, as
// internal/kernels emits them: SGEMMSimt's and HGEMMSimt's four A loads,
// one 128-bit B load and sixteen multiply-adds, and WMMAGemmShared's A
// and B fragment loads from shared memory around one wmma.mma.
func gemmStepCases() []stepCase {
	simt := func(name string, t Type) stepCase {
		return stepCase{name: name, body: func(kb *Builder, _ Reg) []Reg {
			smem := kb.Shared(8 << 10)
			aBase, bBase, tmp := kb.Reg(), kb.Reg(), kb.Reg()
			kb.MulWide(aBase, SR(SRegLaneID), Imm(4*16*4))
			kb.Add(U64, aBase, R(aBase), Imm(smem))
			kb.MulWide(bBase, SR(SRegLaneID), Imm(16))
			kb.Add(U64, bBase, R(bBase), Imm(smem+4096))
			acc, a, bv := kb.Regs(16), kb.Regs(4), kb.Regs(4)
			kb.Label("body")
			for r := range a {
				kb.Add(U64, tmp, R(aBase), Imm(uint64(r*16*4)))
				kb.Ld(Shared, 32, a[r:r+1], R(tmp))
			}
			kb.Add(U64, tmp, R(bBase), Imm(256))
			kb.Ld(Shared, 128, bv, R(tmp))
			for i, r := range acc {
				kb.Mad(t, r, R(a[i/4]), R(bv[i%4]), R(r))
			}
			return acc
		}}
	}
	return []stepCase{
		simt("sgemm", F32),
		simt("hgemm", F16X2),
		func() stepCase {
			var fd []Reg
			return stepCase{name: "wmma", body: func(kb *Builder, _ Reg) []Reg {
				smem := kb.Shared(2048)
				fc := kb.WmmaLoad(benchCfg.Arch, benchCfg.Shape, wmma.MatrixC, tensor.RowMajor, benchCfg.CType, Imm(smem+1024), Imm(16))
				kb.Label("body")
				fa := kb.WmmaLoad(benchCfg.Arch, benchCfg.Shape, wmma.MatrixA, benchCfg.ALayout, benchCfg.AType, Imm(smem), Imm(16))
				fb := kb.WmmaLoad(benchCfg.Arch, benchCfg.Shape, wmma.MatrixB, benchCfg.BLayout, benchCfg.AType, Imm(smem+512), Imm(16))
				fd = kb.WmmaMMA(benchCfg, fa, fb, fc)
				return nil
			}, keep: func(kb *Builder, base Reg) { storeD(kb, benchCfg, base, fd) }}
		}(),
	}
}

// benchCfg is the wmma.mma of the tensor-core cases: WMMAGemmShared's
// mixed-precision Volta configuration.
var benchCfg = wmma.Config{Arch: wmma.Volta, Shape: wmma.M16N16K16,
	ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
	AType: wmma.F16, CType: wmma.F32, DType: wmma.F32}

// storeD stores an accumulator fragment of cfg to base.
func storeD(kb *Builder, cfg wmma.Config, base Reg, fd []Reg) {
	kb.WmmaStore(cfg.Arch, cfg.Shape, tensor.RowMajor, cfg.DType, R(base), fd, Imm(16))
}

// fragStepCases are the fragment movers by themselves, with the immediate
// leading dimension every generator emits: an A (row-major f16) and a C
// (f32) tile loaded from shared and from global memory, and a C tile
// stored to global memory in both accumulator widths.
func fragStepCases() []stepCase {
	const arch, ld = wmma.Volta, 16
	sh := wmma.M16N16K16
	// The loaded A and C reach memory through a wmma.mma and a store.
	var fa, fc []Reg
	loads := func(kb *Builder, a, c Operand) []Reg {
		kb.Label("body")
		fa = kb.WmmaLoad(arch, sh, wmma.MatrixA, tensor.RowMajor, wmma.F16, a, Imm(ld))
		fc = kb.WmmaLoad(arch, sh, wmma.MatrixC, tensor.RowMajor, wmma.F32, c, Imm(ld))
		return nil
	}
	keep := func(kb *Builder, base Reg) {
		fb := kb.WmmaLoad(arch, sh, wmma.MatrixB, benchCfg.BLayout, wmma.F16, R(base), Imm(ld))
		storeD(kb, benchCfg, base, kb.WmmaMMA(benchCfg, fa, fb, fc))
	}
	return []stepCase{
		{name: "wmma.load.shared", body: func(kb *Builder, _ Reg) []Reg {
			smem := kb.Shared(2048)
			return loads(kb, Imm(smem), Imm(smem+1024))
		}, keep: keep},
		{name: "wmma.load.global", body: func(kb *Builder, base Reg) []Reg {
			return loads(kb, R(base), Imm(1024))
		}, keep: keep},
		{name: "wmma.store.global", body: func(kb *Builder, base Reg) []Reg {
			f32 := kb.WmmaLoad(arch, sh, wmma.MatrixC, tensor.RowMajor, wmma.F32, R(base), Imm(ld))
			f16 := kb.WmmaLoad(arch, sh, wmma.MatrixC, tensor.RowMajor, wmma.F16, Imm(1024), Imm(ld))
			kb.Label("body")
			kb.WmmaStore(arch, sh, tensor.RowMajor, wmma.F32, R(base), f32, Imm(ld))
			kb.WmmaStore(arch, sh, tensor.RowMajor, wmma.F16, Imm(1024), f16, Imm(ld))
			return nil
		}},
	}
}

func benchWarpStep(b *testing.B, c stepCase, timingOnly bool) {
	const warps, perOp = 64, 64 * 64
	k, start, end := buildStepKernel(c)
	for i := start; i < end; i++ {
		d := &k.prog[i]
		if d.skip&skipDead != 0 {
			b.Fatalf("timed instruction %d (op %d) decodes dead: no store sees its result, so it would not run", i, k.Instrs[i].Op)
		}
		if n := map[DClass]int{DClassWmmaLoad: 1, DClassWmmaStore: 1, DClassWmmaMMA: 4}[d.Class]; slices.Contains(d.img[:n], nil) {
			b.Fatalf("timed instruction %d (op %d) has a fragment that is no image group", i, k.Instrs[i].Op)
		}
	}
	global := NewFlatMemory(warps * 32 * 4)
	if c.seed != nil {
		c.seed(global.Data)
	}
	env := &Env{
		Global:     global,
		Shared:     make([]byte, k.SharedBytes),
		GridDim:    D1(1),
		BlockDim:   D1(warps * 32),
		Clock:      func() uint64 { return 0 },
		TimingOnly: timingOnly,
	}
	ws := make([]*Warp, warps)
	rng := rand.New(rand.NewSource(18))
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
		if c.regs != nil {
			c.regs(w, rng)
		}
		ws[i] = w
	}
	regs0 := append([]uint64(nil), ws[0].regs...)
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
	if c.seed != nil && !slices.Equal(ws[0].regs, regs0) {
		b.Fatal("seeded body moved the register file: its operands drift")
	}
	if c.finite != nil {
		for _, w := range ws {
			if i := slices.IndexFunc(w.regs, func(v uint64) bool { return !c.finite(v) }); i >= 0 {
				b.Fatalf("warp %d register %d lane %d left the finite range: %#x", w.ID, i/32, i%32, w.regs[i])
			}
		}
	}
}

// The wmma.mma cases accumulate in place forever, so their operands are
// chosen to leave the accumulator exactly where it started: within every
// pair of FEDP chunks A repeats with its sign flipped and B repeats, so
// the second chunk's sum cancels the first's. Every product, chunk sum
// and running total is a small multiple of 1/16 — exact in binary16 —
// so each multiply and each FP16-mode rounding works on finite non-zero
// values, and never drifts towards overflow. (All-zero operands, which
// the benchmark used to run on, cost the same multiplies but let the
// per-chunk rounding off with ±0.)
const wmmaBenchA, wmmaBenchB, wmmaBenchC = 0, 512, 1024 // tile addresses

func wmmaCase(name string, cd wmma.Precision) stepCase {
	cfg := benchCfg
	cfg.CType, cfg.DType = cd, cd
	var fd []Reg
	return stepCase{name: name, seed: seedWmmaTiles(cd), body: func(kb *Builder, _ Reg) []Reg {
		fa := kb.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, Imm(wmmaBenchA), Imm(16))
		fb := kb.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, Imm(wmmaBenchB), Imm(16))
		fc := kb.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, tensor.RowMajor, cfg.CType, Imm(wmmaBenchC), Imm(16))
		kb.Label("body")
		fd = kb.WmmaMMA(cfg, fa, fb, fc)
		return nil
	}, keep: func(kb *Builder, base Reg) { storeD(kb, cfg, base, fd) }}
}

func seedWmmaTiles(cd wmma.Precision) func([]byte) {
	return func(global []byte) {
		put := func(addr int, p wmma.Precision, v float64) {
			bits := wmma.EncodeElem(p, v)
			for b := 0; b < p.Bits()/8; b++ {
				global[addr+b] = byte(bits >> (8 * b))
			}
		}
		for i := 0; i < 16; i++ {
			for k := 0; k < 16; k++ {
				sign := 1 - 2*float64(k/4%2)
				// A row-major and B column-major (B[k][i] at i*16+k).
				put(wmmaBenchA+2*(i*16+k), wmma.F16, sign*float64(1+(i+k%4)%4)/4)
				put(wmmaBenchB+2*(i*16+k), wmma.F16, float64(1+(k%4+2*i)%5)/4)
			}
			for j := 0; j < 16; j++ {
				put(wmmaBenchC+cd.Bits()/8*(i*16+j), cd, float64(i-j)/2+0.25)
			}
		}
	}
}
