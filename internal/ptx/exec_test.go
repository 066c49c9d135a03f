package ptx

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/fp16"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// runKernel executes a single-CTA kernel functionally and returns the
// global memory.
func runKernel(t *testing.T, k *Kernel, block Dim3, memBytes int, args ...uint64) *FlatMemory {
	t.Helper()
	mem := NewFlatMemory(memBytes)
	if err := RunGrid(k, mem, D1(1), block, args); err != nil {
		t.Fatal(err)
	}
	return mem
}

func u32At(m *FlatMemory, addr uint64) uint32 { return binary.LittleEndian.Uint32(m.Data[addr:]) }
func f32At(m *FlatMemory, addr uint64) float32 {
	return math.Float32frombits(u32At(m, addr))
}

func TestALUAndStore(t *testing.T) {
	b := NewBuilder("alu")
	out := b.Param("out", U64)
	r1, r2, r3 := b.Reg(), b.Reg(), b.Reg()
	b.Mov(U32, r1, Imm(21))
	b.Add(U32, r2, R(r1), Imm(21)) // 42
	b.Mul(U32, r3, R(r2), Imm(3))  // 126
	b.Sub(U32, r3, R(r3), Imm(26)) // 100
	b.Shl(U32, r3, R(r3), Imm(2))  // 400
	b.Shr(U32, r3, R(r3), Imm(4))  // 25
	b.St(Global, 32, R(out), []Operand{R(r3)})
	b.Exit()
	mem := runKernel(t, b.MustBuild(), D1(1), 64, 0)
	if got := u32At(mem, 0); got != 25 {
		t.Errorf("result = %d, want 25", got)
	}
}

func TestSignedArithmetic(t *testing.T) {
	b := NewBuilder("signed")
	out := b.Param("out", U64)
	r := b.Reg()
	b.Mov(S32, r, ImmS(-7))
	b.Div(S32, r, R(r), Imm(2)) // -3 (truncating)
	b.St(Global, 32, R(out), []Operand{R(r)})
	b.Exit()
	mem := runKernel(t, b.MustBuild(), D1(1), 64, 0)
	if got := int32(u32At(mem, 0)); got != -3 {
		t.Errorf("-7/2 = %d, want -3", got)
	}
	// Arithmetic shift right of a negative value keeps the sign.
	b2 := NewBuilder("sar")
	out2 := b2.Param("out", U64)
	r2 := b2.Reg()
	b2.Mov(S32, r2, ImmS(-8))
	b2.Shr(S32, r2, R(r2), Imm(1))
	b2.St(Global, 32, R(out2), []Operand{R(r2)})
	b2.Exit()
	mem2 := runKernel(t, b2.MustBuild(), D1(1), 64, 0)
	if got := int32(u32At(mem2, 0)); got != -4 {
		t.Errorf("-8 >> 1 = %d, want -4", got)
	}
}

func TestFloatOpsAndFMA(t *testing.T) {
	b := NewBuilder("float")
	out := b.Param("out", U64)
	x, y, z := b.Reg(), b.Reg(), b.Reg()
	b.Mov(F32, x, Imm(uint64(math.Float32bits(1.5))))
	b.Mov(F32, y, Imm(uint64(math.Float32bits(2.0))))
	b.Mad(F32, z, R(x), R(y), R(x)) // 1.5*2 + 1.5 = 4.5
	b.St(Global, 32, R(out), []Operand{R(z)})
	b.Exit()
	mem := runKernel(t, b.MustBuild(), D1(1), 64, 0)
	if got := f32At(mem, 0); got != 4.5 {
		t.Errorf("fma = %v, want 4.5", got)
	}
}

func TestF16X2Packed(t *testing.T) {
	b := NewBuilder("h2")
	out := b.Param("out", U64)
	x, y, z := b.Reg(), b.Reg(), b.Reg()
	pack := func(hi, lo float64) uint64 {
		return uint64(fp16.FromFloat64(hi).Bits())<<16 | uint64(fp16.FromFloat64(lo).Bits())
	}
	b.Mov(U32, x, Imm(pack(2, 3)))
	b.Mov(U32, y, Imm(pack(5, 7)))
	b.Mul(F16X2, z, R(x), R(y)) // (10, 21)
	b.St(Global, 32, R(out), []Operand{R(z)})
	b.Exit()
	mem := runKernel(t, b.MustBuild(), D1(1), 64, 0)
	v := u32At(mem, 0)
	lo := fp16.FromBits(uint16(v)).Float64()
	hi := fp16.FromBits(uint16(v >> 16)).Float64()
	if lo != 21 || hi != 10 {
		t.Errorf("f16x2 mul = (%v, %v), want (10, 21)", hi, lo)
	}
}

func TestLoopControlFlow(t *testing.T) {
	b := NewBuilder("loop")
	out := b.Param("out", U64)
	i, sum, p := b.Reg(), b.Reg(), b.Reg()
	b.Mov(U32, i, Imm(0))
	b.Mov(U32, sum, Imm(0))
	b.Label("top")
	b.Add(U32, i, R(i), Imm(1))
	b.Add(U32, sum, R(sum), R(i))
	b.Setp(U32, CmpLT, p, R(i), Imm(10))
	b.BraIf(p, false, "top")
	b.St(Global, 32, R(out), []Operand{R(sum)})
	b.Exit()
	mem := runKernel(t, b.MustBuild(), D1(1), 64, 0)
	if got := u32At(mem, 0); got != 55 {
		t.Errorf("sum 1..10 = %d, want 55", got)
	}
}

func TestPredicationPerLane(t *testing.T) {
	// Even lanes write 1, odd lanes write 2, via guarded stores.
	b := NewBuilder("pred")
	out := b.Param("out", U64)
	lane, bit, p, addr, v := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Mov(U32, lane, SR(SRegLaneID))
	b.And(U32, bit, R(lane), Imm(1))
	b.Setp(U32, CmpEQ, p, R(bit), Imm(0))
	b.Selp(U32, v, Imm(1), Imm(2), R(p))
	b.MulWide(addr, R(lane), Imm(4))
	b.Add(U64, addr, R(addr), R(out))
	b.St(Global, 32, R(addr), []Operand{R(v)})
	b.Exit()
	mem := runKernel(t, b.MustBuild(), D1(32), 256, 0)
	for lane := 0; lane < 32; lane++ {
		want := uint32(1)
		if lane%2 == 1 {
			want = 2
		}
		if got := u32At(mem, uint64(4*lane)); got != want {
			t.Fatalf("lane %d wrote %d, want %d", lane, got, want)
		}
	}
}

func TestDivergentBranchErrors(t *testing.T) {
	b := NewBuilder("diverge")
	lane, bit, p := b.Reg(), b.Reg(), b.Reg()
	b.Mov(U32, lane, SR(SRegLaneID))
	b.And(U32, bit, R(lane), Imm(1))
	b.Setp(U32, CmpEQ, p, R(bit), Imm(0))
	b.Label("skip")
	b.BraIf(p, false, "skip")
	b.Exit()
	mem := NewFlatMemory(64)
	if err := RunGrid(b.MustBuild(), mem, D1(1), D1(32), nil); err == nil {
		t.Fatal("divergent branch should be rejected")
	}
}

func TestSharedMemoryAndBarrier(t *testing.T) {
	// Each thread writes tid to shared, barrier, then reads neighbour's
	// value (tid+1 mod 64) and stores to global.
	b := NewBuilder("smem")
	out := b.Param("out", U64)
	smem := b.Shared(64 * 4)
	tid, a, v, nb := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Mov(U32, tid, SR(SRegTidX))
	b.MulWide(a, R(tid), Imm(4))
	b.Add(U64, a, R(a), Imm(smem))
	b.St(Shared, 32, R(a), []Operand{R(tid)})
	b.Bar()
	b.Add(U32, nb, R(tid), Imm(1))
	b.And(U32, nb, R(nb), Imm(63))
	b.MulWide(a, R(nb), Imm(4))
	b.Add(U64, a, R(a), Imm(smem))
	b.Ld(Generic, 32, []Reg{v}, R(a))
	b.MulWide(a, R(tid), Imm(4))
	b.Add(U64, a, R(a), R(out))
	b.St(Global, 32, R(a), []Operand{R(v)})
	b.Exit()
	mem := runKernel(t, b.MustBuild(), D1(64), 64*4, 0)
	for tid := 0; tid < 64; tid++ {
		want := uint32((tid + 1) % 64)
		if got := u32At(mem, uint64(4*tid)); got != want {
			t.Fatalf("thread %d read %d, want %d", tid, got, want)
		}
	}
}

func TestVectorizedLoadStore(t *testing.T) {
	b := NewBuilder("vec")
	in := b.Param("in", U64)
	out := b.Param("out", U64)
	regs := b.Regs(4)
	b.Ld(Global, 128, regs, R(in))
	b.St(Global, 128, R(out), []Operand{R(regs[0]), R(regs[1]), R(regs[2]), R(regs[3])})
	b.Exit()
	mem := NewFlatMemory(128)
	for i := 0; i < 16; i++ {
		mem.Data[i] = byte(i * 7)
	}
	if err := RunGrid(b.MustBuild(), mem, D1(1), D1(1), []uint64{0, 64}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if mem.Data[64+i] != byte(i*7) {
			t.Fatalf("byte %d: got %d, want %d", i, mem.Data[64+i], byte(i*7))
		}
	}
}

func TestSpecialRegisters(t *testing.T) {
	b := NewBuilder("sregs")
	out := b.Param("out", U64)
	tid, ctaid, a := b.Reg(), b.Reg(), b.Reg()
	b.Mov(U32, tid, SR(SRegTidX))
	b.Mov(U32, ctaid, SR(SRegCtaIDX))
	// out[ctaid*blockDim + tid] = ctaid*1000 + tid
	v := b.Reg()
	b.Mad(U32, v, R(ctaid), Imm(1000), R(tid))
	linear := b.Reg()
	b.Mad(U32, linear, R(ctaid), SR(SRegNTidX), R(tid))
	b.MulWide(a, R(linear), Imm(4))
	b.Add(U64, a, R(a), R(out))
	b.St(Global, 32, R(a), []Operand{R(v)})
	b.Exit()
	mem := NewFlatMemory(4 * 8 * 3)
	if err := RunGrid(b.MustBuild(), mem, D1(3), D1(8), []uint64{0}); err != nil {
		t.Fatal(err)
	}
	for cta := 0; cta < 3; cta++ {
		for tid := 0; tid < 8; tid++ {
			want := uint32(cta*1000 + tid)
			if got := u32At(mem, uint64(4*(cta*8+tid))); got != want {
				t.Fatalf("cta %d tid %d: got %d, want %d", cta, tid, got, want)
			}
		}
	}
}

// RunGrid rejects a grid or block component below one, naming the field;
// a negative grid dimension used to run nothing and return nil, and an
// empty block ran CTAs with no warps.
func TestRunGridRejectsNonPositiveDims(t *testing.T) {
	b := NewBuilder("store")
	out := b.Param("out", U64)
	b.St(Global, 32, R(out), []Operand{Imm(7)})
	b.Exit()
	k := b.MustBuild()
	for _, c := range []struct {
		grid, block Dim3
		want        string
	}{
		{Dim3{-1, 1, 1}, D1(32), "grid.X is -1"},
		{Dim3{2, -1, 1}, D1(32), "grid.Y is -1"},
		{Dim3{2, 1, 0}, D1(32), "grid.Z is 0"},
		{D1(1), D1(0), "block.X is 0"},
		{D1(1), D1(-32), "block.X is -32"},
		{D1(1), Dim3{32, 0, 1}, "block.Y is 0"},
		{D1(1), Dim3{32, 1, -4}, "block.Z is -4"},
	} {
		mem := NewFlatMemory(4)
		err := RunGrid(k, mem, c.grid, c.block, []uint64{0})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("grid %v block %v: RunGrid = %v, want an error containing %q", c.grid, c.block, err, c.want)
		}
		if u32At(mem, 0) != 0 {
			t.Errorf("grid %v block %v: a rejected launch stored to memory", c.grid, c.block)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	b := NewBuilder("clock")
	out := b.Param("out", U64)
	c0, c1, d := b.Reg(), b.Reg(), b.Reg()
	b.Clock(c0)
	b.Add(U32, d, Imm(0), Imm(0)) // filler work
	b.Add(U32, d, R(d), Imm(1))
	b.Clock(c1)
	b.Sub(U32, d, R(c1), R(c0))
	b.St(Global, 32, R(out), []Operand{R(d)})
	b.Exit()
	mem := runKernel(t, b.MustBuild(), D1(1), 64, 0)
	if got := u32At(mem, 0); got == 0 {
		t.Error("clock did not advance across instructions")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad")
	b.Bra("nowhere")
	b.Exit()
	if _, err := b.Build(); err == nil {
		t.Error("unknown label should fail Build")
	}
	b2 := NewBuilder("dup")
	b2.Label("l")
	b2.Label("l")
	b2.Exit()
	if _, err := b2.Build(); err == nil {
		t.Error("duplicate label should fail Build")
	}
}

// writeF16Matrix lays out a host matrix in memory as binary16 with the
// matrix's own layout and stride.
func writeF16Matrix(mem *FlatMemory, base uint64, m *tensor.Matrix) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			bits := fp16.FromFloat64(m.At(i, j)).Bits()
			binary.LittleEndian.PutUint16(mem.Data[base+2*uint64(m.Index(i, j)):], bits)
		}
	}
}

func writeF32Matrix(mem *FlatMemory, base uint64, m *tensor.Matrix) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			binary.LittleEndian.PutUint32(mem.Data[base+4*uint64(m.Index(i, j)):], math.Float32bits(float32(m.At(i, j))))
		}
	}
}

func readF32Matrix(mem *FlatMemory, base uint64, rows, cols int, layout tensor.Layout) *tensor.Matrix {
	m := tensor.New(rows, cols, layout)
	m.FillFunc(func(i, j int) float64 {
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(mem.Data[base+4*uint64(m.Index(i, j)):])))
	})
	return m
}

// End to end: wmma.load ×3, wmma.mma, wmma.store through the executor must
// equal the pure functional model.
func TestWmmaEndToEnd(t *testing.T) {
	for _, cfg := range []wmma.Config{
		{Arch: wmma.Volta, Shape: wmma.M16N16K16, ALayout: tensor.RowMajor, BLayout: tensor.ColMajor, AType: wmma.F16, CType: wmma.F32, DType: wmma.F32},
		{Arch: wmma.Volta, Shape: wmma.M16N16K16, ALayout: tensor.ColMajor, BLayout: tensor.RowMajor, AType: wmma.F16, CType: wmma.F32, DType: wmma.F32},
		{Arch: wmma.Volta, Shape: wmma.M16N16K16, ALayout: tensor.RowMajor, BLayout: tensor.RowMajor, AType: wmma.F16, CType: wmma.F16, DType: wmma.F16},
	} {
		const baseA, baseB, baseC, baseD = 0, 1024, 2048, 4096
		b := NewBuilder("wmma_once")
		pa := b.Param("a", U64)
		pb := b.Param("b", U64)
		pc := b.Param("c", U64)
		pd := b.Param("d", U64)
		fa := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, R(pa), Imm(16))
		fb := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, R(pb), Imm(16))
		fc := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, tensor.RowMajor, cfg.CType, R(pc), Imm(16))
		fd := b.WmmaMMA(cfg, fa, fb, fc)
		b.WmmaStore(cfg.Arch, cfg.Shape, tensor.RowMajor, cfg.DType, R(pd), fd, Imm(16))
		b.Exit()
		k := b.MustBuild()

		a := tensor.New(16, 16, cfg.ALayout)
		bm := tensor.New(16, 16, cfg.BLayout)
		c := tensor.New(16, 16, tensor.RowMajor)
		rngFill(a, 3)
		rngFill(bm, 5)
		rngFill(c, 7)

		mem := NewFlatMemory(8192)
		writeF16Matrix(mem, baseA, a)
		writeF16Matrix(mem, baseB, bm)
		if cfg.CType == wmma.F32 {
			writeF32Matrix(mem, baseC, c)
		} else {
			writeF16Matrix(mem, baseC, c)
		}
		if err := RunGrid(k, mem, D1(1), D1(32), []uint64{baseA, baseB, baseC, baseD}); err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		want := wmma.MustMMA(cfg, a, bm, c, tensor.RowMajor)
		var got *tensor.Matrix
		if cfg.DType == wmma.F32 {
			got = readF32Matrix(mem, baseD, 16, 16, tensor.RowMajor)
		} else {
			got = tensor.New(16, 16, tensor.RowMajor)
			got.FillFunc(func(i, j int) float64 {
				bits := binary.LittleEndian.Uint16(mem.Data[baseD+2*uint64(got.Index(i, j)):])
				return fp16.FromBits(bits).Float64()
			})
		}
		if d := tensor.MaxAbsDiff(got, want); d != 0 {
			t.Errorf("%v: executor result differs from functional model by %g", cfg, d)
		}
	}
}

func rngFill(m *tensor.Matrix, seed int) {
	n := seed
	m.FillFunc(func(int, int) float64 {
		n = (n*1103515245 + 12345) & 0x7fffffff
		return float64(n%32-16) / 8
	})
}

// The accesses reported for a row-major wmma.load.a must be the two
// 128-bit loads of Section III-C.
func TestWmmaLoadAccessShapes(t *testing.T) {
	b := NewBuilder("wmma_access")
	pa := b.Param("a", U64)
	b.WmmaLoad(wmma.Volta, wmma.M16N16K16, wmma.MatrixA, tensor.RowMajor, wmma.F16, R(pa), Imm(16))
	b.Exit()
	k := b.MustBuild()
	env := &Env{Global: NewFlatMemory(1024), BlockDim: D1(32), GridDim: D1(1), Clock: func() uint64 { return 0 }}
	w, err := NewWarp(k, env, 0, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	perLane := map[int]int{}
	for _, a := range res.LaneAccesses() {
		if a.Bits != 128 {
			t.Fatalf("access of %d bits, want 128", a.Bits)
		}
		perLane[a.Lane]++
	}
	for lane, n := range perLane {
		if n != 2 {
			t.Fatalf("lane %d issued %d accesses, want 2", lane, n)
		}
	}
	if len(perLane) != 32 {
		t.Fatalf("%d lanes accessed memory, want 32", len(perLane))
	}
}
