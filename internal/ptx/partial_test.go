package ptx

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/fp16"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// Directed checks, against values computed here rather than against a
// second execution path, of the code a fully populated unguarded warp
// never reaches: a 48-thread block is one full warp plus one of 16
// lanes, so every ld/st and wmma instruction below also runs with a
// partial lane mask, and the last store adds a guard on top.

const untouched = 0xA5 // background byte of every output region

func TestPartialWarpLoadStore(t *testing.T) {
	const threads = 48
	b := NewBuilder("partial_ldst")
	in, out := b.Param("in", U64), b.Param("out", U64)
	smem := b.Shared(threads * 8)
	tid, off8, off4 := b.Reg(), b.Reg(), b.Reg()
	b.Mov(U32, tid, SR(SRegTidX))
	b.MulWide(off8, R(tid), Imm(8))
	b.MulWide(off4, R(tid), Imm(4))
	src, stage, dst := b.Reg(), b.Reg(), b.Reg()
	b.Add(U64, src, R(in), R(off8))
	b.Add(U64, stage, R(off8), Imm(smem))
	b.Add(U64, dst, R(out), R(off4))
	// Global vector load, staged through shared memory and read back.
	xy, pq := b.Regs(2), b.Regs(2)
	b.Ld(Global, 64, xy, R(src))
	b.St(Shared, 64, R(stage), []Operand{R(xy[0]), R(xy[1])})
	b.Ld(Shared, 64, pq, R(stage))
	sum, odd, p := b.Reg(), b.Reg(), b.Reg()
	b.Add(U32, sum, R(pq[0]), R(pq[1]))
	b.And(U32, odd, R(tid), Imm(1))
	b.Setp(U32, CmpNE, p, R(odd), Imm(0))
	b.At(p, false).St(Global, 32, R(dst), []Operand{R(sum)})
	b.Exit()
	k := b.MustBuild()

	const outBase = 1024
	mem := NewFlatMemory(2048)
	for i := 0; i < 64; i++ { // two words per thread, 16 threads beyond the block
		binary.LittleEndian.PutUint32(mem.Data[8*i:], uint32(1000+3*i))
		binary.LittleEndian.PutUint32(mem.Data[8*i+4:], uint32(7*i))
	}
	for i := outBase; i < len(mem.Data); i++ {
		mem.Data[i] = untouched
	}
	if err := RunGrid(k, mem, D1(1), D1(threads), []uint64{0, outBase}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		want := uint32(untouched) * 0x01010101
		if i < threads && i%2 == 1 {
			want = uint32(1000+3*i) + uint32(7*i)
		}
		if got := binary.LittleEndian.Uint32(mem.Data[outBase+4*i:]); got != want {
			t.Errorf("thread %d: out = %#x, want %#x", i, got, want)
		}
	}
}

func TestPartialWarpWmma(t *testing.T) {
	cfg := wmma.Config{Arch: wmma.Volta, Shape: wmma.M16N16K16,
		ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
		AType: wmma.F16, CType: wmma.F32, DType: wmma.F32}
	const aBase, bBase, cBase, dBase, tile = 0, 512, 1024, 2048, 1024
	b := NewBuilder("partial_wmma")
	pa, pb, pc, pd := b.Param("a", U64), b.Param("b", U64), b.Param("c", U64), b.Param("d", U64)
	// Each warp stores its D tile to its own region: d + warpid·tile.
	wid, doff := b.Reg(), b.Reg()
	b.Mov(U32, wid, SR(SRegWarpID))
	b.MulWide(doff, R(wid), Imm(tile))
	b.Add(U64, doff, R(doff), R(pd))
	fa := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, R(pa), Imm(16))
	fb := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, R(pb), Imm(16))
	fc := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, tensor.RowMajor, cfg.CType, R(pc), Imm(16))
	fd := b.WmmaMMA(cfg, fa, fb, fc)
	b.WmmaStore(cfg.Arch, cfg.Shape, tensor.RowMajor, cfg.DType, R(doff), fd, Imm(16))
	b.Exit()
	k := b.MustBuild()

	// Small integers: every product and sum is exact in fp16/fp32.
	a := tensor.New(16, 16, tensor.RowMajor)
	bm := tensor.New(16, 16, tensor.ColMajor)
	c := tensor.New(16, 16, tensor.RowMajor)
	a.FillFunc(func(i, j int) float64 { return float64((i+2*j)%5 - 2) })
	bm.FillFunc(func(i, j int) float64 { return float64((3*i+j)%7 - 3) })
	c.FillFunc(func(i, j int) float64 { return float64(i*16 + j) })
	mem := NewFlatMemory(dBase + 2*tile)
	for i := range a.Data {
		binary.LittleEndian.PutUint16(mem.Data[aBase+2*i:], fp16.FromFloat64(a.Data[i]).Bits())
		binary.LittleEndian.PutUint16(mem.Data[bBase+2*i:], fp16.FromFloat64(bm.Data[i]).Bits())
		binary.LittleEndian.PutUint32(mem.Data[cBase+4*i:], math.Float32bits(float32(c.Data[i])))
	}
	for i := dBase; i < len(mem.Data); i++ {
		mem.Data[i] = untouched
	}
	if err := RunGrid(k, mem, D1(1), D1(48), []uint64{aBase, bBase, cBase, dBase}); err != nil {
		t.Fatal(err)
	}

	in := &k.Instrs[len(k.Instrs)-3] // the wmma.mma
	ones := tensor.New(16, 16, tensor.RowMajor)
	ones.FillConst(1)
	for warp, lanes := range []int{32, 16} {
		// A lane that is off neither contributes its fragment elements
		// to the operand tiles (they read as zero) nor stores its share
		// of D.
		held := func(m *wmma.Mapping, full *tensor.Matrix) *tensor.Matrix {
			out := tensor.New(full.Rows, full.Cols, tensor.RowMajor)
			for lane := 0; lane < lanes; lane++ {
				for _, co := range m.Lanes[lane] {
					out.Set(co.Row, co.Col, full.At(co.Row, co.Col))
				}
			}
			return out
		}
		d := tensor.New(16, 16, tensor.RowMajor)
		if err := wmma.MMAInto(cfg, held(in.WMapA, a), held(in.WMapB, bm), held(in.WMap, c), d); err != nil {
			t.Fatal(err)
		}
		stored := held(in.WMapD, d)
		covered := held(in.WMapD, ones)
		for i := 0; i < 256; i++ {
			want := uint32(untouched) * 0x01010101
			if covered.Data[i] != 0 {
				want = math.Float32bits(float32(stored.Data[i]))
			}
			if got := binary.LittleEndian.Uint32(mem.Data[dBase+warp*tile+4*i:]); got != want {
				t.Fatalf("warp %d (%d lanes) D[%d][%d] = %#x, want %#x", warp, lanes, i/16, i%16, got, want)
			}
		}
	}
}
