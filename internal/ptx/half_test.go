package ptx

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/fp16"
)

// halfSpecials is the special-value table of the packed-half tests: both
// zeros, the subnormal and normal range edges, values whose products and
// sums round (1/3, 1+ulp), overflow and cancel, infinities, and quiet and
// signalling NaNs of both signs.
var halfSpecials = []uint16{
	0x0000, 0x8000, // ±0
	0x0001, 0x83ff, // smallest and (negative) largest subnormal
	0x0400, 0x8400, // ±2^-14, the smallest normal
	0x3c00, 0xbc00, // ±1
	0x3c01, 0x3555, 0xb555, // 1+ulp, ±1/3
	0x4248, 0x5640, // 3.140625, 100
	0x7bff, 0xfbff, // ±65504
	0x7c00, 0xfc00, // ±Inf
	0x7e00, 0xfe00, 0x7c01, 0xfd55, // quiet and signalling NaNs
}

// sameHalf reports bit equality, with NaN as a class: which payload a sum
// of two NaNs keeps is not pinned (see fmaF16X2).
func sameHalf(got, want fp16.Float16) bool {
	return got == want || got.IsNaN() && want.IsNaN()
}

func pack(hi, lo uint16) uint64 { return uint64(hi)<<16 | uint64(lo) }

// halfTriple returns the i-th packed (a, b, c) of a walk over every
// triple of halfSpecials in the low halves, with the high halves drawn
// from the same table at different strides so the two halves of a word
// never hold the same triple.
func halfTriple(i int) (a, b, c uint64) {
	n := len(halfSpecials)
	s := func(j int) uint16 { return halfSpecials[j%n] }
	ia, ib, ic := i%n, i/n%n, i/(n*n)%n
	return pack(s(ib+1), s(ia)), pack(s(ic+2), s(ib)), pack(s(ia+3), s(ic))
}

// The packed primitive against fp16.FMA per half, over every triple of
// special values with distinct halves.
func TestFmaF16X2MatchesFMA(t *testing.T) {
	n := len(halfSpecials)
	for i := 0; i < n*n*n; i++ {
		a, b, c := halfTriple(i)
		got := fmaF16X2(a, b, c)
		if got>>32 != 0 {
			t.Fatalf("fmaF16X2(%#x, %#x, %#x) = %#x: bits above the pair", a, b, c, got)
		}
		for _, sh := range []uint{0, 16} {
			want := fp16.FMA(h16(a>>sh), h16(b>>sh), h16(c>>sh))
			if g := h16(got >> sh); !sameHalf(g, want) {
				t.Fatalf("fmaF16X2(%#x, %#x, %#x) half at bit %d = %#04x, fp16.FMA gives %#04x", a, b, c, sh, g, want)
			}
		}
	}
	// The upper 32 bits of a register are not part of an f16x2 operand.
	if got, want := fmaF16X2(0xdead<<32|pack(0x3c00, 0x4248), 0xbeef<<32|pack(0x4248, 0x3c00), pack(0, 0)), pack(0x4248, 0x4248); got != want {
		t.Errorf("fmaF16X2 with dirty upper bits = %#x, want %#x", got, want)
	}
}

// mad.f16x2 through StepInto: every thread multiplies-and-adds its own
// triple of distinct-halved special values, under a full mask and on a
// 48-thread block (one full warp, one of 16 lanes), unguarded, under @p
// and under @!p (p = tid even). Lanes the guard switches off must keep
// the destination's previous value, threads beyond the block must store
// nothing, and every enabled lane must equal fp16.FMA per half.
func TestMadF16X2StepInto(t *testing.T) {
	const sentinel = 0xdeadbeef
	for _, threads := range []int{64, 48} {
		for _, guard := range []string{"", "p", "!p"} {
			t.Run(fmt.Sprintf("%d/%s", threads, guard), func(t *testing.T) {
				b := NewBuilder("mad_h2")
				in, out := b.Param("in", U64), b.Param("out", U64)
				tid, odd, p, off := b.Reg(), b.Reg(), b.Reg(), b.Reg()
				b.Mov(U32, tid, SR(SRegTidX))
				b.And(U32, odd, R(tid), Imm(1))
				b.Setp(U32, CmpEQ, p, R(odd), Imm(0))
				src, dst := b.Reg(), b.Reg()
				b.MulWide(off, R(tid), Imm(16))
				b.Add(U64, src, R(in), R(off))
				b.MulWide(off, R(tid), Imm(4))
				b.Add(U64, dst, R(out), R(off))
				xyz, r := b.Regs(4), b.Reg()
				b.Ld(Global, 128, xyz, R(src))
				b.Mov(U32, r, Imm(sentinel))
				if guard != "" {
					b.At(p, guard == "!p")
				}
				b.Mad(F16X2, r, R(xyz[0]), R(xyz[1]), R(xyz[2]))
				b.St(Global, 32, R(dst), []Operand{R(r)})
				b.Exit()
				k := b.MustBuild()

				// A different slice of the triple walk per configuration.
				triple := func(thread int) (x, y, z uint64) { return halfTriple(thread*37 + threads + len(guard)) }
				const outBase = 64 * 16
				mem := NewFlatMemory(outBase + 64*4)
				for i := 0; i < 64; i++ {
					x, y, z := triple(i)
					binary.LittleEndian.PutUint32(mem.Data[16*i:], uint32(x))
					binary.LittleEndian.PutUint32(mem.Data[16*i+4:], uint32(y))
					binary.LittleEndian.PutUint32(mem.Data[16*i+8:], uint32(z))
				}
				for i := outBase; i < len(mem.Data); i++ {
					mem.Data[i] = untouched
				}
				if err := RunGrid(k, mem, D1(1), D1(threads), []uint64{0, outBase}); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 64; i++ {
					got := binary.LittleEndian.Uint32(mem.Data[outBase+4*i:])
					on := guard == "" || (guard == "p") == (i%2 == 0)
					switch {
					case i >= threads:
						if got != untouched*0x01010101 {
							t.Errorf("thread %d is beyond the block but stored %#x", i, got)
						}
					case !on:
						if got != sentinel {
							t.Errorf("thread %d is guarded off but its destination became %#x", i, got)
						}
					default:
						x, y, z := triple(i)
						for _, sh := range []uint{0, 16} {
							want := fp16.FMA(h16(x>>sh), h16(y>>sh), h16(z>>sh))
							if g := h16(uint64(got) >> sh); !sameHalf(g, want) {
								t.Errorf("thread %d: mad.f16x2(%#x, %#x, %#x) half at bit %d = %#04x, fp16.FMA gives %#04x",
									i, x, y, z, sh, g, want)
							}
						}
					}
				}
			})
		}
	}
}

// PTX min/max without .NaN return the non-NaN operand, and NaN only when
// both operands are NaN — whichever side the NaN is on.
func TestFloatMinMaxNaN(t *testing.T) {
	halfNaN := func(v uint64) bool { return h16(v).IsNaN() }
	for _, e := range []struct {
		t        Type
		x, y     uint64 // two ordinary values and
		min, max uint64 // their minimum and maximum
		nan      uint64
		isNaN    func(uint64) bool
	}{
		{F32, bitsF32(1), bitsF32(2), bitsF32(1), bitsF32(2), bitsF32(float32(math.NaN())),
			func(v uint64) bool { return f32bits(v) != f32bits(v) }},
		{F16, 0x3c00, 0x4000, 0x3c00, 0x4000, 0x7e00, halfNaN},
		// Packed: (1, 2) against (2, 1), and two different NaNs.
		{F16X2, pack(0x3c00, 0x4000), pack(0x4000, 0x3c00), pack(0x3c00, 0x3c00), pack(0x4000, 0x4000), pack(0x7e00, 0xfe01),
			func(v uint64) bool { return halfNaN(v) && halfNaN(v>>16) }},
	} {
		for _, op := range []Opcode{OpMin, OpMax} {
			name, ordinary := "min", e.min
			if op == OpMax {
				name, ordinary = "max", e.max
			}
			check := func(a, b uint64, what string, ok func(uint64) bool) {
				t.Helper()
				got, err := arith(op, e.t, a, b)
				if err != nil {
					t.Fatal(err)
				}
				if !ok(got) {
					t.Errorf("%s.%v(%#x, %#x) = %#x, want %s", name, e.t, a, b, got, what)
				}
			}
			is := func(want uint64) func(uint64) bool { return func(got uint64) bool { return got == want } }
			for _, v := range []uint64{e.x, e.y} {
				check(v, e.nan, "the non-NaN operand", is(v))
				check(e.nan, v, "the non-NaN operand", is(v))
			}
			check(e.nan, e.nan, "NaN", e.isNaN)
			check(e.x, e.y, "the ordinary result", is(ordinary))
			check(e.y, e.x, "the ordinary result", is(ordinary))
		}
	}
}
