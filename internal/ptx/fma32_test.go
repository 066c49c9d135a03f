package ptx

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// fmaF32Ref is fma.rn.f32 computed exactly: x·y+z in math/big at a
// precision that holds any binary32 product plus any binary32 addend
// (bits from 2^-298 to 2^255), rounded once by big.Float.Float32 —
// nearest-even, subnormals and overflow included. big.Float has no NaN
// and no signed exact-zero sum, and binary64 arithmetic is already right
// for both (an Inf or NaN operand decides the result whatever the
// rounding; an exact zero sum takes the IEEE sign), so those go there.
func fmaF32Ref(x, y, z uint64) uint64 {
	xf, yf, zf := float64(f32bits(x)), float64(f32bits(y)), float64(f32bits(z))
	if s := xf + yf + zf; s != s || math.IsInf(s, 0) || math.IsInf(xf, 0) || math.IsInf(yf, 0) || math.IsInf(zf, 0) {
		return bitsF32(float32(xf*yf + zf))
	}
	big64 := func(f float64) *big.Float { return new(big.Float).SetPrec(600).SetFloat64(f) }
	sum := big64(xf)
	sum.Mul(sum, big64(yf)).Add(sum, big64(zf))
	if sum.Sign() == 0 {
		return bitsF32(float32(xf*yf + zf))
	}
	r, _ := sum.Float32()
	return bitsF32(r)
}

// fmaF32Twice is the expression fmaF32 replaced: the binary64 FMA's
// result converted, two roundings.
func fmaF32Twice(x, y, z uint64) uint64 {
	return bitsF32(float32(math.FMA(float64(f32bits(x)), float64(f32bits(y)), float64(f32bits(z)))))
}

// sameF32 reports bit equality, with NaN as a class.
func sameF32(got, want uint64) bool {
	return got == want || f32bits(got) != f32bits(got) && f32bits(want) != f32bits(want)
}

// ld is the binary32 register image of m·2^e.
func ld(m float64, e int) uint64 { return bitsF32(float32(math.Ldexp(m, e))) }

const f32Sign = 1 << 31

// fmaTies are constructed triples whose binary64 sum lands exactly on a
// midpoint of the binary32 grid. In each group x·y is (or, with z, makes)
// the midpoint and z decides the side: below, exactly on (ties to even),
// or above, with the deciding part far under binary64's last bit. The
// rows marked hazard are the ones rounding twice gets wrong. fma(−x, y,
// −z) = −fma(x, y, z), so every row is also run negated.
var fmaTies = []struct {
	name    string
	x, y, z uint64
	want    uint64
	hazard  bool
}{
	// The issue's witness: 24929·2^-24 × 673 = 1 + 2^-24, the midpoint of
	// 1 (even) and 1 + 2^-23.
	{"witness", 0x3ac2c200, 0x44284000, 0x17800000, 0x3f800001, true},
	// (1+2^-12)² = 1 + 2^-11 + 2^-24: the lower neighbour is even.
	{"normal/even-below/below", ld(1+0x1p-12, 0), ld(1+0x1p-12, 0), ld(-1, -90), ld(1+0x1p-11, 0), false},
	{"normal/even-below/on", ld(1+0x1p-12, 0), ld(1+0x1p-12, 0), 0, ld(1+0x1p-11, 0), false},
	{"normal/even-below/above", ld(1+0x1p-12, 0), ld(1+0x1p-12, 0), ld(1, -90), ld(1+0x1p-11+0x1p-23, 0), true},
	// (1+2^-12)(1+3·2^-12) = 1 + 2^-10 + 2^-23 + 2^-24: the upper
	// neighbour is even.
	{"normal/even-above/below", ld(1+0x1p-12, 0), ld(1+0x3p-12, 0), ld(-1, -90), ld(1+0x1p-10+0x1p-23, 0), true},
	{"normal/even-above/on", ld(1+0x1p-12, 0), ld(1+0x3p-12, 0), 0, ld(1+0x1p-10+0x1p-22, 0), false},
	{"normal/even-above/above", ld(1+0x1p-12, 0), ld(1+0x3p-12, 0), ld(1, -90), ld(1+0x1p-10+0x1p-22, 0), false},
	// Subnormal results (the register image of k·2^-149 is k). x·y =
	// 2^-150·(1 − 2^-32), a hair under half a subnormal step, on an odd
	// k = 2^22+1: k + ½ − tiny stays at k, −k + ½ − tiny = −(k − ½ + tiny)
	// goes back up to −k; the binary64 sum is the midpoint both times.
	{"subnormal/below", ld(1+0x1p-16, -75), ld(1-0x1p-16, -75), 1<<22 | 1, 1<<22 | 1, true},
	{"subnormal/above", ld(1+0x1p-16, -75), ld(1-0x1p-16, -75), f32Sign | 1<<22 | 1, f32Sign | 1<<22 | 1, true},
	// Exact subnormal midpoints: 1.5, 2.5 and 3.5 steps.
	{"subnormal/on-1.5", ld(3, -75), ld(1, -75), 0, 2, false},
	{"subnormal/on-2.5", ld(3, -75), ld(1, -75), 1, 2, false},
	{"subnormal/on-3.5", ld(3, -75), ld(1, -75), 2, 4, false},
	// The overflow threshold (2^25−1)·2^103 = 18631·2^50 × 1801·2^53, the
	// midpoint of the largest finite value and 2^128.
	{"overflow/below", ld(18631, 50), ld(1801, 53), ld(-1, 40), 0x7f7fffff, true},
	{"overflow/on", ld(18631, 50), ld(1801, 53), 0, 0x7f800000, false},
	{"overflow/above", ld(18631, 50), ld(1801, 53), ld(1, 40), 0x7f800000, false},
}

func TestFmaF32ConstructedTies(t *testing.T) {
	hazards := 0
	for _, c := range fmaTies {
		for _, s := range []uint64{0, f32Sign} {
			x, z, want := c.x^s, c.z^s, c.want^s
			if ref := fmaF32Ref(x, c.y, z); ref != want {
				t.Errorf("%s sign %#x: the table says %#x, the exact reference %#x", c.name, s, want, ref)
			}
			if got := fmaF32(x, c.y, z); got != want {
				t.Errorf("%s sign %#x: fmaF32(%#x, %#x, %#x) = %#x, want %#x", c.name, s, x, c.y, z, got, want)
			}
			if _, once := fmaF32Fast(x, c.y, z); once {
				t.Errorf("%s sign %#x: a tie took the single-rounding path", c.name, s)
			}
			twice := fmaF32Twice(x, c.y, z)
			if (twice != want) != c.hazard {
				t.Errorf("%s sign %#x: rounding twice gives %#x, want %#x: hazard is marked %v", c.name, s, twice, want, c.hazard)
			}
			if twice != want {
				hazards++
			}
		}
	}
	if hazards == 0 {
		t.Error("no row is one that rounding twice gets wrong")
	}
}

// mad.f32 through StepInto on both executors, full-warp and guarded (the
// decoded executor's two loops): the lanes walk fmaTies, every other
// round negated.
func TestMadF32StepIntoRoundsOnce(t *testing.T) {
	triple := func(lane int) (x, y, z, want uint64) {
		c, s := fmaTies[lane%len(fmaTies)], uint64(lane/len(fmaTies)&1)*f32Sign
		return c.x ^ s, c.y, c.z ^ s, c.want ^ s
	}
	const sentinel = 0xdeadbeef
	for _, interpret := range []bool{false, true} {
		for _, guarded := range []bool{false, true} {
			t.Run(fmt.Sprintf("interpret=%v/guarded=%v", interpret, guarded), func(t *testing.T) {
				b := NewBuilder("mad_f32")
				in, out := b.Param("in", U64), b.Param("out", U64)
				tid, p, off, src, dst := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
				b.Mov(U32, tid, SR(SRegTidX))
				b.Setp(U32, CmpNE, p, R(tid), Imm(5))
				b.MulWide(off, R(tid), Imm(16))
				b.Add(U64, src, R(in), R(off))
				b.MulWide(off, R(tid), Imm(4))
				b.Add(U64, dst, R(out), R(off))
				xyz, r := b.Regs(4), b.Reg()
				b.Ld(Global, 128, xyz, R(src))
				b.Mov(U32, r, Imm(sentinel))
				if guarded {
					b.At(p, false)
				}
				b.Mad(F32, r, R(xyz[0]), R(xyz[1]), R(xyz[2]))
				b.St(Global, 32, R(dst), []Operand{R(r)})
				b.Exit()
				k := b.MustBuild()
				if interpret {
					k = InterpretedALU(k)
				}

				const outBase = 32 * 16
				mem := NewFlatMemory(outBase + 32*4)
				for i := 0; i < 32; i++ {
					x, y, z, _ := triple(i)
					binary.LittleEndian.PutUint32(mem.Data[16*i:], uint32(x))
					binary.LittleEndian.PutUint32(mem.Data[16*i+4:], uint32(y))
					binary.LittleEndian.PutUint32(mem.Data[16*i+8:], uint32(z))
				}
				if err := RunGrid(k, mem, D1(1), D1(32), []uint64{0, outBase}); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 32; i++ {
					x, y, z, want := triple(i)
					if guarded && i == 5 {
						want = sentinel
					}
					if got := uint64(binary.LittleEndian.Uint32(mem.Data[outBase+4*i:])); got != want {
						t.Errorf("lane %d (%s): mad.f32(%#x, %#x, %#x) = %#x, want %#x", i, fmaTies[i%len(fmaTies)].name, x, y, z, got, want)
					}
				}
			})
		}
	}
}

// fmaF32 against the exact reference over random and tie-biased triples,
// NaN as a class.
func TestFmaF32MatchesExact(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	rng := rand.New(rand.NewSource(19))
	sign := func() int { return rng.Intn(2) << 31 }
	rerounded, hazards := 0, 0
	for i := 0; i < n; i++ {
		var x, y, z uint64
		switch i % 4 {
		case 0: // raw bits: every class, NaN and Inf included
			x, y, z = uint64(rng.Uint32()), uint64(rng.Uint32()), uint64(rng.Uint32())
		case 1: // GEMM-like magnitudes, full significands
			g := func() uint64 { return uint64(sign() | (120+rng.Intn(12))<<23 | rng.Intn(1<<23)) }
			x, y, z = g(), g(), g()
		case 2:
			// Two odd 13-bit significands: the product is odd in 25 or 26
			// bits, and a 25-bit one is a binary32 midpoint; z is 2^-30
			// to 2^-90 of it, under binary64's last bit more often than not.
			ex, ey := 100+rng.Intn(50), 100+rng.Intn(50)
			x = uint64(sign() | ex<<23 | rng.Intn(1<<11)<<12 | 1<<11)
			y = uint64(sign() | ey<<23 | rng.Intn(1<<11)<<12 | 1<<11)
			z = uint64(sign() | max(1, ex+ey-127-30-rng.Intn(60))<<23 | rng.Intn(1<<23))
		case 3:
			// Subnormal results: a product around 2^-150 with a long tail
			// (the sum is inexact in binary64) on a subnormal addend.
			ex := 40 + rng.Intn(24)
			x = uint64(sign() | ex<<23 | rng.Intn(1<<23))
			y = uint64(sign() | (104-ex+rng.Intn(4))<<23 | rng.Intn(1<<23)) // unbiased exponents sum to −150…−147
			z = uint64(sign() | rng.Intn(1<<23))
			if i%8 == 3 { // a hair off half a step: the subnormal rows of fmaTies at a random k
				x, y = ld(1+0x1p-16, -75)^uint64(sign()), ld(1-0x1p-16, -75)
			}
		}
		got, want := fmaF32(x, y, z), fmaF32Ref(x, y, z)
		if !sameF32(got, want) {
			t.Fatalf("fmaF32(%#x, %#x, %#x) = %#x, exact rounding gives %#x", x, y, z, got, want)
		}
		if _, once := fmaF32Fast(x, y, z); !once {
			rerounded++
		}
		if !sameF32(fmaF32Twice(x, y, z), want) {
			hazards++
		}
	}
	t.Logf("%d triples: %d re-rounded, %d of them wrong when rounded twice", n, rerounded, hazards)
	if rerounded < n/50 || hazards < n/1000 {
		t.Errorf("%d of %d triples re-rounded and %d wrong when rounded twice: the tie bias is not working", rerounded, n, hazards)
	}
}
