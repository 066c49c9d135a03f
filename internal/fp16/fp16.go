// Package fp16 implements IEEE 754-2008 binary16 ("half precision")
// floating point in software.
//
// The Volta and Turing tensor cores operate on FP16 operands; the paper's
// GPGPU-Sim extension used a C++ header-only half-precision library for the
// same purpose. This package is that substrate: conversions to and from
// float32/float64 with round-to-nearest-even, arithmetic, comparisons, and
// the two accumulation flavours the tensor cores expose (FP16 accumulate and
// FP32 "mixed precision" accumulate).
//
// Arithmetic is computed exactly in float64 and rounded once to binary16.
// Products of two binary16 values need 22 significand bits and sums of two
// binary16 values need at most 51, so Add, Sub and Mul are correctly rounded.
// Div and FMA are rounded from the float64 result and may double-round in a
// handful of borderline cases; real tensor cores are themselves not
// bit-exact IEEE here, so this matches the fidelity of the original model.
package fp16

import (
	"math"
	"strconv"
)

// Float16 is an IEEE 754 binary16 value stored in its raw bit pattern:
// 1 sign bit, 5 exponent bits (bias 15), 10 significand bits.
type Float16 uint16

// Useful constants, expressed as bit patterns.
const (
	PositiveZero     Float16 = 0x0000
	NegativeZero     Float16 = 0x8000
	PositiveInfinity Float16 = 0x7c00
	NegativeInfinity Float16 = 0xfc00
	QuietNaN         Float16 = 0x7e00 // canonical quiet NaN
	One              Float16 = 0x3c00
	NegOne           Float16 = 0xbc00
	Max              Float16 = 0x7bff // 65504
	SmallestNormal   Float16 = 0x0400 // 2^-14
	SmallestSubnorm  Float16 = 0x0001 // 2^-24
	Epsilon          Float16 = 0x1400 // 2^-10, gap between 1 and the next value
)

const (
	signMask     = 0x8000
	expMask      = 0x7c00
	manMask      = 0x03ff
	expBias      = 15
	manBits      = 10
	maxExpField  = 0x1f
	maxFiniteF64 = 65504.0
)

// FromBits returns the Float16 with the given raw bit representation.
func FromBits(b uint16) Float16 { return Float16(b) }

// Bits returns the raw IEEE 754 binary16 bit representation of x.
func (x Float16) Bits() uint16 { return uint16(x) }

// FromFloat32 converts f to binary16 using round-to-nearest-even.
// Values too large in magnitude become infinities; NaN payload top bits are
// preserved where possible.
func FromFloat32(f float32) Float16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & signMask
	exp := int32(b>>23) & 0xff
	man := b & 0x7fffff

	if exp == 0xff { // Inf or NaN
		if man != 0 {
			m := uint16(man >> 13)
			if m == 0 {
				m = 1 // keep it a NaN after truncation
			}
			return Float16(sign | expMask | m)
		}
		return Float16(sign | expMask)
	}

	e := exp - 127 + expBias
	if e >= maxExpField {
		return Float16(sign | expMask) // overflow to infinity
	}
	if e <= 0 {
		// Result is subnormal (or rounds to zero / smallest subnormal).
		if e < -10 {
			// Magnitude strictly below 2^-25, half the smallest subnormal:
			// rounds to zero. The e == -10 case below handles the midpoint.
			return Float16(sign)
		}
		man |= 0x800000 // make the implicit leading 1 explicit
		shift := uint32(14 - e)
		m := man >> shift
		rem := man & ((1 << shift) - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && m&1 == 1) {
			m++ // may carry into the normal range; the encoding works out
		}
		return Float16(sign | uint16(m))
	}
	// Normal number: shift 23-bit mantissa down to 10 bits with RNE.
	m := man >> 13
	rem := man & 0x1fff
	if rem > 0x1000 || (rem == 0x1000 && m&1 == 1) {
		m++
		if m == 0x400 { // mantissa carry-out bumps the exponent
			m = 0
			e++
			if e >= maxExpField {
				return Float16(sign | expMask)
			}
		}
	}
	return Float16(sign | uint16(e)<<manBits | uint16(m))
}

// FromFloat64 converts f to binary16 using round-to-nearest-even. It rounds
// directly from the float64 value, avoiding the double rounding that a
// float64→float32→float16 chain could introduce. Every arithmetic result
// (Add, Sub, Mul, Div, FMA) and every tile and upload encoder rounds
// through here; the common case is RoundNormal64's few integer operations.
func FromFloat64(f float64) Float16 {
	if h, ok := RoundNormal64(f); ok {
		return h
	}
	return fromFloat64General(f)
}

// Bounds of RoundNormal64's range, as binary64 magnitudes: RoundNormal's
// two bounds, widened.
const (
	minNormal64   = 0x3f10000000000000 // 2^-14
	roundsToInf64 = 0x40effe0000000000 // 65520
)

// RoundNormal64 is the part of FromFloat64 that is integer arithmetic on
// the binary64 image, small enough to inline: the binary64 sibling of
// RoundNormal, returning binary16 bits. A loop that cannot afford a call
// per rounding uses h when ok and calls FromFloat64 otherwise. ok reports
// that f is ±0 — all a simulation on zeroed memory ever rounds — or has a
// magnitude in [2^-14, 65520), where the result is a normal binary16
// value. The rounding adds half an ulp of the 10-bit significand (less one
// on an even last bit, so ties go to even), drops the 42 bits below it and
// rebiases the exponent; a carry out of the significand bumps the
// exponent, which is the right answer. Results below the normal range,
// overflow to infinity and NaNs are not ok.
//
//simlint:hotpath
func RoundNormal64(f float64) (h Float16, ok bool) {
	b := math.Float64bits(f)
	abs := b &^ (1 << 63)
	r := uint16((abs+(1<<41-1)+abs>>42&1)>>42 - (1023-expBias)<<manBits)
	if abs == 0 {
		r = 0
	}
	return Float16(uint16(b>>48)&signMask | r), abs-minNormal64 < roundsToInf64-minNormal64 || abs == 0
}

// fromFloat64General is FromFloat64 for every input: the conversion as it
// was before RoundNormal64 took the common case, kept whole as the path
// for subnormal results, overflow, infinities and NaNs and as the
// reference the tests hold RoundNormal64 to.
func fromFloat64General(f float64) Float16 {
	b := math.Float64bits(f)
	sign := uint16(b>>48) & signMask
	exp := int64(b>>52) & 0x7ff
	man := b & 0xfffffffffffff

	if exp == 0x7ff { // Inf or NaN
		if man != 0 {
			m := uint16(man >> 42)
			if m == 0 {
				m = 1
			}
			return Float16(sign | expMask | m)
		}
		return Float16(sign | expMask)
	}

	e := exp - 1023 + expBias
	if e >= maxExpField {
		return Float16(sign | expMask)
	}
	if e <= 0 {
		if e < -10 {
			return Float16(sign)
		}
		man |= 1 << 52
		shift := uint64(43 - e)
		m := man >> shift
		rem := man & ((1 << shift) - 1)
		half := uint64(1) << (shift - 1)
		if rem > half || (rem == half && m&1 == 1) {
			m++
		}
		return Float16(sign | uint16(m))
	}
	m := man >> 42
	rem := man & ((1 << 42) - 1)
	const half42 = uint64(1) << 41
	if rem > half42 || (rem == half42 && m&1 == 1) {
		m++
		if m == 0x400 {
			m = 0
			e++
			if e >= maxExpField {
				return Float16(sign | expMask)
			}
		}
	}
	return Float16(sign | uint16(e)<<manBits | uint16(m))
}

// f32Table holds the exact binary32 image of every binary16 value. The
// conversion sits on the simulator's hottest path (every FEDP multiply
// widens its inputs), so the 256 KiB table replaces the bit-twiddling
// decode. It is filled once by init and read-only afterwards, which keeps
// concurrent simulator instances race-free.
var f32Table [1 << 16]float32

func init() {
	for i := range f32Table {
		f32Table[i] = Float16(i).float32Slow()
	}
}

// Float32 returns x converted exactly to float32 (every binary16 value is
// exactly representable in binary32).
func (x Float16) Float32() float32 { return f32Table[x] }

func (x Float16) float32Slow() float32 {
	sign := uint32(x&signMask) << 16
	exp := uint32(x>>manBits) & maxExpField
	man := uint32(x & manMask)

	switch {
	case exp == maxExpField:
		if man != 0 {
			return math.Float32frombits(sign | 0x7f800000 | 0x400000 | man<<13)
		}
		return math.Float32frombits(sign | 0x7f800000)
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize into the binary32 format.
		e := uint32(127 - expBias + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= manMask
		return math.Float32frombits(sign | e<<23 | man<<13)
	}
	return math.Float32frombits(sign | (exp+127-expBias)<<23 | man<<13)
}

// Float64 returns x converted exactly to float64.
func (x Float16) Float64() float64 { return float64(x.Float32()) }

// RoundFloat32 rounds f to the nearest binary16 value (ties to even) and
// returns it widened back to binary32: FromFloat32(f).Float32() without
// the encode and the table decode. The FP16 accumulation of wmma.mma
// rounds once per FEDP chunk, so this sits under every multiply-add of an
// FP16-mode GEMM.
func RoundFloat32(f float32) float32 {
	if r, ok := RoundNormal(f); ok {
		return r
	}
	return FromFloat32(f).Float32()
}

// Bounds of RoundNormal's range, as binary32 magnitudes: the smallest
// normal binary16 value, and the midpoint between Max and 2^16 — the first
// magnitude that rounds to infinity.
const (
	minNormal32   = 0x38800000 // 2^-14
	roundsToInf32 = 0x477ff000 // 65520
)

// RoundNormal is the part of RoundFloat32 that is integer arithmetic on
// the binary32 image, small enough to inline where RoundFloat32 (which
// has a call in it) is not: a loop that cannot afford a call per rounding
// uses r when ok and calls RoundFloat32 otherwise. ok reports that f is
// ±0 — all a simulation on zeroed memory ever rounds — or has a magnitude
// in [2^-14, 65520), where the result is a normal binary16 value. The
// rounding adds half an ulp of the 10-bit significand (less one on an
// even last bit, so ties go to even) and clears the 13 bits below it; a
// carry out of the significand bumps the exponent, which is the right
// answer, and ±0 passes through unchanged. Magnitudes below the normal
// range, overflow to infinity and NaNs are not ok.
func RoundNormal(f float32) (r float32, ok bool) {
	b := math.Float32bits(f)
	abs := b &^ (1 << 31)
	r = math.Float32frombits((b + 0xfff + b>>13&1) &^ 0x1fff)
	return r, abs-minNormal32 < roundsToInf32-minNormal32 || abs == 0
}

// IsNaN reports whether x is a NaN.
func (x Float16) IsNaN() bool { return x&expMask == expMask && x&manMask != 0 }

// IsInf reports whether x is an infinity with the given sign: +1 for
// positive, -1 for negative, 0 for either.
func (x Float16) IsInf(sign int) bool {
	if x&expMask != expMask || x&manMask != 0 {
		return false
	}
	switch {
	case sign > 0:
		return x&signMask == 0
	case sign < 0:
		return x&signMask != 0
	}
	return true
}

// IsZero reports whether x is positive or negative zero.
func (x Float16) IsZero() bool { return x&^Float16(signMask) == 0 }

// IsSubnormal reports whether x is a nonzero subnormal value.
func (x Float16) IsSubnormal() bool { return x&expMask == 0 && x&manMask != 0 }

// Signbit reports whether x's sign bit is set (true for negative values and
// negative zero).
func (x Float16) Signbit() bool { return x&signMask != 0 }

// Neg returns -x (flips the sign bit, including for NaN and zero).
func (x Float16) Neg() Float16 { return x ^ signMask }

// Abs returns |x| (clears the sign bit).
func (x Float16) Abs() Float16 { return x &^ signMask }

// Add returns the correctly rounded sum x + y.
func (x Float16) Add(y Float16) Float16 { return FromFloat64(x.Float64() + y.Float64()) }

// Sub returns the correctly rounded difference x - y.
func (x Float16) Sub(y Float16) Float16 { return FromFloat64(x.Float64() - y.Float64()) }

// Mul returns the correctly rounded product x * y.
func (x Float16) Mul(y Float16) Float16 { return FromFloat64(x.Float64() * y.Float64()) }

// Div returns the quotient x / y rounded from the float64 result.
func (x Float16) Div(y Float16) Float16 { return FromFloat64(x.Float64() / y.Float64()) }

// FMA returns a*b + c computed with a single rounding from the float64
// result (the product a*b is exact in float64).
func FMA(a, b, c Float16) Float16 {
	return FromFloat64(a.Float64()*b.Float64() + c.Float64())
}

// MulTo32 returns the exact product a*b as a float32. Every product of two
// binary16 values is exactly representable in binary32; this is the first
// stage of a mixed-precision tensor core dot product.
func MulTo32(a, b Float16) float32 { return a.Float32() * b.Float32() }

// MAC32 performs one mixed-precision multiply-accumulate step: the exact
// FP16×FP16 product is added to the FP32 accumulator with FP32 rounding,
// mirroring the tensor core mixed-precision datapath.
func MAC32(acc float32, a, b Float16) float32 { return acc + MulTo32(a, b) }

// Less reports whether x < y under IEEE ordering (false if either is NaN).
func (x Float16) Less(y Float16) bool {
	if x.IsNaN() || y.IsNaN() {
		return false
	}
	return x.Float32() < y.Float32()
}

// Eq reports IEEE equality (false if either is NaN; -0 == +0).
func (x Float16) Eq(y Float16) bool {
	if x.IsNaN() || y.IsNaN() {
		return false
	}
	return x.Float32() == y.Float32()
}

// String formats x like strconv.FormatFloat with the shortest representation
// that round-trips through float32.
func (x Float16) String() string {
	return strconv.FormatFloat(x.Float64(), 'g', -1, 32)
}
