package fp16

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// decodeRef decodes a binary16 bit pattern into an exact float64 using only
// math.Ldexp, as an independent reference for the conversion code.
func decodeRef(b uint16) float64 {
	sign := 1.0
	if b&0x8000 != 0 {
		sign = -1.0
	}
	exp := int(b>>10) & 0x1f
	man := int(b & 0x3ff)
	switch exp {
	case 0x1f:
		if man != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	case 0:
		return sign * math.Ldexp(float64(man), -24)
	}
	return sign * math.Ldexp(float64(man+1024), exp-25)
}

func TestFloat32Exhaustive(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		x := FromBits(uint16(i))
		got := float64(x.Float32())
		want := decodeRef(uint16(i))
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("bits %#04x: got %v, want NaN", i, got)
			}
			continue
		}
		if got != want {
			t.Fatalf("bits %#04x: Float32 = %v, want %v", i, got, want)
		}
		// Signed zero must be preserved.
		if want == 0 && math.Signbit(want) != math.Signbit(got) {
			t.Fatalf("bits %#04x: zero sign mismatch", i)
		}
	}
}

func TestRoundTripExhaustive(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		x := FromBits(uint16(i))
		back32 := FromFloat32(x.Float32())
		back64 := FromFloat64(x.Float64())
		if x.IsNaN() {
			if !back32.IsNaN() || !back64.IsNaN() {
				t.Fatalf("bits %#04x: NaN not preserved (%#04x, %#04x)", i, back32, back64)
			}
			continue
		}
		if back32 != x {
			t.Fatalf("bits %#04x: float32 round trip gave %#04x", i, back32)
		}
		if back64 != x {
			t.Fatalf("bits %#04x: float64 round trip gave %#04x", i, back64)
		}
	}
}

func TestFromFloat64MatchesFromFloat32(t *testing.T) {
	// float64(x) is exact for any float32 x, so rounding the float64 to
	// half must agree with rounding the float32 directly.
	f := func(bits uint32) bool {
		x := math.Float32frombits(bits)
		a, b := FromFloat32(x), FromFloat64(float64(x))
		if a.IsNaN() && b.IsNaN() {
			return true
		}
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundToNearestEven(t *testing.T) {
	ulp := math.Ldexp(1, -10) // spacing just above 1.0
	cases := []struct {
		in   float64
		want Float16
	}{
		{1 + ulp/2, One},                           // midpoint ties to even (mantissa 0)
		{1 + ulp + ulp/2, FromBits(0x3c02)},        // ties to even (mantissa 2)
		{1 + ulp/2 + ulp/1024, FromBits(0x3c01)},   // just above midpoint rounds up
		{1 - ulp/4, One},                           // ulp shrinks below 1.0: midpoint ties to even
		{65504, Max},                               // max finite
		{65519.5, Max},                             // below overflow midpoint
		{65520, PositiveInfinity},                  // overflow midpoint rounds away to Inf
		{65536, PositiveInfinity},                  // beyond max
		{-65520, NegativeInfinity},                 //
		{math.Ldexp(1, -24), SmallestSubnorm},      // exact smallest subnormal
		{math.Ldexp(1, -25), PositiveZero},         // midpoint between 0 and 2^-24 ties to zero
		{math.Ldexp(1.0001, -25), SmallestSubnorm}, // just above midpoint rounds up
		{math.Ldexp(1, -26), PositiveZero},         // below midpoint
		{math.Ldexp(3, -25), FromBits(0x0002)},     // midpoint between 2^-24 and 2^-23 ties to even
		{math.Ldexp(1, -14), SmallestNormal},       // smallest normal
		{0, PositiveZero},
		{math.Copysign(0, -1), NegativeZero},
	}
	for _, c := range cases {
		if got := FromFloat64(c.in); got != c.want {
			t.Errorf("FromFloat64(%g) = %#04x, want %#04x", c.in, got, c.want)
		}
		if got := FromFloat32(float32(c.in)); got != c.want {
			t.Errorf("FromFloat32(%g) = %#04x, want %#04x", c.in, got, c.want)
		}
	}
}

func TestSpecialValues(t *testing.T) {
	if !QuietNaN.IsNaN() {
		t.Error("QuietNaN is not NaN")
	}
	if !PositiveInfinity.IsInf(1) || !PositiveInfinity.IsInf(0) || PositiveInfinity.IsInf(-1) {
		t.Error("PositiveInfinity IsInf misreports")
	}
	if !NegativeInfinity.IsInf(-1) || NegativeInfinity.IsInf(1) {
		t.Error("NegativeInfinity IsInf misreports")
	}
	if !PositiveZero.IsZero() || !NegativeZero.IsZero() || One.IsZero() {
		t.Error("IsZero misreports")
	}
	if !SmallestSubnorm.IsSubnormal() || SmallestNormal.IsSubnormal() || PositiveZero.IsSubnormal() {
		t.Error("IsSubnormal misreports")
	}
	if One.Float32() != 1 || NegOne.Float32() != -1 || Max.Float32() != 65504 {
		t.Error("constant decode mismatch")
	}
	if FromFloat32(float32(math.NaN())).IsNaN() != true {
		t.Error("NaN conversion lost NaN-ness")
	}
	if got := math.Float32bits(QuietNaN.Neg().Float32()); got&0x80000000 == 0 {
		t.Error("Neg did not flip NaN sign bit")
	}
}

func TestArithmeticProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20000}
	finite := func(b uint16) Float16 {
		x := FromBits(b)
		if x.IsNaN() || x.IsInf(0) {
			return One
		}
		return x
	}
	if err := quick.Check(func(a, b uint16) bool {
		x, y := finite(a), finite(b)
		return x.Add(y) == y.Add(x)
	}, cfg); err != nil {
		t.Errorf("Add not commutative: %v", err)
	}
	if err := quick.Check(func(a, b uint16) bool {
		x, y := finite(a), finite(b)
		return x.Mul(y) == y.Mul(x)
	}, cfg); err != nil {
		t.Errorf("Mul not commutative: %v", err)
	}
	if err := quick.Check(func(a uint16) bool {
		x := finite(a)
		return x.Mul(One).Eq(x) || x.IsZero()
	}, cfg); err != nil {
		t.Errorf("x*1 != x: %v", err)
	}
	if err := quick.Check(func(a uint16) bool {
		x := finite(a)
		if x.IsZero() {
			return true
		}
		return x.Sub(x).IsZero()
	}, cfg); err != nil {
		t.Errorf("x-x != 0: %v", err)
	}
	if err := quick.Check(func(a uint16) bool {
		x := finite(a)
		return x.Neg().Neg() == x && x.Abs().Signbit() == false
	}, cfg); err != nil {
		t.Errorf("Neg/Abs: %v", err)
	}
}

func TestArithmeticExactness(t *testing.T) {
	// Add and Mul must be correctly rounded: verify against exact float64
	// computation for random operand pairs (products need 22 bits, sums at
	// most 51 bits, so float64 is exact for both).
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		x, y := FromBits(uint16(rng.Intn(1<<16))), FromBits(uint16(rng.Intn(1<<16)))
		if x.IsNaN() || y.IsNaN() {
			continue
		}
		if got, want := x.Add(y), FromFloat64(x.Float64()+y.Float64()); got != want && !(got.IsNaN() && want.IsNaN()) {
			t.Fatalf("Add(%v, %v) = %#04x, want %#04x", x, y, got, want)
		}
		if got, want := x.Mul(y), FromFloat64(x.Float64()*y.Float64()); got != want && !(got.IsNaN() && want.IsNaN()) {
			t.Fatalf("Mul(%v, %v) = %#04x, want %#04x", x, y, got, want)
		}
	}
}

func TestNaNAndInfArithmetic(t *testing.T) {
	if !PositiveInfinity.Add(NegativeInfinity).IsNaN() {
		t.Error("Inf + -Inf should be NaN")
	}
	if !PositiveInfinity.Mul(PositiveZero).IsNaN() {
		t.Error("Inf * 0 should be NaN")
	}
	if !QuietNaN.Add(One).IsNaN() || !One.Mul(QuietNaN).IsNaN() {
		t.Error("NaN must propagate")
	}
	if got := PositiveInfinity.Add(One); !got.IsInf(1) {
		t.Errorf("Inf + 1 = %v, want +Inf", got)
	}
	if got := Max.Add(Max); !got.IsInf(1) {
		t.Errorf("Max + Max = %v, want +Inf", got)
	}
	if !One.Div(PositiveZero).IsInf(1) || !NegOne.Div(PositiveZero).IsInf(-1) {
		t.Error("division by zero should give signed infinity")
	}
}

func TestFMAAndMAC32(t *testing.T) {
	a, b, c := FromFloat64(3), FromFloat64(5), FromFloat64(7)
	if got := FMA(a, b, c); got.Float64() != 22 {
		t.Errorf("FMA(3,5,7) = %v, want 22", got)
	}
	// Mixed-precision MAC: the fp16 product is exact in fp32.
	acc := float32(0)
	for i := 0; i < 2048; i++ {
		acc = MAC32(acc, One, One)
	}
	if acc != 2048 {
		t.Errorf("2048 × MAC32(1,1) accumulated %v, want 2048 (fp32 keeps exact integers here)", acc)
	}
	// The same loop in pure fp16 saturates at 2048 because 2048+1 rounds
	// back to 2048 in binary16 — a classic motivation for mixed precision.
	h := PositiveZero
	for i := 0; i < 4096; i++ {
		h = FMA(One, One, h)
	}
	if h.Float64() != 2048 {
		t.Errorf("fp16 accumulation reached %v, want to stall at 2048", h)
	}
}

func TestComparisons(t *testing.T) {
	if !NegOne.Less(One) || One.Less(NegOne) {
		t.Error("ordering of -1 and 1 wrong")
	}
	if QuietNaN.Less(One) || One.Less(QuietNaN) || QuietNaN.Eq(QuietNaN) {
		t.Error("NaN comparisons must be false")
	}
	if !PositiveZero.Eq(NegativeZero) {
		t.Error("+0 must equal -0")
	}
	if err := quick.Check(func(a, b uint16) bool {
		x, y := FromBits(a), FromBits(b)
		if x.IsNaN() || y.IsNaN() {
			return !x.Less(y) && !x.Eq(y)
		}
		return x.Less(y) == (x.Float32() < y.Float32())
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	cases := map[Float16]string{
		One:              "1",
		NegOne:           "-1",
		FromFloat64(0.5): "0.5",
		Max:              "65504",
	}
	for x, want := range cases {
		if got := x.String(); got != want {
			t.Errorf("String(%#04x) = %q, want %q", x, got, want)
		}
	}
}

// checkRound holds RoundFloat32, and RoundNormal wherever it claims the
// input, to the reference conversion bit for bit (NaN payloads included).
func checkRound(t *testing.T, bits uint32) {
	f := math.Float32frombits(bits)
	want := math.Float32bits(FromFloat32(f).Float32())
	if got := math.Float32bits(RoundFloat32(f)); got != want {
		t.Fatalf("RoundFloat32(%#08x) = %#08x, want %#08x", bits, got, want)
	}
	r, ok := RoundNormal(f)
	if ok && math.Float32bits(r) != want {
		t.Fatalf("RoundNormal(%#08x) = %#08x ok, want %#08x", bits, math.Float32bits(r), want)
	}
	if a := math.Abs(float64(f)); ok != (a == 0 || a >= 0x1p-14 && a < 65520) {
		t.Fatalf("RoundNormal(%#08x) ok = %v: want ±0 and the magnitudes in [2^-14, 65520)", bits, ok)
	}
}

// RoundFloat32 on every rounding boundary: around each binary16 value's
// binary32 image, around the midpoint to its successor, and around the
// range edges (zero, half the smallest subnormal, the smallest normal,
// the overflow threshold, infinity), ±2 ulp each, both signs.
func TestRoundFloat32Boundaries(t *testing.T) {
	around := func(bits uint32) {
		for d := -2; d <= 2; d++ {
			b := bits + uint32(d)
			checkRound(t, b)
			checkRound(t, b^1<<31)
		}
	}
	for h := 0; h < 0x7c00; h++ {
		lo := math.Float32bits(Float16(h).Float32())
		hi := math.Float32bits(Float16(h + 1).Float32()) // 0x7c00 widens to +Inf
		around(lo)
		if h+1 < 0x7c00 {
			around(lo + (hi-lo)/2)
		}
	}
	for _, b := range []uint32{
		2, 0x33000000, // 2^-25: rounds to zero at or below, up above
		minNormal32, roundsToInf32,
		0x47800000, 0x7f7ffffd, 0x7f800000, // 2^16, max float32, +Inf
		0x7f800003, 0x7fbffffd, 0x7fc00000, 0x7ffffffd, // NaNs
	} {
		around(b)
	}
}

// RoundFloat32 across every binary32 exponent: the first, a middle and
// the last significands of each, with all three tie-relevant low-bit
// patterns.
func TestRoundFloat32EveryExponent(t *testing.T) {
	for e := uint32(0); e <= 0xff; e++ {
		for _, man := range []uint32{0, 1, 0xfff, 0x1000, 0x1001, 0x2fff, 0x3000, 0x3001,
			0x400000, 0x555555, 0x7fefff, 0x7ff000, 0x7ff001, 0x7fffff} {
			checkRound(t, e<<23|man)
			checkRound(t, 1<<31|e<<23|man)
		}
	}
}

// A strided sweep of all 2^32 inputs. The stride is odd, so the low 13
// bits the rounding decision reads take every value against every
// exponent; about a second (-short strides wider).
func TestRoundFloat32Sweep(t *testing.T) {
	stride := uint64(23)
	if testing.Short() {
		stride = 1021
	}
	for b := uint64(0); b < 1<<32; b += stride {
		f := math.Float32frombits(uint32(b))
		if got, want := RoundFloat32(f), FromFloat32(f).Float32(); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("RoundFloat32(%#08x) = %#08x, want %#08x", b, math.Float32bits(got), math.Float32bits(want))
		}
	}
}

// checkRound64 holds FromFloat64, and RoundNormal64 wherever it claims the
// input, to the general conversion bit for bit (NaN payloads included),
// and pins RoundNormal64's ok range.
func checkRound64(t *testing.T, bits uint64) {
	t.Helper()
	f := math.Float64frombits(bits)
	want := fromFloat64General(f)
	if got := FromFloat64(f); got != want {
		t.Fatalf("FromFloat64(%#016x) = %#04x, want %#04x", bits, got, want)
	}
	h, ok := RoundNormal64(f)
	if ok && h != want {
		t.Fatalf("RoundNormal64(%#016x) = %#04x ok, want %#04x", bits, h, want)
	}
	if a := math.Abs(f); ok != (a == 0 || a >= 0x1p-14 && a < 65520) {
		t.Fatalf("RoundNormal64(%#016x) ok = %v: want ±0 and the magnitudes in [2^-14, 65520)", bits, ok)
	}
}

// The binary64 rounding on every boundary: for each adjacent pair of
// binary16 values — the last being 65504 | 65536, whose midpoint is the
// overflow threshold — both endpoints and the midpoint, ±1 binary64 ulp
// around each, both signs; then the edges of the ok range by name.
func TestRoundNormal64Boundaries(t *testing.T) {
	around := func(f float64) {
		for d := -1; d <= 1; d++ {
			b := math.Float64bits(f) + uint64(d)
			checkRound64(t, b)
			checkRound64(t, b^1<<63)
		}
	}
	for h := 0; h < 0x7c00; h++ {
		lo, hi := Float16(h).Float64(), Float16(h+1).Float64()
		if h+1 == 0x7c00 {
			hi = 65536
		}
		around(lo)
		around((lo + hi) / 2) // exact: adjacent values differ in one low bit
		around(hi)
	}
	for _, b := range []uint64{1, 0x3e50000000000000, // 2^-1074; 2^-26, the last to round to zero
		0x7fefffffffffffff, 0x7ff0000000000000, // max float64, +Inf
		0x7ff0000000000001, 0x7ff7ffffffffffff, 0x7ff8000000000000, 0x7fffffffffffffff, // NaNs
	} {
		around(math.Float64frombits(b))
	}
	for _, c := range []struct {
		f    float64
		want Float16
		ok   bool
	}{
		{0, PositiveZero, true},
		{math.Copysign(0, -1), NegativeZero, true},
		{math.SmallestNonzeroFloat64, PositiveZero, false},
		{math.Nextafter(0x1p-14, 0), SmallestNormal, false}, // rounds up into the range from outside it
		{0x1p-14, SmallestNormal, true},
		{-0x1p-14, SmallestNormal.Neg(), true},
		{math.Nextafter(65520, 0), Max, true},
		{65520, PositiveInfinity, false},
		{-65520, NegativeInfinity, false},
		{math.Inf(1), PositiveInfinity, false},
		{math.NaN(), QuietNaN, false},
	} {
		if h, ok := RoundNormal64(c.f); ok != c.ok || ok && h != c.want {
			t.Errorf("RoundNormal64(%g) = %#04x, %v; want %#04x, %v", c.f, h, ok, c.want, c.ok)
		}
		if got := FromFloat64(c.f); got != c.want {
			t.Errorf("FromFloat64(%g) = %#04x, want %#04x", c.f, got, c.want)
		}
	}
}

// The binary64 rounding across every binary64 exponent: the first, a
// middle and the last significands of each, with all three tie-relevant
// patterns of the 42 dropped bits under an even and an odd last bit.
func TestRoundNormal64EveryExponent(t *testing.T) {
	const half = uint64(1) << 41
	for e := uint64(0); e <= 0x7ff; e++ {
		for _, man := range []uint64{0, 1, half - 1, half, half + 1, 3*half - 1, 3 * half, 3*half + 1,
			1 << 51, 0x5555555555555, 1<<52 - 3*half, 1<<52 - half - 1, 1<<52 - half, 1<<52 - half + 1, 1<<52 - 1} {
			checkRound64(t, e<<52|man)
			checkRound64(t, 1<<63|e<<52|man)
		}
	}
}

// FuzzFMAMatchesReference holds FMA, Add, Sub and Mul, on raw operand
// bits, to the exact binary64 expression rounded by the general
// conversion: bit-equal, with NaN as a class (which payload a sum of two
// NaNs keeps follows the operand order the compiler picks for a
// commutative add, which the repo does not pin). The seeds are every
// triple of a special-value table: ±0, subnormals, the range edges, ±Inf,
// quiet and signalling NaNs — so Inf−Inf, Inf×0, results that round to a
// subnormal, to zero and to infinity are all in the corpus.
func FuzzFMAMatchesReference(f *testing.F) {
	specials := []uint16{0x0000, 0x8000, 0x0001, 0x83ff, 0x0400, 0x3800, 0x3c00, 0xbc01,
		0x3555, 0x7bff, 0xfbff, 0x7c00, 0xfc00, 0x7e00, 0x7c01, 0xfdff}
	for _, a := range specials {
		for _, b := range specials {
			for _, c := range specials {
				f.Add(a, b, c)
			}
		}
	}
	f.Fuzz(func(t *testing.T, ab, bb, cb uint16) {
		a, b, c := FromBits(ab), FromBits(bb), FromBits(cb)
		x, y, z := a.Float64(), b.Float64(), c.Float64()
		for _, op := range []struct {
			name string
			got  Float16
			want float64
		}{
			{"FMA", FMA(a, b, c), x*y + z},
			{"Add", a.Add(b), x + y},
			{"Sub", a.Sub(b), x - y},
			{"Mul", a.Mul(b), x * y},
		} {
			want := fromFloat64General(op.want)
			if op.got != want && !(op.got.IsNaN() && want.IsNaN()) {
				t.Fatalf("%s(%#04x, %#04x, %#04x) = %#04x, want %#04x", op.name, ab, bb, cb, op.got, want)
			}
		}
	})
}

// gemmLike returns n binary16 values as irregular as a GEMM's operands:
// seeded, finite, normal, magnitudes in [2^-4, 4). The rounding's cost on
// real operands is branch prediction, so a benchmark on a constant or a
// short period reads far too low.
func gemmLike(n int) []Float16 {
	rng := rand.New(rand.NewSource(18))
	v := make([]Float16, n)
	for i := range v {
		v[i] = Float16(rng.Intn(2)<<15 | (11+rng.Intn(6))<<10 | rng.Intn(1<<10))
	}
	return v
}

// BenchmarkFMA times one half multiply-add: on zeros, all a zero-memory
// launch computes, and on GEMM-like operands.
func BenchmarkFMA(b *testing.B) {
	run := func(b *testing.B, v []Float16) {
		var sink Float16
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i & (len(v) - 4)
			sink ^= FMA(v[j], v[j+1], v[j+2])
		}
		_ = sink
	}
	b.Run("zero", func(b *testing.B) { run(b, make([]Float16, 4)) })
	b.Run("random", func(b *testing.B) { run(b, gemmLike(1<<12)) })
}

// BenchmarkFromFloat64 times the rounding alone, on the same two inputs.
func BenchmarkFromFloat64(b *testing.B) {
	run := func(b *testing.B, v []float64) {
		var sink Float16
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink ^= FromFloat64(v[i&(len(v)-1)])
		}
		_ = sink
	}
	b.Run("zero", func(b *testing.B) { run(b, make([]float64, 1)) })
	b.Run("random", func(b *testing.B) {
		h := gemmLike(3 << 12)
		v := make([]float64, 1<<12)
		for i := range v {
			v[i] = h[3*i].Float64()*h[3*i+1].Float64() + h[3*i+2].Float64()
		}
		run(b, v)
	})
}

// BenchmarkRoundFloat32 times the per-chunk rounding of FP16 accumulation
// on a running sum that stays in the normal range, beside the conversion
// pair it replaces.
func BenchmarkRoundFloat32(b *testing.B) {
	b.Run("round", func(b *testing.B) {
		acc := float32(1)
		for i := 0; i < b.N; i++ {
			acc = RoundFloat32(acc*1.0009765625 + 0.001)
			if acc > 1024 {
				acc = 1
			}
		}
		_ = acc
	})
	b.Run("encode+decode", func(b *testing.B) {
		acc := float32(1)
		for i := 0; i < b.N; i++ {
			acc = FromFloat32(acc*1.0009765625 + 0.001).Float32()
			if acc > 1024 {
				acc = 1
			}
		}
		_ = acc
	})
}

func BenchmarkFromFloat32(b *testing.B) {
	var sink Float16
	for i := 0; i < b.N; i++ {
		sink = FromFloat32(float32(i) * 0.25)
	}
	_ = sink
}

func BenchmarkMAC32(b *testing.B) {
	x, y := FromFloat64(1.5), FromFloat64(2.5)
	acc := float32(0)
	for i := 0; i < b.N; i++ {
		acc = MAC32(acc, x, y)
	}
	_ = acc
}
