package wmma

import (
	"fmt"
	"math"

	"repro/internal/fp16"
	"repro/internal/tensor"
)

// Functional model of the wmma.mma PTX instruction.
//
// The arithmetic follows the microarchitecture of Section IV: each output
// element is produced by accumulating four-element dot products (FEDPs).
// Inside a FEDP the four FP16×FP16 products are formed exactly (a product
// of two binary16 values is exact in binary32), summed pairwise in FP32,
// and the FEDP result is added to the accumulator — in FP32 for mixed
// precision, or rounded back to FP16 per step in FP16 mode. The K loop is
// walked in ascending 4-element chunks, matching the set ordering the
// HMMA decomposition uses, so internal/tcore's set/step execution produces
// bit-identical results (a property the tests assert).

// FEDPWidth is the dot-product width of one tensor core lane: four
// multiplies feeding a three-stage adder tree.
const FEDPWidth = 4

// fedp32 computes one four-element dot product: exact FP16 products summed
// pairwise in FP32.
func fedp32(a, b []fp16.Float16) float32 {
	p0 := fp16.MulTo32(a[0], b[0])
	p1 := fp16.MulTo32(a[1], b[1])
	p2 := fp16.MulTo32(a[2], b[2])
	p3 := fp16.MulTo32(a[3], b[3])
	return (p0 + p1) + (p2 + p3)
}

// DotF32 accumulates the length-K dot product of a and b onto acc in FP32,
// one FEDP chunk at a time. len(a) must equal len(b) and be a multiple of
// FEDPWidth.
func DotF32(acc float32, a, b []fp16.Float16) float32 {
	for k := 0; k < len(a); k += FEDPWidth {
		acc += fedp32(a[k:k+FEDPWidth], b[k:k+FEDPWidth])
	}
	return acc
}

// DotF16 accumulates the dot product onto an FP16 accumulator: each FEDP
// result is added in FP32 and rounded back to binary16 before the next
// chunk, modeling the FP16-mode writeback between HMMA sets.
func DotF16(acc fp16.Float16, a, b []fp16.Float16) fp16.Float16 {
	for k := 0; k < len(a); k += FEDPWidth {
		s := fedp32(a[k:k+FEDPWidth], b[k:k+FEDPWidth])
		acc = fp16.FromFloat32(acc.Float32() + s)
	}
	return acc
}

// Register images.
//
// A warp's fragment registers already hold wmma.mma's operands in their
// device encoding, so the one arithmetic kernel of this package works on
// that form directly instead of on float64 tiles. An A/B element's image
// is its value as the datapath sees it — the exact binary32 widening of a
// binary16 element (fp16.Float16.Float32), or an integer element clamped
// to its operand range (IntRange); widening once up front is exact because
// every multiply widened the same bits through the same table before. A is
// M×K row-major and B is stored transposed, N×K, so the K elements an
// output element consumes are contiguous in both. C and D are M×N
// row-major raw register words in CType/DType encoding (EncodeElem); the
// bits of a word above the element width are ignored on C and zero on D.

// Image capacities: the largest A or B tile (32×16) and accumulator tile
// (16×16) of any configuration Validate accepts.
const (
	maxOperandElems = 512
	maxAccumElems   = 256
)

// MMAImages computes D = A×B + C for a floating-point configuration on
// register images (see above): a is M×K, bT is N×K, c and d are M×N words;
// c and d may be the same slice (each C word is read before its D word is
// written). It is the only floating-point wmma.mma arithmetic in the
// repository — the executor's batched path calls it on its fragments'
// tile images, and the tile API (MMA, MMAInto) encodes, calls it and
// decodes.
//
// Results do not depend on whether the compiler fuses a multiply into the
// add that consumes it: every product of two binary16 values is exact in
// binary32, so the fused and unfused sums round the same real number. The
// one thing left open is the payload of a NaN that comes out of an add of
// two NaNs, which follows the operand order the compiler picks for a
// commutative add; that a result is NaN never depends on it.
func MMAImages(cfg Config, a, bT []float32, c, d []uint64) error {
	if err := checkImages(cfg, false, len(a), len(bT), len(c), len(d)); err != nil {
		return err
	}
	mmaFloatImages(cfg, a, bT, c, d)
	return nil
}

// MMAIntImages is MMAImages for the Turing integer configurations: a and
// bT hold operand values already clamped to IntRange(cfg.AType), c and d
// s32 words.
func MMAIntImages(cfg Config, a, bT []int32, c, d []uint64) error {
	if err := checkImages(cfg, true, len(a), len(bT), len(c), len(d)); err != nil {
		return err
	}
	mmaIntImages(cfg, a, bT, c, d)
	return nil
}

func checkImages(cfg Config, integer bool, na, nb, nc, nd int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s := cfg.Shape
	if cfg.AType.IsInt() != integer {
		return fmt.Errorf("wmma: %v operands passed to the wrong image kernel", cfg.AType)
	}
	if na < s.M*s.K || nb < s.N*s.K || nc < s.M*s.N || nd < s.M*s.N {
		return fmt.Errorf("wmma: register images too short for %v", s)
	}
	return nil
}

// fedp is one four-element dot product on operand images: the exact
// products summed pairwise in FP32, the shape of the hardware adder tree.
func fedp(a, b *[16]float32, k int) float32 {
	return (a[k]*b[k] + a[k+1]*b[k+1]) + (a[k+2]*b[k+2] + a[k+3]*b[k+3])
}

// mmaFloatImages is the floating-point kernel. Every floating-point shape
// has K = 16 (Validate), so a row of either operand image is a
// *[16]float32 and the four FEDP chunks are spelled out in ascending K
// with constant indices — no bounds checks, and the same accumulation
// order as DotF32/DotF16. The accumulator lives in d as a binary32 word
// until the output pass converts it to DType.
func mmaFloatImages(cfg Config, a, bT []float32, c, d []uint64) {
	m, n := cfg.Shape.M, cfg.Shape.N
	f16acc := cfg.CType == F16
	for i := 0; i < m; i++ {
		ar := (*[16]float32)(a[i*16:])
		crow, drow := c[i*n:][:n], d[i*n:][:n]
		for j := range drow {
			br := (*[16]float32)(bT[j*16:])
			var acc float32
			if f16acc {
				// FP16 mode writes the accumulator back between HMMA
				// sets: round to binary16 after every chunk.
				acc = fp16.FromBits(uint16(crow[j])).Float32()
				for k := 0; k <= 12; k += FEDPWidth {
					acc += fedp(ar, br, k)
					if r, ok := fp16.RoundNormal(acc); ok {
						acc = r
					} else {
						acc = fp16.RoundFloat32(acc)
					}
				}
			} else {
				acc = math.Float32frombits(uint32(crow[j]))
				acc += fedp(ar, br, 0)
				acc += fedp(ar, br, 4)
				acc += fedp(ar, br, 8)
				acc += fedp(ar, br, 12)
			}
			drow[j] = uint64(math.Float32bits(acc))
		}
	}
	if cfg.DType == F32 && !cfg.Satf {
		return
	}
	for x, w := range d[:m*n] {
		acc := math.Float32frombits(uint32(w))
		if cfg.DType == F32 {
			d[x] = uint64(math.Float32bits(satFloat(acc)))
			continue
		}
		h := fp16.FromFloat32(acc)
		if cfg.Satf {
			h = fp16.FromFloat32(satFloat(h.Float32()))
		}
		d[x] = uint64(h.Bits())
	}
}

// mmaIntImages is the integer kernel: exact products accumulated in 64
// bits, then saturated or wrapped to s32.
func mmaIntImages(cfg Config, a, bT []int32, c, d []uint64) {
	m, n, k := cfg.Shape.M, cfg.Shape.N, cfg.Shape.K
	for i := 0; i < m; i++ {
		ar := a[i*k:][:k]
		crow, drow := c[i*n:][:n], d[i*n:][:n]
		for j := range drow {
			br := bT[j*k:][:k]
			acc := int64(int32(uint32(crow[j])))
			for x, av := range ar {
				acc += int64(av) * int64(br[x])
			}
			if cfg.Satf {
				acc = min(max(acc, math.MinInt32), math.MaxInt32)
			}
			drow[j] = uint64(uint32(int32(acc))) // !Satf: wraparound semantics
		}
	}
}

// MMA computes the warp-wide D = A×B + C for one tile under cfg. Inputs
// and output are host matrices holding the logical element values; the
// element values are quantized to cfg's operand precisions on the way in
// (float64 → binary16 for F16 operands, truncation to the integer range
// for integer operands), exactly as a wmma.load of memory holding those
// types would see them.
//
// This tile API is the host-side face of the arithmetic — the façade, the
// examples, internal/tcore's bit-identity tests and the executor's
// per-lane fallback for partial or predicated warps use it. It encodes the
// tiles into register images, runs the kernel every path shares
// (MMAImages, MMAIntImages) and decodes D.
//
// The returned matrix is M×N in the requested layout.
func MMA(cfg Config, a, b, c *tensor.Matrix, outLayout tensor.Layout) (*tensor.Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := tensor.New(cfg.Shape.M, cfg.Shape.N, outLayout)
	if err := MMAInto(cfg, a, b, c, d); err != nil {
		return nil, err
	}
	return d, nil
}

// MMAInto is MMA writing D into a caller-provided M×N matrix, which is
// fully overwritten. The images live on the stack: it allocates nothing.
func MMAInto(cfg Config, a, b, c, d *tensor.Matrix) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s := cfg.Shape
	var cw, dw [maxAccumElems]uint64
	for i := 0; i < s.M; i++ {
		for j := 0; j < s.N; j++ {
			cw[i*s.N+j] = EncodeElem(cfg.CType, c.At(i, j))
		}
	}
	if cfg.AType.IsInt() {
		var ai, bi [maxOperandElems]int32
		q := intQuantizer(cfg.AType)
		for k := 0; k < s.K; k++ {
			for i := 0; i < s.M; i++ {
				ai[i*s.K+k] = q(a.At(i, k))
			}
			for j := 0; j < s.N; j++ {
				bi[j*s.K+k] = q(b.At(k, j))
			}
		}
		mmaIntImages(cfg, ai[:], bi[:], cw[:], dw[:])
	} else {
		var af, bf [maxOperandElems]float32
		for k := 0; k < s.K; k++ {
			for i := 0; i < s.M; i++ {
				af[i*s.K+k] = fp16.FromFloat64(a.At(i, k)).Float32()
			}
			for j := 0; j < s.N; j++ {
				bf[j*s.K+k] = fp16.FromFloat64(b.At(k, j)).Float32()
			}
		}
		mmaFloatImages(cfg, af[:], bf[:], cw[:], dw[:])
	}
	for i := 0; i < s.M; i++ {
		for j := 0; j < s.N; j++ {
			d.Set(i, j, DecodeElem(cfg.DType, dw[i*s.N+j]))
		}
	}
	return nil
}

// QuantBufLen returns the scratch length MMAIntoBuf used to need.
func QuantBufLen(cfg Config) int { return (cfg.Shape.M + cfg.Shape.N) * cfg.Shape.K }

// MMAIntoBuf is MMAInto. The quantization scratch it used to take is no
// longer read — the images live on MMAInto's stack — and the parameter
// stays, with QuantBufLen, only because the benchmark harness (bench/,
// which a performance change may not edit) calls both.
func MMAIntoBuf(cfg Config, a, b, c, d *tensor.Matrix, _ []fp16.Float16) error {
	return MMAInto(cfg, a, b, c, d)
}

// MustMMA is MMA but panics on configuration errors.
func MustMMA(cfg Config, a, b, c *tensor.Matrix, outLayout tensor.Layout) *tensor.Matrix {
	d, err := MMA(cfg, a, b, c, outLayout)
	if err != nil {
		panic(err)
	}
	return d
}

// DecodeElem converts a register's raw bits into the host float64 value of
// an element of the given precision.
func DecodeElem(p Precision, bits uint64) float64 {
	switch p {
	case F16:
		return fp16.FromBits(uint16(bits)).Float64()
	case F32:
		return float64(math.Float32frombits(uint32(bits)))
	default: // integer operand types live as s32 values in registers
		return float64(int32(uint32(bits)))
	}
}

// EncodeElem converts a host float64 element into register bits of the
// given precision.
func EncodeElem(p Precision, v float64) uint64 {
	switch p {
	case F16:
		return uint64(fp16.FromFloat64(v).Bits())
	case F32:
		return uint64(math.Float32bits(float32(v)))
	default:
		return uint64(uint32(int32(v)))
	}
}

// SaturateFloat implements the .satf qualifier for floating point: the
// result is clamped to the maximum finite binary16 magnitude and NaN
// becomes +0, per the PTX specification's "saturate to finite value"
// semantics. Exported so internal/tcore's decomposed execution applies the
// identical final conversion.
func SaturateFloat(v float64) float64 { return satFloat(v) }

func satFloat[T float32 | float64](v T) T {
	const maxF16 = 65504
	switch {
	case v != v: // NaN
		return 0
	case v > maxF16:
		return maxF16
	case v < -maxF16:
		return -maxF16
	}
	return v
}

// QuantizeInt truncates a float64 host value into the given integer
// operand range, the way the device memory image would hold it.
func QuantizeInt(p Precision, v float64) int32 { return intQuantizer(p)(v) }

// IntRange returns the value range of an integer operand type: what an
// element clamps to on its way into the datapath.
func IntRange(p Precision) (lo, hi int32) {
	switch p {
	case S8:
		return -128, 127
	case U8:
		return 0, 255
	case S4:
		return -8, 7
	case U4:
		return 0, 15
	}
	panic("wmma: not an integer operand type")
}

// intQuantizer returns a function truncating a float64 host value into the
// given integer operand range, the way the device memory image would hold
// it.
func intQuantizer(p Precision) func(float64) int32 {
	lo, hi := IntRange(p)
	return func(v float64) int32 { return min(max(int32(v), lo), hi) }
}

// ReferenceGemm returns the float64 D = A×B + C for comparison with MMA
// results; the expected absolute error of the FP16 datapath against this
// reference is bounded by Tolerance.
func ReferenceGemm(cfg Config, a, b, c *tensor.Matrix) *tensor.Matrix {
	return tensor.Gemm(a, b, c, tensor.RowMajor)
}

// Tolerance returns a conservative bound on |MMA - float64 reference| for
// inputs bounded by maxAbs, accounting for input quantization, FP32 FEDP
// rounding and (in FP16 accumulation mode) per-chunk rounding.
func Tolerance(cfg Config, maxAbs float64) float64 {
	if cfg.AType.IsInt() {
		return 0 // integer arithmetic is exact
	}
	k := float64(cfg.Shape.K)
	// Each input rounds with relative error 2^-11; products of two
	// quantized inputs then carry ~2^-10. Accumulation adds at most
	// k rounding steps of the running sum's magnitude.
	eps := math.Ldexp(1, -11)
	if cfg.CType == F16 || cfg.DType == F16 {
		eps = math.Ldexp(1, -9)
	}
	bound := k * maxAbs * maxAbs * eps * 8
	if bound < 1e-6 {
		bound = 1e-6
	}
	return bound
}
