package wmma

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/tensor"
)

// The oracle of the image kernels: the float64-tile arithmetic that was
// wmma.mma's production code before the kernels computed on register
// images — refMMAFloat and refMMAInt are the old mmaFloat and mmaInt loops
// verbatim (refSatFloat the old satFloat), kept here as the independent
// statement of what the kernels must reproduce bit for bit.

func refMMAFloat(cfg Config, a, b, c, d *tensor.Matrix, buf []fp16.Float16) {
	s := cfg.Shape
	// Quantize A rows and B columns once, into two flat buffers.
	need := (s.M + s.N) * s.K
	if cap(buf) < need {
		buf = make([]fp16.Float16, need)
	}
	flat := buf[:need]
	av, bv := flat[:s.M*s.K], flat[s.M*s.K:]
	for i := 0; i < s.M; i++ {
		for k := 0; k < s.K; k++ {
			av[i*s.K+k] = fp16.FromFloat64(a.At(i, k))
		}
	}
	for j := 0; j < s.N; j++ {
		for k := 0; k < s.K; k++ {
			bv[j*s.K+k] = fp16.FromFloat64(b.At(k, j))
		}
	}
	for i := 0; i < s.M; i++ {
		for j := 0; j < s.N; j++ {
			ar, bc := av[i*s.K:(i+1)*s.K], bv[j*s.K:(j+1)*s.K]
			var out float64
			if cfg.CType == F32 {
				acc := float32(c.At(i, j))
				acc = DotF32(acc, ar, bc)
				out = float64(acc)
			} else {
				acc := fp16.FromFloat64(c.At(i, j))
				acc = DotF16(acc, ar, bc)
				out = acc.Float64()
			}
			if cfg.DType == F16 {
				out = fp16.FromFloat64(out).Float64()
			}
			if cfg.Satf {
				out = refSatFloat(out)
			}
			d.Set(i, j, out)
		}
	}
}

func refSatFloat(v float64) float64 {
	const maxF16 = 65504
	switch {
	case math.IsNaN(v):
		return 0
	case v > maxF16:
		return maxF16
	case v < -maxF16:
		return -maxF16
	}
	return v
}

func refMMAInt(cfg Config, a, b, c, d *tensor.Matrix) {
	s := cfg.Shape
	qa := intQuantizer(cfg.AType)
	for i := 0; i < s.M; i++ {
		for j := 0; j < s.N; j++ {
			acc := int64(int32(c.At(i, j)))
			for k := 0; k < s.K; k++ {
				acc += int64(qa(a.At(i, k))) * int64(qa(b.At(k, j)))
			}
			if cfg.Satf {
				if acc > math.MaxInt32 {
					acc = math.MaxInt32
				} else if acc < math.MinInt32 {
					acc = math.MinInt32
				}
			} else {
				acc = int64(int32(acc)) // wraparound semantics
			}
			d.Set(i, j, float64(acc))
		}
	}
}

// imageConfig picks one of the configurations the kernels serve: every
// C/D precision pair × Satf on the three floating-point shapes, and the
// 8-bit and 4-bit integer types on theirs (M8N8K32 included).
func imageConfig(sel uint16) Config {
	cfg := Config{Arch: Turing, ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
		Satf: sel&1 != 0}
	sel >>= 1
	shape := []Shape{M16N16K16, M32N8K16, M8N32K16, M8N8K32}[sel%4]
	sel /= 4
	cfg.Shape = shape
	if shape == M8N8K32 {
		cfg.AType, cfg.CType, cfg.DType = []Precision{S4, U4}[sel%2], S32, S32
		return cfg
	}
	if sel%3 == 2 {
		cfg.AType, cfg.CType, cfg.DType = []Precision{S8, U8}[sel/3%2], S32, S32
		return cfg
	}
	cfg.AType = F16
	cfg.CType = []Precision{F16, F32}[sel%3]
	cfg.DType = []Precision{F16, F32}[sel/3%2]
	return cfg
}

// specialBits are the binary32 patterns worth hitting on purpose; their
// top halves are the corresponding binary16 ones.
var specialBits = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00010000, 0x83ff0000, 0x00000001, 0x807fffff, // subnormals
	0x7bff0000, 0xfbff0000, 0x7f7fffff, 0xff7fffff, // ±max finite
	0x7c000000, 0xfc000000, 0x7f800000, 0xff800000, // ±Inf
	0x7e000000, 0xfe000000, 0x7d550000, 0x7fc00000, 0xffc12345, 0x7f800001, 0x7c010000, // NaNs, quiet and signalling
	0x3c000000, 0xbc000000, 0x3f800000, 0x477fe000, 0x477ff000, // ±1, 65504, 65520
}

// rawWord draws a register word for an element of precision p: mostly
// uniform bits, one draw in four a special pattern, with garbage above
// the element width that the kernels must ignore.
func rawWord(rng *rand.Rand, p Precision) uint64 {
	v := rng.Uint64()
	if rng.Intn(4) == 0 {
		s := specialBits[rng.Intn(len(specialBits))]
		if p == F16 {
			s >>= 16
			v = v&^0xffff | uint64(s)
		} else {
			v = v&^0xffffffff | uint64(s)
		}
	}
	if p.IsInt() && p != S32 {
		// wmma.load leaves operand elements sign- or zero-extended in
		// range; a quarter of the draws stray outside to reach the clamp.
		lo, hi := IntRange(p)
		x := int32(rng.Intn(int(hi-lo)+1)) + lo
		if rng.Intn(4) == 0 {
			x = int32(rng.Intn(1024) - 512)
		}
		v = uint64(uint32(x))
	}
	return v
}

// finiteWord draws a modest finite value, so sums stay finite and every
// result bit is an arithmetic one.
func finiteWord(rng *rand.Rand, p Precision) uint64 {
	switch p {
	case F16, F32:
		return EncodeElem(p, (rng.Float64()*2-1)*float64(int(1)<<rng.Intn(6)))
	case S32:
		return EncodeElem(p, float64(rng.Intn(1<<20)-1<<19))
	}
	lo, hi := IntRange(p)
	return EncodeElem(S32, float64(int32(rng.Intn(int(hi-lo)+1))+lo))
}

// sameWord compares result words of precision p bit for bit, except that
// any NaN equals any NaN: which payload survives the add of two NaNs
// follows the operand order the compiler picks (see MMAImages).
func sameWord(p Precision, got, want uint64) bool {
	if got == want {
		return true
	}
	g, w := DecodeElem(p, got), DecodeElem(p, want)
	return g != g && w != w
}

// checkImagesMatchReference runs one configuration on the given register
// words three ways — the oracle on decoded tiles, the image kernel, and
// the tile API on the same tiles — and requires equal D words.
func checkImagesMatchReference(t *testing.T, cfg Config, aw, bw, cw []uint64) {
	t.Helper()
	s := cfg.Shape
	// Tiles as the executor's per-lane path decodes them from registers.
	at := tensor.New(s.M, s.K, tensor.RowMajor)
	bt := tensor.New(s.K, s.N, tensor.RowMajor)
	ct := tensor.New(s.M, s.N, tensor.RowMajor)
	opElem := cfg.AType
	if opElem.IsInt() {
		opElem = S32 // integer operands sit in registers as s32 values
	}
	for i := 0; i < s.M; i++ {
		for k := 0; k < s.K; k++ {
			at.Set(i, k, DecodeElem(opElem, aw[i*s.K+k]))
		}
		for j := 0; j < s.N; j++ {
			ct.Set(i, j, DecodeElem(cfg.CType, cw[i*s.N+j]))
		}
	}
	for k := 0; k < s.K; k++ {
		for j := 0; j < s.N; j++ {
			bt.Set(k, j, DecodeElem(opElem, bw[j*s.K+k]))
		}
	}
	want := tensor.New(s.M, s.N, tensor.RowMajor)
	if cfg.AType.IsInt() {
		refMMAInt(cfg, at, bt, ct, want)
	} else {
		refMMAFloat(cfg, at, bt, ct, want, nil)
	}

	got := make([]uint64, s.M*s.N)
	var err error
	if cfg.AType.IsInt() {
		lo, hi := IntRange(cfg.AType)
		img := func(ws []uint64) []int32 {
			out := make([]int32, len(ws))
			for x, w := range ws {
				out[x] = min(max(int32(uint32(w)), lo), hi)
			}
			return out
		}
		err = MMAIntImages(cfg, img(aw), img(bw), cw, got)
	} else {
		img := func(ws []uint64) []float32 {
			out := make([]float32, len(ws))
			for x, w := range ws {
				out[x] = fp16.FromBits(uint16(w)).Float32()
			}
			return out
		}
		err = MMAImages(cfg, img(aw), img(bw), cw, got)
	}
	if err != nil {
		t.Fatalf("%v: %v", cfg, err)
	}
	tile := tensor.New(s.M, s.N, tensor.RowMajor)
	if err := MMAInto(cfg, at, bt, ct, tile); err != nil {
		t.Fatalf("%v: %v", cfg, err)
	}
	for i := 0; i < s.M; i++ {
		for j := 0; j < s.N; j++ {
			w := EncodeElem(cfg.DType, want.At(i, j))
			if g := got[i*s.N+j]; !sameWord(cfg.DType, g, w) {
				t.Fatalf("%v: image kernel d[%d,%d] = %#x, reference %#x", cfg, i, j, g, w)
			}
			if g := EncodeElem(cfg.DType, tile.At(i, j)); !sameWord(cfg.DType, g, w) {
				t.Fatalf("%v: tile API d[%d,%d] = %#x, reference %#x", cfg, i, j, g, w)
			}
		}
	}
}

// FuzzMMAImagesMatchReference holds the image kernels (and the tile API
// over them) to the float64-tile oracle on raw register bits — ±0,
// subnormals, max-finite, ±Inf, NaNs, garbage above the element width,
// out-of-range integer operands — and on finite seeded values.
func FuzzMMAImagesMatchReference(f *testing.F) {
	for sel := uint16(0); sel < 48; sel++ {
		f.Add(sel, uint64(sel)*0x9E3779B97F4A7C15+1, sel%3 == 0)
	}
	f.Fuzz(func(t *testing.T, sel uint16, seed uint64, finite bool) {
		cfg := imageConfig(sel)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("imageConfig(%d) = %v: %v", sel, cfg, err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		draw := rawWord
		if finite {
			draw = finiteWord
		}
		s := cfg.Shape
		words := func(n int, p Precision) []uint64 {
			out := make([]uint64, n)
			for x := range out {
				out[x] = draw(rng, p)
			}
			return out
		}
		checkImagesMatchReference(t, cfg,
			words(s.M*s.K, cfg.AType), words(s.N*s.K, cfg.AType), words(s.M*s.N, cfg.CType))
	})
}

// The image kernels reject what they cannot compute instead of indexing
// out of range.
func TestMMAImagesValidate(t *testing.T) {
	mixed := Config{Arch: Volta, Shape: M16N16K16, AType: F16, CType: F32, DType: F32}
	s8 := Config{Arch: Turing, Shape: M16N16K16, AType: S8, CType: S32, DType: S32}
	f, i, w := make([]float32, 256), make([]int32, 256), make([]uint64, 256)
	if err := MMAImages(mixed, f, f, w, w); err != nil {
		t.Errorf("valid call rejected: %v", err)
	}
	if err := MMAImages(mixed, f[:255], f, w, w); err == nil {
		t.Error("short A image accepted")
	}
	if err := MMAImages(mixed, f, f, w, w[:10]); err == nil {
		t.Error("short D tile accepted")
	}
	if err := MMAImages(s8, f, f, w, w); err == nil {
		t.Error("integer config accepted by the floating-point kernel")
	}
	if err := MMAIntImages(mixed, i, i, w, w); err == nil {
		t.Error("floating-point config accepted by the integer kernel")
	}
	bad := mixed
	bad.Shape = M8N8K32
	if err := MMAImages(bad, f, f, w, w); err == nil {
		t.Error("invalid config accepted")
	}
}

// BenchmarkMMA times one 16×16×16 wmma.mma per precision mode two ways:
// images is the kernel alone, as the executor's batched path calls it on
// gathered register images; tiles is the tile API (encode, kernel,
// decode) the per-lane fallback and the host-side callers pay. Operands
// are finite and non-zero, so FP16 mode's per-chunk rounding does real
// work.
func BenchmarkMMA(b *testing.B) {
	for _, mode := range []struct {
		name string
		cd   Precision
	}{{"mixed", F32}, {"fp16", F16}} {
		cfg := Config{Arch: Volta, Shape: M16N16K16, ALayout: tensor.RowMajor,
			BLayout: tensor.ColMajor, AType: F16, CType: mode.cd, DType: mode.cd}
		rng := rand.New(rand.NewSource(7))
		at := tensor.New(16, 16, tensor.RowMajor)
		bt := tensor.New(16, 16, tensor.ColMajor)
		ct := tensor.New(16, 16, tensor.RowMajor)
		at.FillRandomFP16(rng)
		bt.FillRandomFP16(rng)
		ct.FillRandomFP16(rng)
		b.Run(mode.name+"/images", func(b *testing.B) {
			a, bT := make([]float32, 256), make([]float32, 256)
			c, d := make([]uint64, 256), make([]uint64, 256)
			for i := 0; i < 16; i++ {
				for j := 0; j < 16; j++ {
					a[i*16+j] = fp16.FromFloat64(at.At(i, j)).Float32()
					bT[i*16+j] = fp16.FromFloat64(bt.At(j, i)).Float32()
					c[i*16+j] = EncodeElem(cfg.CType, ct.At(i, j))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := MMAImages(cfg, a, bT, c, d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(mode.name+"/tiles", func(b *testing.B) {
			d := tensor.New(16, 16, tensor.RowMajor)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := MMAInto(cfg, at, bt, ct, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
