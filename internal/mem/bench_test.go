package mem

import (
	"math/rand"
	"testing"
)

// BenchmarkSharedConflict times the shared-memory bank-conflict count of
// one warp access on reusable scratch, as an SM port runs it, per address
// shape that misses the arithmetic fast paths: 32-bit words at lane stride 2
// (way2) and 32 (way32, every lane in one bank), seeded scattered words,
// and the two 128-bit piece groups of a Volta wmma.load of a row-major A
// fragment from a 16-half-wide shared tile (wmma2x128: rows repeat across
// threadgroup pairs, four distinct words per bank).
func BenchmarkSharedConflict(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	strided := func(stride uint64) [][32]uint64 {
		var a [32]uint64
		for l := range a {
			a[l] = 4096 + 4*stride*uint64(l)
		}
		return [][32]uint64{a}
	}
	var scattered [32]uint64
	for l := range scattered {
		scattered[l] = 4 * uint64(rng.Intn(96<<10/4))
	}
	var frag [2][32]uint64
	for l := 0; l < 32; l++ {
		row := uint64(l&3 + 8*(l>>2&1) + 4*(l>>4))
		for piece := range frag {
			frag[piece][l] = 1<<15 + row*32 + uint64(piece)*16
		}
	}
	for _, c := range []struct {
		name  string
		bits  int32
		addrs [][32]uint64
	}{
		{"way2", 32, strided(2)},
		{"way32", 32, strided(32)},
		{"scattered", 32, [][32]uint64{scattered}},
		{"wmma2x128", 128, frag[:]},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := TitanV()
			var scratch bankScratch
			vecs := make([]AddrVec, len(c.addrs))
			for i := range vecs {
				vecs[i] = AddrVec{Addr: &c.addrs[i], Mask: fullMask, Bits: c.bits}
			}
			want := SharedConflictPasses(cfg, expand(vecs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := sharedConflictPassesVecs(&scratch, &cfg, vecs); got != want {
					b.Fatalf("%d passes, want %d", got, want)
				}
			}
		})
	}
}
