package mem

import (
	"fmt"
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

// sliceMem is the memory of the 4-SM Titan V slice mem_stride runs on
// (experiments' scaledTitanV(4)): one L2 bank of 115 sets × 16 ways,
// one DRAM channel.
func sliceMem() Config {
	cfg := TitanV()
	cfg.L2SizeBytes, cfg.L2Banks = 235929, 1
	cfg.DRAMChannels, cfg.DRAMBytesPerCycle = 1, 21
	return cfg
}

// BenchmarkCacheAccess times one Cache.Access (ns/op = ns/access) on the
// Titan V L1 geometry (256 sets × 4 ways) and the 4-SM slice's L2 bank
// (115 sets × 16 ways), each streaming — a new line per access, so every
// access misses and, once warm, evicts — and reusing a seeded random
// working set of half the capacity, where nearly every access hits.
func BenchmarkCacheAccess(b *testing.B) {
	l1, l2 := TitanV(), sliceMem()
	for _, g := range []struct {
		name             string
		size, line, ways int
	}{
		{"l1", l1.L1SizeBytes, l1.L1LineBytes, l1.L1Ways},
		{"l2", l2.L2SizeBytes / l2.L2Banks, l2.L2LineBytes, l2.L2Ways},
	} {
		rng := rand.New(rand.NewSource(5))
		reuse := make([]uint64, 1<<12)
		for i := range reuse {
			reuse[i] = 32 * uint64(rng.Intn(g.size/2/32))
		}
		b.Run(g.name+"/stream", func(b *testing.B) {
			c := NewCache(g.size, g.line, g.ways, 32)
			b.ReportAllocs()
			var a uint64
			for i := 0; i < b.N; i++ {
				if c.Access(a) {
					b.Fatal("streaming access hit")
				}
				a += uint64(g.line)
			}
		})
		b.Run(g.name+"/reuse", func(b *testing.B) {
			c := NewCache(g.size, g.line, g.ways, 32)
			for _, a := range reuse {
				c.Access(a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(reuse[i&(len(reuse)-1)])
			}
		})
	}
}

// BenchmarkGlobalTiming times one warp's AccessGlobalVecs (coalescing,
// LSU, L1, L2 and DRAM timing) on the 4-SM slice's memory, 32-bit lanes
// at word stride 1 (4 sectors per access) and 32 (32 sectors), the base
// streaming through 8 MiB.
func BenchmarkGlobalTiming(b *testing.B) {
	for _, stride := range []uint64{1, 32} {
		b.Run(fmt.Sprintf("stride=%d", stride), func(b *testing.B) {
			port := NewSystem(sliceMem()).NewSMPort()
			var addr [32]uint64
			vecs := []AddrVec{{Addr: &addr, Mask: fullMask, Bits: 32}}
			var base, now uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for l := range addr {
					addr[l] = base + 4*stride*uint64(l)
				}
				now = port.AccessGlobalVecs(now, vecs)
				base = (base + 128*stride) & (8<<20 - 1)
			}
		})
	}
}
