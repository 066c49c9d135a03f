package kernels

import "testing"

// BenchmarkBuild times kernel construction alone — PTX building, decode,
// the fragment plans and the digest — per generator, without simulating.
func BenchmarkBuild(b *testing.B) {
	for _, g := range []struct {
		name  string
		build func() (*Launch, error)
	}{
		{"sgemm-simt", func() (*Launch, error) { return SGEMMSimt(256, 256, 256) }},
		{"hgemm-simt", func() (*Launch, error) { return HGEMMSimt(256, 256, 256) }},
		{"wmma-naive", func() (*Launch, error) { return WMMAGemmNaive(TensorMixed, 256, 256, 256) }},
		{"wmma-shared", func() (*Launch, error) { return WMMAGemmShared(TensorMixed, 256, 256, 256) }},
		{"mma-loop", func() (*Launch, error) { return MMALoop(TensorMixed, 4, 64, 2) }},
	} {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := g.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
