package experiments

import (
	"testing"

	"repro/internal/cutlass"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/wmma"
)

// BenchmarkLaunchOn times one uncached launchOn — kernel build excluded,
// device, memory and simulation included — at the two registry points that
// dominate the quick wall-clock: fig17's SIMT SGEMM cell and a fig14b
// CUTLASS cell. It launches as the registry does (TimingOnly); this file
// compiles unchanged at the commit before TimingOnly, for the pair.
func BenchmarkLaunchOn(b *testing.B) {
	opt := Options{Quick: true}
	points := []struct {
		name  string
		sms   int
		build func() (*kernels.Launch, error)
		cd    wmma.Precision
		n, k  int
		ctas  func(gpu.Config) int
	}{
		{"fig17_point", 8, func() (*kernels.Launch, error) { return kernels.SGEMMSimt(512, 512, 256) },
			wmma.F32, 512, 256, func(c gpu.Config) int { return c.NumSMs * 8 }},
		{"fig14b_point", 16, func() (*kernels.Launch, error) {
			return cutlass.Build(cutlass.GemmConfig{Policy: cutlass.DefaultPolicies()[1],
				Precision: kernels.TensorMixed, M: 256, N: 256, K: 256})
		}, wmma.F32, 256, 256, func(gpu.Config) int { return 0 }},
	}
	for _, p := range points {
		b.Run(p.name, func(b *testing.B) {
			cfg, err := opt.titanV(p.sms)
			if err != nil {
				b.Fatal(err)
			}
			l, err := p.build()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := opt.launchOn(cfg, l, gemmElems(p.cd), gemmDims(p.n, p.n, p.k), p.ctas(cfg), false)
				if err != nil || st.Cycles == 0 {
					b.Fatal(st, err)
				}
			}
		})
	}
}
