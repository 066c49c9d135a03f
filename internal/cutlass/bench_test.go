package cutlass

import (
	"testing"

	"repro/internal/kernels"
)

// BenchmarkBuild times Build alone — PTX building, decode, the fragment
// plans and the digest — per default tile policy and precision.
func BenchmarkBuild(b *testing.B) {
	for _, p := range DefaultPolicies() {
		for _, prec := range []kernels.GemmPrecision{kernels.TensorMixed, kernels.TensorFP16} {
			c := GemmConfig{Policy: p, Precision: prec, M: 256, N: 256, K: 256}
			b.Run(c.String(), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					if _, err := Build(c); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
