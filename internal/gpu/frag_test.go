package gpu

import (
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/ptx"
)

// wmmaSpec builds a shared-memory WMMA GEMM launch for the fragment
// equivalence tests.
func wmmaSpec(t *testing.T, p kernels.GemmPrecision, m, n, k int) LaunchSpec {
	t.Helper()
	l, err := kernels.WMMAGemmShared(p, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	return LaunchSpec{
		Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
		Args:   []uint64{0, 64 << 10, 128 << 10, 192 << 10},
		Global: ptx.NewFlatMemory(256 << 10),
	}
}

// The batched fragment path must be invisible in the timing model:
// every Stats field must be bit-identical to the per-element legacy
// path on the tensor-core workloads — the wmma GEMMs in both
// accumulation modes plus the scheduler suite's mma loop — and the
// equivalence must hold with the legacy *access* path too, since the
// two knobs compose (a legacy-access warp still batches its fragment
// data movement and vice versa).
func TestFragmentPathMatchesLegacyStats(t *testing.T) {
	cases := map[string]func() LaunchSpec{
		"wmma-mixed": func() LaunchSpec { return wmmaSpec(t, kernels.TensorMixed, 64, 64, 32) },
		"wmma-fp16":  func() LaunchSpec { return wmmaSpec(t, kernels.TensorFP16, 32, 32, 64) },
		"mma-loop":   schedCases()["mma-loop"],
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			for _, legacyAccess := range []bool{false, true} {
				// Cleanup, not an inline reset: a t.Fatal inside
				// runFragPath must not leak the legacy access path
				// into later tests.
				t.Cleanup(ptx.SwapLegacyAccessPath(legacyAccess))
				batched := runFragPath(t, false, build())
				legacy := runFragPath(t, true, build())
				if !reflect.DeepEqual(batched, legacy) {
					t.Errorf("legacyAccess=%v: stats diverge\nbatched: %+v\nlegacy:  %+v",
						legacyAccess, batched, legacy)
				}
				// Knob × mode: TimingOnly changes nothing under either
				// fragment path.
				for _, legacyFrag := range []bool{false, true} {
					spec := build()
					spec.TimingOnly = true
					if got := runFragPath(t, legacyFrag, spec); !reflect.DeepEqual(batched, got) {
						t.Errorf("legacyAccess=%v legacyFrag=%v: TimingOnly changed the stats\nfull:        %+v\ntiming-only: %+v",
							legacyAccess, legacyFrag, batched, got)
					}
				}
				if batched.WarpInstructions == 0 || batched.Cycles == 0 || batched.TensorOps == 0 {
					t.Errorf("degenerate run %+v", batched)
				}
			}
		})
	}
}

func runFragPath(t *testing.T, legacy bool, spec LaunchSpec) *Stats {
	t.Helper()
	defer ptx.SwapLegacyFragmentPath(legacy)()
	cfg := TitanV()
	cfg.NumSMs = 2
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
