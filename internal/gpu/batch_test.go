package gpu

import (
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/ptx"
)

// The batched access path must be invisible in the timing model: every
// Stats field — cycles, hit rates, DRAM traffic, shared conflicts — must
// be bit-identical to the legacy per-lane path. The workloads cover the
// scheduler equivalence cases plus the register-tiled SIMT GEMMs whose
// staging patterns (segmented unit-stride global, mirrored/broadcast
// shared) the batched fast paths dispatch on.
func TestBatchedAccessPathMatchesLegacyStats(t *testing.T) {
	cases := schedCases()
	cases["sgemm-simt"] = func() LaunchSpec {
		l, err := kernels.SGEMMSimt(64, 64, 32)
		if err != nil {
			t.Fatal(err)
		}
		return LaunchSpec{
			Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
			Args:   []uint64{0, 64 << 10, 128 << 10, 192 << 10},
			Global: ptx.NewFlatMemory(256 << 10),
		}
	}
	cases["hgemm-simt"] = func() LaunchSpec {
		l, err := kernels.HGEMMSimt(64, 128, 16)
		if err != nil {
			t.Fatal(err)
		}
		return LaunchSpec{
			Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
			Args:   []uint64{0, 64 << 10, 128 << 10, 192 << 10},
			Global: ptx.NewFlatMemory(256 << 10),
		}
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			batched := runAccessPath(t, false, build())
			// Knob × mode: the legacy path ignores TimingOnly, the batched
			// path skips under it, and all four runs agree.
			for _, timingOnly := range []bool{false, true} {
				for _, legacyPath := range []bool{true, false} {
					spec := build()
					spec.TimingOnly = timingOnly
					if got := runAccessPath(t, legacyPath, spec); !reflect.DeepEqual(batched, got) {
						t.Errorf("stats diverge\nbatched, full: %+v\nlegacy=%v timingOnly=%v: %+v",
							batched, legacyPath, timingOnly, got)
					}
				}
			}
			if batched.WarpInstructions == 0 || batched.Cycles == 0 {
				t.Errorf("degenerate run %+v", batched)
			}
		})
	}
}

func runAccessPath(t *testing.T, legacy bool, spec LaunchSpec) *Stats {
	t.Helper()
	defer ptx.SwapLegacyAccessPath(legacy)()
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
