package gpu_test

import (
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/ptx"
)

// The decoded-instruction cache must be invisible to the timing model:
// running the same launch with the table-driven decoded dispatch and with
// the per-lane interpreted ALU path must produce identical Stats — cycle
// counts, instruction counts, cache behaviour, everything — with and
// without LaunchSpec.TimingOnly (the interpreted executors never skip,
// the loads and stores around them do).
func TestDecodedStatsMatchInterpreted(t *testing.T) {
	builds := map[string]func() (*kernels.Launch, error){
		"sgemm": func() (*kernels.Launch, error) { return kernels.SGEMMSimt(64, 64, 32) },
		"hgemm": func() (*kernels.Launch, error) { return kernels.HGEMMSimt(64, 128, 32) },
		"wmma": func() (*kernels.Launch, error) {
			return kernels.WMMAGemmShared(kernels.TensorMixed, 64, 64, 32)
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			run := func(interpret, timingOnly bool) *gpu.Stats {
				defer ptx.SwapInterpretALU(interpret)()
				l, err := build() // kernels decode at Build, under the mode
				if err != nil {
					t.Fatal(err)
				}
				cfg := gpu.TitanV()
				cfg.NumSMs = 2
				sim, err := gpu.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				st, err := sim.Run(gpu.LaunchSpec{
					Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
					Args:   []uint64{0, 1 << 20, 2 << 20, 3 << 20},
					Global: ptx.NewFlatMemory(4 << 20), TimingOnly: timingOnly,
				})
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			decoded := run(false, false)
			for _, timingOnly := range []bool{false, true} {
				for _, interpret := range []bool{true, false} {
					if got := run(interpret, timingOnly); !reflect.DeepEqual(decoded, got) {
						t.Errorf("stats diverge:\ndecoded, full: %+v\ninterpret=%v timingOnly=%v: %+v",
							decoded, interpret, timingOnly, got)
					}
				}
			}
		})
	}
}
