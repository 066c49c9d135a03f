package gpu

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cutlass"
	"repro/internal/kernels"
	"repro/internal/ptx"
)

// allocRow is one launch shape of TestRunAllocationsFlatInK, built at a
// given trip count of its inner loop.
type allocRow struct {
	name  string
	short bool // also run under -short
	// build returns the launch for trip count n; small and large are the
	// two counts compared.
	build        func(n int) (*kernels.Launch, error)
	small, large int
	args         []uint64
	memBytes     int
}

// allocRows are the GEMM inner loops, the mma issue loop, one CUTLASS
// policy and the two memory-bound shapes of bench's mem_stride. The
// small trip counts are past the ahead path's warm-up: a stepped-ahead
// warp's chunk buffers grow, by doubling, to a bound its first few
// dozen steps may not reach (the shared loop at 4 trips allocates 32
// fewer times a run than at 32 trips, and the same at 128 or 256).
func allocRows() []allocRow {
	gemmArgs, gemmMem := []uint64{0, 256 << 10, 512 << 10, 768 << 10}, 1<<20
	return []allocRow{
		{"sgemm", true, func(k int) (*kernels.Launch, error) { return kernels.SGEMMSimt(64, 64, k) },
			32, 256, gemmArgs, gemmMem},
		{"hgemm", false, func(k int) (*kernels.Launch, error) { return kernels.HGEMMSimt(64, 128, k) },
			32, 256, gemmArgs, gemmMem},
		{"wmma", true, func(k int) (*kernels.Launch, error) {
			return kernels.WMMAGemmShared(kernels.TensorMixed, 64, 64, k)
		}, 32, 256, gemmArgs, gemmMem},
		{"mma-loop", false, func(n int) (*kernels.Launch, error) {
			return kernels.MMALoop(kernels.TensorMixed, 4, n, 2)
		}, 4, 64, []uint64{0}, 4096},
		{"cutlass", false, func(k int) (*kernels.Launch, error) {
			return cutlass.Build(cutlass.GemmConfig{Policy: cutlass.DefaultPolicies()[1],
				Precision: kernels.TensorMixed, M: 64, N: 64, K: k})
		}, 32, 256, gemmArgs, gemmMem},
		{"copy-stride33", true, func(n int) (*kernels.Launch, error) {
			return parsedLaunch(fmt.Sprintf(goldenCopySrc, 1<<14-1, 2*256*33, n), 2, 256)
		}, 16, 128, []uint64{0, 4 << 14}, 8 << 14},
		{"shared-stride32", false, func(n int) (*kernels.Launch, error) {
			return parsedLaunch(fmt.Sprintf(sharedLoopSrc, 4*256*32, n), 2, 256)
		}, 32, 256, []uint64{0}, 4 * 2 * 256},
	}
}

// sharedLoopSrc has every thread store to and reload from its own
// shared word at tid*32 (a whole warp on one bank) for %[2]d iterations.
const sharedLoopSrc = `
.target sm_70
.entry shared_stride_32(.param .u64 out)
{
  .shared buf %[1]d
  mov.u32      %%tid, %%tid.x;
  mov.u32      %%cta, %%ctaid.x;
  mov.u32      %%nt, %%ntid.x;
  mad.u32      %%gid, %%cta, %%nt, %%tid;
  mul.u32      %%w, %%tid, 32;
  mul.wide.u32 %%off, %%w, 4;
  add.u64      %%sp, %%off, buf;
  mov.u32      %%acc, 0;
  mov.u32      %%it, 0;
loop:
  add.u32      %%v, %%it, %%gid;
  st.shared.32 [%%sp], %%v;
  ld.shared.32 %%r, [%%sp];
  add.u32      %%acc, %%acc, %%r;
  add.u32      %%it, %%it, 1;
  setp.lt.u32  %%p, %%it, %[2]d;
@%%p bra loop;
  mul.wide.u32 %%goff, %%gid, 4;
  add.u64      %%gp, %%goff, %%out;
  st.global.32 [%%gp], %%acc;
  exit;
}`

func parsedLaunch(src string, ctas, threads int) (*kernels.Launch, error) {
	k, err := ptx.Parse(src)
	if err != nil {
		return nil, err
	}
	return &kernels.Launch{Kernel: k, Grid: ptx.D1(ctas), Block: ptx.D1(threads)}, nil
}

// aheadSlack is how many more allocations a run stepped ahead may make
// at the large trip count than at the small one. Counted across both
// goroutines, a stepped-ahead run's count varies by a few from run to
// run (within ±2 on a 2-CPU box); a per-iteration allocation adds
// thousands.
const aheadSlack = 16

// A Run's allocation count does not grow with the trip count of the
// kernel's loop: issue, the scoreboard, the coalescer, the caches, the
// bank model, the fragment movers and the ahead goroutine's rings all
// reuse their scratch, so a launch that loops eight times as long
// allocates no more. Each row runs TimingOnly and full: on the serial
// path (testing.AllocsPerRun runs at GOMAXPROCS 1) under every
// scheduler, where the counts must be equal, and at GOMAXPROCS 2, where
// launches step their warps ahead on a second goroutine and the counts,
// averaged over a few runs, must agree within aheadSlack.
func TestRunAllocationsFlatInK(t *testing.T) {
	for _, row := range allocRows() {
		if testing.Short() && !row.short {
			continue
		}
		for _, timingOnly := range []bool{true, false} {
			name := fmt.Sprintf("%s/timingonly=%v", row.name, timingOnly)
			spec := func(n int) LaunchSpec {
				l, err := row.build(n)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return LaunchSpec{Kernel: l.Kernel, Grid: l.Grid, Block: l.Block, Args: row.args,
					Global: ptx.NewFlatMemory(row.memBytes), TimingOnly: timingOnly}
			}
			small, large := spec(row.small), spec(row.large)
			for _, pol := range Schedulers() {
				few := allocsPerRun(t, pol, small, 1, testing.AllocsPerRun)
				many := allocsPerRun(t, pol, large, 1, testing.AllocsPerRun)
				if many != few {
					t.Errorf("%s/%v serial: %d trips allocate %v a run, %d trips %v",
						name, pol, row.large, many, row.small, few)
				}
			}
			prev := runtime.GOMAXPROCS(2)
			few := allocsPerRun(t, GTO, small, 4, mallocsPerRun)
			many := allocsPerRun(t, GTO, large, 4, mallocsPerRun)
			runtime.GOMAXPROCS(prev)
			if many > few+aheadSlack {
				t.Errorf("%s stepped ahead: %d trips allocate %v a run, %d trips %v (slack %d)",
					name, row.large, many, row.small, few, aheadSlack)
			}
		}
	}
}

// allocsPerRun counts the allocations of one Run of spec on a 2-SM
// slice under pol, averaged over runs by count.
func allocsPerRun(t *testing.T, pol SchedulerPolicy, spec LaunchSpec, runs int,
	count func(int, func()) float64) float64 {
	t.Helper()
	cfg := TitanV()
	cfg.NumSMs = 2
	cfg.Scheduler = pol
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return count(runs, func() {
		if _, err := sim.Run(spec); err != nil {
			t.Fatal(err)
		}
	})
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS 1: one
// warm-up call, then the mean heap allocations of runs calls, counted by
// every goroutine.
func mallocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
