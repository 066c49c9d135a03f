package gpu

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/ptx"
)

// The golden-stats regression fixture: a snapshot of quick-grid Stats
// for a small basket of workloads (SIMT and wmma GEMMs, each scheduler
// policy) checked into testdata. The per-PR refactors so far (decoded
// ALU, event-driven scheduling, batched memory, batched fragments) each
// re-derived their own equivalence tests; the fixture catches silent
// timing drift from any future change without new machinery — if the
// drift is intentional, regenerate with
//
//	go test ./internal/gpu -run TestGoldenStats -update
//
// and review the diff like any other golden file.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_stats.json from the current simulator")

const goldenStatsPath = "testdata/golden_stats.json"

// goldenEntry is one (workload, policy) cell of the fixture.
type goldenEntry struct {
	Name  string `json:"name"`
	Stats Stats  `json:"stats"`
}

// goldenWorkload is one launch of the fixture basket.
type goldenWorkload struct {
	name string
	spec LaunchSpec
	cfg  func(*Config) // applied after the 2-SM default; nil for none
}

// goldenWorkloads returns the fixture basket in a fixed order. Sizes
// are the quick-grid scale: big enough to exercise staging, barriers,
// tensor ops and multi-CTA dispatch, small enough to run in
// milliseconds.
func goldenWorkloads(t *testing.T) []goldenWorkload {
	t.Helper()
	build := func(l *kernels.Launch, err error) LaunchSpec {
		if err != nil {
			t.Fatal(err)
		}
		return LaunchSpec{
			Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
			Args:   []uint64{0, 64 << 10, 128 << 10, 192 << 10},
			Global: ptx.NewFlatMemory(256 << 10),
		}
	}
	// The scheduler-pressure cell needs its own layout: 16 CTAs across 2
	// SMs pin every SM at its 64-warp occupancy cap (16 warps per
	// sub-core), so the issue-order structures run at full depth, and the
	// 256×256 C/D matrices outgrow the shared 256KB arena.
	buildPressure := func(l *kernels.Launch, err error) LaunchSpec {
		if err != nil {
			t.Fatal(err)
		}
		return LaunchSpec{
			Kernel: l.Kernel, Grid: l.Grid, Block: l.Block,
			Args:   []uint64{0, 64 << 10, 128 << 10, 384 << 10},
			Global: ptx.NewFlatMemory(640 << 10),
		}
	}
	// The eviction cell: a lane-stride-33 copy (every lane its own
	// sector, the shape of bench's copy_stride_33) over two 256 KiB
	// buffers on the 4-SM Titan V slice, whose one L2 bank holds 115 sets
	// of 16 × 128 B: a non-power-of-two set count, and 230 KiB against
	// the 512 KiB the copy touches, so L1 and L2 both evict and the one
	// DRAM channel queues. No other cell evicts from L2.
	const words = 1 << 16
	copyKernel, err := ptx.Parse(fmt.Sprintf(goldenCopySrc, words-1, 8*256*33, 16))
	if err != nil {
		t.Fatal(err)
	}
	slice4 := func(c *Config) { // experiments' scaledTitanV(4)
		c.NumSMs = 4
		c.Mem.L2SizeBytes, c.Mem.L2Banks = 235929, 1
		c.Mem.DRAMChannels, c.Mem.DRAMBytesPerCycle = 1, 21
	}
	basket := []goldenWorkload{
		{"sgemm-simt-64x64x32", build(kernels.SGEMMSimt(64, 64, 32)), nil},
		{"hgemm-simt-64x128x16", build(kernels.HGEMMSimt(64, 128, 16)), nil},
		{"wmma-mixed-64x64x32", build(kernels.WMMAGemmShared(kernels.TensorMixed, 64, 64, 32)), nil},
		{"wmma-fp16-32x32x64", build(kernels.WMMAGemmShared(kernels.TensorFP16, 32, 32, 64)), nil},
		{"sgemm-simt-pressure-256x256x32", buildPressure(kernels.SGEMMSimt(256, 256, 32)), nil},
		{"copy-stride33-l2-evict", LaunchSpec{
			Kernel: copyKernel, Grid: ptx.D1(8), Block: ptx.D1(256),
			Args:   []uint64{0, 4 * words},
			Global: ptx.NewFlatMemory(8 * words),
		}, slice4},
	}
	// The scheduler cells (sched_test.go's schedCases): a barrier released
	// while its sub-core's scan is in flight, a warp that finishes while
	// its siblings wait at the barrier, and the tensor-port contention of
	// the mma loop, recorded when the full-scan driver still ran beside
	// the event-driven one and matched it.
	cases := schedCases()
	for _, name := range []string{"vecadd", "staged-barrier", "mma-loop", "finish-at-barrier"} {
		basket = append(basket, goldenWorkload{"sched-" + name, cases[name](), nil})
	}
	return basket
}

// goldenCopySrc is the eviction cell's kernel: thread gid copies word
// j = gid*33 + it*step (wrapped by the mask) for %[3]d iterations.
const goldenCopySrc = `
.target sm_70
.entry copy_stride_33(.param .u64 src, .param .u64 dst)
{
  mov.u32      %%tid, %%tid.x;
  mov.u32      %%cta, %%ctaid.x;
  mov.u32      %%nt, %%ntid.x;
  mad.u32      %%gid, %%cta, %%nt, %%tid;
  mul.u32      %%j, %%gid, 33;
  mov.u32      %%it, 0;
loop:
  and.u32      %%w, %%j, %[1]d;
  mul.wide.u32 %%off, %%w, 4;
  add.u64      %%sp, %%off, %%src;
  add.u64      %%dp, %%off, %%dst;
  ld.global.32 %%v, [%%sp];
  st.global.32 [%%dp], %%v;
  add.u32      %%j, %%j, %[2]d;
  add.u32      %%it, %%it, 1;
  setp.lt.u32  %%p, %%it, %[3]d;
@%%p bra loop;
  exit;
}`

// runGolden simulates the basket under every policy, each spec passed
// through mod first (nil: as the fixture was recorded).
func runGolden(t *testing.T, mod func(*LaunchSpec)) []goldenEntry {
	t.Helper()
	var got []goldenEntry
	for _, w := range goldenWorkloads(t) {
		for _, pol := range Schedulers() {
			cfg := TitanV()
			cfg.NumSMs = 2
			cfg.Scheduler = pol
			if w.cfg != nil {
				w.cfg(&cfg)
			}
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec := w.spec
			if mod != nil {
				mod(&spec)
			}
			st, err := sim.Run(spec)
			if err != nil {
				t.Fatalf("%s/%v: %v", w.name, pol, err)
			}
			if st.Cycles == 0 || st.WarpInstructions == 0 {
				t.Fatalf("%s/%v: degenerate run %+v", w.name, pol, st)
			}
			got = append(got, goldenEntry{Name: w.name + "/" + pol.String(), Stats: *st})
		}
	}
	return got
}

// checkGolden holds the entries to the committed fixture.
func checkGolden(t *testing.T, got []goldenEntry) {
	t.Helper()
	data, err := os.ReadFile(goldenStatsPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d entries, run produced %d (regenerate with -update)", len(want), len(got))
	}
	for i := range got {
		if got[i].Name != want[i].Name {
			t.Fatalf("entry %d is %q, fixture has %q (regenerate with -update)", i, got[i].Name, want[i].Name)
		}
		if !reflect.DeepEqual(got[i].Stats, want[i].Stats) {
			t.Errorf("%s: stats drifted from the golden fixture\ngot:  %+v\nwant: %+v\n(if intentional, regenerate with -update)",
				got[i].Name, got[i].Stats, want[i].Stats)
		}
	}
}

func TestGoldenStats(t *testing.T) {
	got := runGolden(t, nil)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenStatsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStatsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), goldenStatsPath)
		return
	}
	checkGolden(t, got)
}

// Value-free timing's equivalence net (DESIGN.md): every golden workload
// is timing-separable, a TimingOnly run of it produces the same Stats as a
// full run — the wmma latency Trace included — and both are the unmodified
// fixture's.
func TestGoldenStatsTimingOnly(t *testing.T) {
	for _, w := range goldenWorkloads(t) {
		if !w.spec.Kernel.TimingSeparable() {
			t.Errorf("%s is not timing-separable: the comparison below would be vacuous", w.name)
		}
	}
	full := runGolden(t, func(s *LaunchSpec) { s.Trace = true })
	timing := runGolden(t, func(s *LaunchSpec) { s.Trace, s.TimingOnly = true, true })
	for i := range full {
		if !reflect.DeepEqual(full[i].Stats, timing[i].Stats) {
			t.Errorf("%s: TimingOnly changed the stats\nfull:        %+v\ntiming-only: %+v",
				full[i].Name, full[i].Stats, timing[i].Stats)
		}
		full[i].Stats.Trace, timing[i].Stats.Trace = nil, nil // the fixture was recorded untraced
	}
	checkGolden(t, full)
	checkGolden(t, timing)
}
