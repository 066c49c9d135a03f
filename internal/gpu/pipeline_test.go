package gpu

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/ptx"
)

// Timing and values on two goroutines (DESIGN.md): a full-value launch of
// a separable kernel with GOMAXPROCS > 1 replays its values beside the
// timing loop. The oracle is the serial path of the same Run, selected
// with GOMAXPROCS 1.

// setProcs sets GOMAXPROCS for the rest of the test: 1 takes Run's serial
// path, 2 pipelines a full-value launch of a separable kernel (on a 1-CPU
// host too).
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// launchProcs runs spec on a fresh simulator with GOMAXPROCS procs over a
// private copy of global.
func launchProcs(t testing.TB, procs int, cfg Config, spec LaunchSpec, global []byte) (*Stats, []byte, error) {
	t.Helper()
	setProcs(t, procs)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &ptx.FlatMemory{Data: append([]byte(nil), global...)}
	spec.Global = m
	st, err := sim.Run(spec)
	return st, m.Data, err
}

// checkPipelineMatchesSerial launches spec serially and pipelined and
// requires equal errors, equal Stats and byte-identical final memory. It
// returns that memory.
func checkPipelineMatchesSerial(t testing.TB, name string, cfg Config, spec LaunchSpec, global []byte) []byte {
	t.Helper()
	wantSt, wantMem, wantErr := launchProcs(t, 1, cfg, spec, global)
	st, mem, err := launchProcs(t, 2, cfg, spec, global)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: errors differ\npipelined: %v\nserial:    %v", name, err, wantErr)
	}
	if !reflect.DeepEqual(st, wantSt) {
		t.Fatalf("%s: stats differ\npipelined: %+v\nserial:    %+v", name, st, wantSt)
	}
	for i := range mem {
		if mem[i] != wantMem[i] {
			t.Fatalf("%s (separable=%v): memory differs from byte %d on: pipelined %#x, serial %#x",
				name, spec.Kernel.TimingSeparable(), i, mem[i], wantMem[i])
		}
	}
	return mem
}

func twoSMs() Config {
	cfg := TitanV()
	cfg.NumSMs = 2
	return cfg
}

// checkRandomPipeline runs seed's random kernel (timingonly_test.go) on
// seeded memory over ctas CTAs: their stores to the shared out region
// overlap, so the final bytes depend on the order stores land in.
func checkRandomPipeline(t testing.TB, seed int64, nOps, threads, ctas int, edges bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := randomKernel(rng, nOps, edges)
	global := make([]byte, 8192)
	rng.Read(global)
	spec := LaunchSpec{Kernel: k, Grid: ptx.D1(ctas), Block: ptx.D1(threads), Args: []uint64{0, 4096}, MaxCycles: 1 << 22}
	checkPipelineMatchesSerial(t, fmt.Sprintf("seed %d", seed), twoSMs(), spec, global)
}

func TestPipelineRandomKernels(t *testing.T) {
	n := int64(80)
	if testing.Short() {
		n = 20
	}
	for seed := int64(0); seed < n; seed++ {
		checkRandomPipeline(t, seed, 10+int(seed%50), []int{64, 48, 96, 32}[seed%4], 1+int(seed%7), seed%3 == 2)
	}
}

// FuzzPipelineMatchesSerial fuzzes the random kernel's seed and length,
// the block size (partial warps take the per-lane twins), the CTA count
// (more CTAs than the two SMs hold recycle CTA slots) and whether
// data→control edges are allowed (a non-separable kernel runs serially on
// both sides, which keeps the oracle honest about the selection).
func FuzzPipelineMatchesSerial(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(64), uint8(3), false)
	f.Add(int64(2), uint8(40), uint8(48), uint8(7), false)
	f.Add(int64(3), uint8(60), uint8(33), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, nOps, threads, ctas uint8, edges bool) {
		checkRandomPipeline(t, seed, int(nOps)%64+1, int(threads)%96+1, int(ctas)%12+1, edges)
	})
}

// Every golden workload, on seeded memory under every policy, leaves the
// same bytes on both paths (the fixture's Stats are TestGoldenStats').
func TestGoldenWorkloadsMemoryPipelineMatchesSerial(t *testing.T) {
	for _, w := range goldenWorkloads(t) {
		global := make([]byte, len(w.spec.Global.(*ptx.FlatMemory).Data))
		rand.New(rand.NewSource(int64(len(global)))).Read(global)
		for _, pol := range Schedulers() {
			cfg := twoSMs()
			cfg.Scheduler = pol
			if w.cfg != nil {
				w.cfg(&cfg)
			}
			checkPipelineMatchesSerial(t, w.name+"/"+pol.String(), cfg, w.spec, global)
		}
	}
}

// clockStoreKernel stores each thread's %clock before and after a barrier
// as one 64-bit word at out[global thread index].
func clockStoreKernel() *ptx.Kernel {
	b := ptx.NewBuilder("clock_store")
	out := b.Param("out", ptx.U64)
	gid, a, c0, c1 := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Mad(ptx.U32, gid, ptx.SR(ptx.SRegCtaIDX), ptx.SR(ptx.SRegNTidX), ptx.SR(ptx.SRegTidX))
	b.MulWide(a, ptx.R(gid), ptx.Imm(8))
	b.Add(ptx.U64, a, ptx.R(a), ptx.R(out))
	b.Clock(c0)
	b.Bar()
	b.Clock(c1)
	b.St(ptx.Global, 64, ptx.R(a), []ptx.Operand{ptx.R(c0), ptx.R(c1)})
	b.Exit()
	return b.MustBuild()
}

// %clock on the value side reads the cycle the timing loop issued at:
// kernels that store clocks — raw, and the clocked mma chain's deltas,
// whose CTAs overwrite one another's slots — end byte for byte equal.
func TestPipelineClockedStores(t *testing.T) {
	const ctas, threads = 6, 80
	raw := checkPipelineMatchesSerial(t, "clock_store", twoSMs(), LaunchSpec{Kernel: clockStoreKernel(),
		Grid: ptx.D1(ctas), Block: ptx.D1(threads), Args: []uint64{0}}, make([]byte, 8*ctas*threads))
	for i := 0; i < ctas*threads; i++ {
		c0, c1 := le32(raw[8*i:]), le32(raw[8*i+4:])
		if c1 <= c0 {
			t.Fatalf("thread %d: clocks %d then %d across a barrier", i, c0, c1)
		}
	}
	l, err := kernels.ClockedMMA(kernels.TensorMixed, 4)
	if err != nil {
		t.Fatal(err)
	}
	mma := checkPipelineMatchesSerial(t, "clocked_mma", twoSMs(), LaunchSpec{Kernel: l.Kernel,
		Grid: ptx.D1(ctas), Block: ptx.D1(64), Args: []uint64{0, 4096}}, make([]byte, 4096+8))
	for w := 0; w < 2; w++ {
		if d := le32(mma[4096+4*w:]); d < 4*54 {
			t.Errorf("warp %d: clocked delta %d, want ≥ %d", w, d, 4*54)
		}
	}
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// waitGoroutines fails unless the goroutine count returns to base: a
// value goroutine that has closed its done channel may still be on its
// way out when Run returns.
func waitGoroutines(t *testing.T, name string, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after Run, %d before", name, runtime.NumGoroutine(), base)
		}
	}
}

// A pipelined launch that faults, is canceled before or during the run,
// or exceeds MaxCycles returns its error with no goroutine left behind.
func TestPipelineLeavesNoGoroutine(t *testing.T) {
	setProcs(t, 2)
	diverge := func() *ptx.Kernel {
		b := ptx.NewBuilder("diverge")
		p := b.Reg()
		b.Setp(ptx.U32, ptx.CmpLT, p, ptx.SR(ptx.SRegLaneID), ptx.Imm(7))
		b.BraIf(p, false, "out")
		b.Label("out")
		b.Exit()
		return b.MustBuild()
	}()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		spec LaunchSpec
		ctx  func() (context.Context, context.CancelFunc)
		want error
		text string
	}{
		{name: "fault", spec: LaunchSpec{Kernel: diverge, Grid: ptx.D1(4), Block: ptx.D1(64)}, text: "divergent branch"},
		{name: "canceled", spec: LaunchSpec{Kernel: spinKernel(), Grid: ptx.D1(1), Block: ptx.D1(32), Ctx: canceled}, want: context.Canceled},
		{name: "canceled-mid-run", spec: LaunchSpec{Kernel: spinKernel(), Grid: ptx.D1(2), Block: ptx.D1(64)},
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 20*time.Millisecond)
			}, want: context.DeadlineExceeded},
		{name: "max-cycles", spec: LaunchSpec{Kernel: spinKernel(), Grid: ptx.D1(2), Block: ptx.D1(64), MaxCycles: 100_000}, want: ErrCycleBudget},
	} {
		if !c.spec.Kernel.TimingSeparable() {
			t.Fatalf("%s: kernel not separable, the launch would not pipeline", c.name)
		}
		base := runtime.NumGoroutine()
		if c.ctx != nil {
			ctx, cancel := c.ctx()
			c.spec.Ctx = ctx
			defer cancel()
		}
		sim, err := New(twoSMs())
		if err != nil {
			t.Fatal(err)
		}
		c.spec.Global = ptx.NewFlatMemory(64)
		_, err = sim.Run(c.spec)
		if err == nil || c.want != nil && !errors.Is(err, c.want) || c.text != "" && !strings.Contains(err.Error(), c.text) {
			t.Fatalf("%s: Run = %v, want %v%s", c.name, err, c.want, c.text)
		}
		waitGoroutines(t, c.name, base)
	}
}

// cancelOnWrite is a memory whose writes cancel the launch's Ctx: on a
// pipelined launch the value goroutine makes them.
type cancelOnWrite struct {
	ptx.FlatMemory
	cancel context.CancelFunc
}

func (m *cancelOnWrite) Write(addr uint64, data []byte) {
	m.cancel()
	m.FlatMemory.Write(addr, data)
}

// A Ctx canceled after the timing loop's last poll does not cut the value
// replay short: a launch that returns no error leaves the serial run's
// memory. Each warp stores first and last; the first store, in the first
// batch, cancels. The timing loop polls Ctx every 1024 passes and needs
// fewer, but records more events than the batches hold, so before it can
// finish it waits for the value side to hand the first batch back, by
// which time the Ctx is canceled.
func TestPipelineCancelAfterTimingReplaysAll(t *testing.T) {
	b := ptx.NewBuilder("store_twice")
	out := b.Param("out", ptx.U64)
	gid, a := b.Reg(), b.Reg()
	b.Mad(ptx.U32, gid, ptx.SR(ptx.SRegCtaIDX), ptx.SR(ptx.SRegNTidX), ptx.SR(ptx.SRegTidX))
	b.MulWide(a, ptx.R(gid), ptx.Imm(8))
	b.Add(ptx.U64, a, ptx.R(a), ptx.R(out))
	b.St(ptx.Global, 32, ptx.R(a), []ptx.Operand{ptx.R(gid)})
	for i := 0; i < 16; i++ {
		b.Add(ptx.U32, b.Reg(), ptx.R(gid), ptx.Imm(uint64(i)))
	}
	b.Add(ptx.U32, gid, ptx.R(gid), ptx.Imm(1))
	b.St(ptx.Global, 64, ptx.R(a), []ptx.Operand{ptx.R(gid), ptx.R(gid)})
	b.Exit()
	k := b.MustBuild()
	cfg := TitanV()
	cfg.NumSMs = 8
	spec := LaunchSpec{Kernel: k, Grid: ptx.D1(160), Block: ptx.D1(128), Args: []uint64{0}}
	size := 8 * spec.Grid.Count() * spec.Block.Count()
	want, wantMem, err := launchProcs(t, 1, cfg, spec, make([]byte, size))
	if err != nil {
		t.Fatal(err)
	}
	if want.Cycles >= 1024 || want.WarpInstructions <= batches*batchEvents {
		t.Fatalf("%d warp instructions in %d cycles: the launch no longer outruns the batches within one Ctx poll",
			want.WarpInstructions, want.Cycles)
	}

	setProcs(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := &cancelOnWrite{FlatMemory: *ptx.NewFlatMemory(size), cancel: cancel}
	spec.Ctx, spec.Global = ctx, m
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(spec)
	if err != nil {
		t.Fatalf("Run = %v: the timing loop saw the cancellation", err)
	}
	if ctx.Err() == nil {
		t.Fatal("no store canceled the Ctx")
	}
	if !reflect.DeepEqual(st, want) {
		t.Errorf("stats differ\npipelined: %+v\nserial:    %+v", st, want)
	}
	if string(m.Data) != string(wantMem) {
		t.Error("a launch that returned no error left memory short of the serial run's")
	}
}

// storePanics is a memory whose every write panics: the value side meets
// it only on the value goroutine of a pipelined launch.
type storePanics struct{ ptx.FlatMemory }

func (*storePanics) Write(uint64, []byte) { panic("store refused") }

// A panic on the value goroutine is re-raised on Run's, as the serial
// path raises it, so a caller's recover still isolates it.
func TestPipelineValuePanicReraised(t *testing.T) {
	for _, procs := range []int{1, 2} {
		setProcs(t, procs)
		base := runtime.NumGoroutine()
		sim, err := New(smallTitanV())
		if err != nil {
			t.Fatal(err)
		}
		got := func() (p any) {
			defer func() { p = recover() }()
			_, err := sim.Run(LaunchSpec{Kernel: vecAddKernel(), Grid: ptx.D1(8), Block: ptx.D1(128),
				Args: []uint64{0, 4096, 8192}, Global: &storePanics{*ptx.NewFlatMemory(12288)}})
			t.Errorf("GOMAXPROCS %d: Run returned %v instead of panicking", procs, err)
			return nil
		}()
		if got != "store refused" {
			t.Errorf("GOMAXPROCS %d: recovered %v, want the memory's panic", procs, got)
		}
		waitGoroutines(t, fmt.Sprintf("GOMAXPROCS %d", procs), base)
	}
}

// goroutineID is the calling goroutine's ID, from its stack header.
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// offThread is a memory that notes a write from any goroutine but the
// launching one.
type offThread struct {
	ptx.FlatMemory
	launcher string
	off      bool
}

func (m *offThread) Write(addr uint64, data []byte) {
	m.off = m.off || goroutineID() != m.launcher
	m.FlatMemory.Write(addr, data)
}

// Only a full-value launch of a separable kernel with a second processor
// moves its values off Run's goroutine.
func TestPipelineSelection(t *testing.T) {
	scatter := func() *ptx.Kernel { // a loaded index addresses the store
		b := ptx.NewBuilder("scatter")
		in := b.Param("in", ptx.U64)
		a, v := b.Reg(), b.Reg()
		b.MulWide(a, ptx.SR(ptx.SRegTidX), ptx.Imm(4))
		b.Add(ptx.U64, a, ptx.R(a), ptx.R(in))
		b.Ld(ptx.Global, 32, []ptx.Reg{v}, ptx.R(a))
		b.And(ptx.U32, v, ptx.R(v), ptx.Imm(63))
		b.MulWide(a, ptx.R(v), ptx.Imm(4))
		b.Add(ptx.U64, a, ptx.R(a), ptx.R(in))
		b.St(ptx.Global, 32, ptx.R(a), []ptx.Operand{ptx.SR(ptx.SRegTidX)})
		b.Exit()
		return b.MustBuild()
	}()
	if scatter.TimingSeparable() {
		t.Fatal("the scatter kernel is separable: its row below tests nothing")
	}
	for _, c := range []struct {
		name       string
		kernel     *ptx.Kernel
		args       []uint64
		timingOnly bool
		procs      int
		want       bool
	}{
		{"full value", vecAddKernel(), []uint64{0, 4096, 8192}, false, 2, true},
		{"one processor", vecAddKernel(), []uint64{0, 4096, 8192}, false, 1, false},
		{"timing only", vecAddKernel(), []uint64{0, 4096, 8192}, true, 2, false},
		{"not separable", scatter, []uint64{0}, false, 2, false},
	} {
		setProcs(t, c.procs)
		sim, err := New(smallTitanV())
		if err != nil {
			t.Fatal(err)
		}
		m := &offThread{FlatMemory: *ptx.NewFlatMemory(12288), launcher: goroutineID()}
		if _, err := sim.Run(LaunchSpec{Kernel: c.kernel, Grid: ptx.D1(8), Block: ptx.D1(128), Args: c.args,
			Global: m, TimingOnly: c.timingOnly}); err != nil {
			t.Fatal(err)
		}
		if m.off != c.want {
			t.Errorf("%s: values written off Run's goroutine = %v, want %v", c.name, m.off, c.want)
		}
	}
}
