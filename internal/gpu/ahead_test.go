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

	"repro/internal/ptx"
)

// Warps stepped ahead (DESIGN.md "Two goroutines"): a TimingOnly launch of
// a kernel that steps ahead, with GOMAXPROCS > 1, steps its warps on a
// second goroutine and the timing loop reads their streams. The oracle is
// the serial path of the same Run, selected with GOMAXPROCS 1.

// checkRunAheadMatchesSerial launches spec TimingOnly serially and with
// its warps stepped ahead, and requires equal errors and equal Stats.
func checkRunAheadMatchesSerial(t testing.TB, name string, cfg Config, spec LaunchSpec) {
	t.Helper()
	spec.TimingOnly = true
	global := make([]byte, 8192)
	want, _, wantErr := launchProcs(t, 1, cfg, spec, global)
	st, _, err := launchProcs(t, 2, cfg, spec, global)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: errors differ\nahead:  %v\nserial: %v", name, err, wantErr)
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("%s: stats differ\nahead:  %+v\nserial: %+v", name, st, want)
	}
}

// exitKernel is a loop over shared and global accesses and a barrier
// that each warp leaves by a guarded exit, after a number of trips its
// guard reads from the warp's or the CTA's index; with lanes, the guard
// reads the lane instead, and the exit diverges.
func exitKernel(rng *rand.Rand, lanes bool) *ptx.Kernel {
	b := ptx.NewBuilder(fmt.Sprintf("exits_%d", rng.Int63()))
	out := b.Param("out", ptx.U64)
	smem := b.Shared(1024)
	who := []ptx.SReg{ptx.SRegWarpID, ptx.SRegCtaIDX, ptx.SRegLaneID}[rng.Intn(2)]
	if lanes {
		who = ptx.SRegLaneID
	}
	i, p, a, s := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Mov(ptx.U32, i, ptx.Imm(0))
	b.MulWide(a, ptx.SR(ptx.SRegTidX), ptx.Imm(uint64(4*(1+rng.Intn(33)))))
	b.And(ptx.U64, a, ptx.R(a), ptx.Imm(4095))
	b.Add(ptx.U64, a, ptx.R(a), ptx.R(out))
	b.MulWide(s, ptx.SR(ptx.SRegTidX), ptx.Imm(uint64(4*(1+rng.Intn(4)))))
	b.And(ptx.U64, s, ptx.R(s), ptx.Imm(1023))
	b.Add(ptx.U64, s, ptx.R(s), ptx.Imm(smem))
	b.Label("top")
	b.Setp(ptx.U32, ptx.CmpLT, p, ptx.SR(who), ptx.R(i))
	b.At(p, false).Exit()
	b.St(ptx.Shared, 32, ptx.R(s), []ptx.Operand{ptx.R(i)})
	if rng.Intn(2) == 0 {
		b.Bar()
	}
	b.Ld(ptx.Shared, 32, []ptx.Reg{b.Reg()}, ptx.R(s))
	b.St(ptx.Global, 32, ptx.R(a), []ptx.Operand{ptx.R(i)})
	b.Add(ptx.U32, i, ptx.R(i), ptx.Imm(1))
	b.Setp(ptx.U32, ptx.CmpLT, p, ptx.R(i), ptx.Imm(uint64(2+rng.Intn(6))))
	b.BraIf(p, false, "top")
	b.Exit()
	return b.MustBuild()
}

// checkRandomRunAhead runs seed's kernel — the random kernel of
// timingonly_test.go, or an exitKernel — over ctas CTAs on two SMs under
// the policy, simulating the first maxCTAs of them when that is nonzero.
func checkRandomRunAhead(t testing.TB, seed int64, nOps, threads, ctas, maxCTAs int, pol SchedulerPolicy, kind int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var k *ptx.Kernel
	if kind == 0 {
		k = randomKernel(rng, nOps, false)
	} else {
		k = exitKernel(rng, kind == 2)
	}
	if !k.StepsAhead() {
		t.Fatalf("seed %d: kernel %s does not step ahead: the comparison would be vacuous", seed, k.Name)
	}
	cfg := twoSMs()
	cfg.Scheduler = pol
	spec := LaunchSpec{Kernel: k, Grid: ptx.D1(ctas), Block: ptx.D1(threads), Args: []uint64{0, 4096},
		MaxCTAs: maxCTAs, MaxCycles: 1 << 22}
	if kind > 0 {
		spec.Args = spec.Args[:1]
	}
	checkRunAheadMatchesSerial(t, fmt.Sprintf("seed %d/%v", seed, pol), cfg, spec)
}

func TestRunAheadRandomKernels(t *testing.T) {
	n := int64(60)
	if testing.Short() {
		n = 15
	}
	for seed := int64(0); seed < n; seed++ {
		checkRandomRunAhead(t, seed, 10+int(seed%50), []int{64, 48, 96, 32, 128}[seed%5], 1+int(seed%17),
			int(seed%4), Schedulers()[seed%3], int(seed%3))
	}
}

// FuzzRunAheadMatchesSerial fuzzes the kernel (its seed and length, and
// whether it is a random kernel, a loop left by warp-uniform guarded exits
// or one whose exit diverges), the block size (partial warps), the CTA
// count (more CTAs than two SMs hold recycle the ahead goroutine's
// CTAs), MaxCTAs sampling and the scheduling policy.
func FuzzRunAheadMatchesSerial(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(64), uint8(3), uint8(0), uint8(0))
	f.Add(int64(2), uint8(40), uint8(48), uint8(20), uint8(5), uint8(4))
	f.Add(int64(3), uint8(60), uint8(128), uint8(9), uint8(0), uint8(8))
	f.Add(int64(4), uint8(1), uint8(96), uint8(13), uint8(2), uint8(17))
	f.Fuzz(func(t *testing.T, seed int64, nOps, threads, ctas, maxCTAs, mode uint8) {
		checkRandomRunAhead(t, seed, int(nOps)%64+1, int(threads)%128+1, int(ctas)%24+1, int(maxCTAs)%8,
			Schedulers()[mode%3], int(mode/3)%3)
	})
}

// Every golden workload steps ahead and, stepped ahead under every
// policy, gives the fixture's Stats.
func TestGoldenStatsRunAhead(t *testing.T) {
	for _, w := range goldenWorkloads(t) {
		if !w.spec.Kernel.StepsAhead() {
			t.Errorf("%s does not step ahead: the comparison below would be vacuous", w.name)
		}
	}
	setProcs(t, 2)
	checkGolden(t, runGolden(t, func(s *LaunchSpec) { s.TimingOnly = true }))
}

// clockBranchKernel stores each thread's index, then takes a branch on the
// parity of %clock: a warp's path depends on when it issues, so it must
// not step ahead.
func clockBranchKernel() *ptx.Kernel {
	b := ptx.NewBuilder("clock_branch")
	out := b.Param("out", ptx.U64)
	c, p, a := b.Reg(), b.Reg(), b.Reg()
	b.MulWide(a, ptx.SR(ptx.SRegTidX), ptx.Imm(4))
	b.Add(ptx.U64, a, ptx.R(a), ptx.R(out))
	b.St(ptx.Global, 32, ptx.R(a), []ptx.Operand{ptx.SR(ptx.SRegTidX)})
	b.Clock(c)
	b.And(ptx.U32, c, ptx.R(c), ptx.Imm(1))
	b.Setp(ptx.U32, ptx.CmpEQ, p, ptx.R(c), ptx.Imm(0))
	b.BraIf(p, false, "even")
	b.St(ptx.Global, 32, ptx.R(a), []ptx.Operand{ptx.R(c)})
	b.Label("even")
	b.Exit()
	return b.MustBuild()
}

// A separable kernel whose branch reads %clock runs serially on both
// sides, TimingOnly and at full value — stepped ahead, reading %clock
// panics — with equal Stats and memory; one that only stores %clock steps
// ahead.
func TestRunAheadClockSelection(t *testing.T) {
	k := clockBranchKernel()
	if !k.TimingSeparable() || k.StepsAhead() {
		t.Fatalf("clock_branch: separable %v, steps ahead %v; want true, false", k.TimingSeparable(), k.StepsAhead())
	}
	spec := LaunchSpec{Kernel: k, Grid: ptx.D1(6), Block: ptx.D1(80), Args: []uint64{0}}
	checkRunAheadMatchesSerial(t, "clock_branch", twoSMs(), spec)
	checkPipelineMatchesSerial(t, "clock_branch/full value", twoSMs(), spec, make([]byte, 4*80))
	if k := clockStoreKernel(); !k.StepsAhead() {
		t.Errorf("clock_store does not step ahead: its %%clock reaches only stored data")
	}
	// %clock as an address, through a register and straight from the
	// special register: a store that skips its data still generates it.
	for _, direct := range []bool{false, true} {
		b := ptx.NewBuilder("clock_address")
		a := ptx.SR(ptx.SRegClock)
		if !direct {
			r := b.Reg()
			b.Clock(r)
			b.And(ptx.U32, r, ptx.R(r), ptx.Imm(1020))
			a = ptx.R(r)
		}
		b.St(ptx.Global, 32, a, []ptx.Operand{ptx.Imm(1)})
		b.Exit()
		if k := b.MustBuild(); !k.TimingSeparable() || k.StepsAhead() {
			t.Errorf("clock_address (direct %v): separable %v, steps ahead %v; want true, false", direct, k.TimingSeparable(), k.StepsAhead())
		}
	}
}

// A launch stepped ahead that faults, is canceled before or during the
// run, or exceeds MaxCycles returns the serial path's error with no
// goroutine left behind; a canceled one returns promptly.
func TestRunAheadLeavesNoGoroutine(t *testing.T) {
	diverge := exitKernel(rand.New(rand.NewSource(1)), true)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		spec LaunchSpec
		ctx  func() (context.Context, context.CancelFunc)
		want error
		text string
	}{
		{name: "fault", spec: LaunchSpec{Kernel: diverge, Grid: ptx.D1(4), Block: ptx.D1(64), Args: []uint64{0}}, text: "divergent exit"},
		{name: "canceled", spec: LaunchSpec{Kernel: spinKernel(), Grid: ptx.D1(1), Block: ptx.D1(32), Ctx: canceled}, want: context.Canceled},
		{name: "canceled-mid-run", spec: LaunchSpec{Kernel: spinKernel(), Grid: ptx.D1(2), Block: ptx.D1(64)},
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 20*time.Millisecond)
			}, want: context.DeadlineExceeded},
		{name: "max-cycles", spec: LaunchSpec{Kernel: spinKernel(), Grid: ptx.D1(2), Block: ptx.D1(64), MaxCycles: 100_000}, want: ErrCycleBudget},
	} {
		if !c.spec.Kernel.StepsAhead() {
			t.Fatalf("%s: kernel does not step ahead", c.name)
		}
		c.spec.TimingOnly = true
		var texts [2]string
		for i, procs := range []int{1, 2} {
			setProcs(t, procs)
			base := runtime.NumGoroutine()
			spec := c.spec
			if c.ctx != nil {
				ctx, cancel := c.ctx()
				spec.Ctx = ctx
				defer cancel()
			}
			sim, err := New(twoSMs())
			if err != nil {
				t.Fatal(err)
			}
			spec.Global = ptx.NewFlatMemory(64)
			begin := time.Now()
			_, err = sim.Run(spec)
			if err == nil || c.want != nil && !errors.Is(err, c.want) || c.text != "" && !strings.Contains(err.Error(), c.text) {
				t.Fatalf("%s, GOMAXPROCS %d: Run = %v, want %v%s", c.name, procs, err, c.want, c.text)
			}
			if took := time.Since(begin); c.ctx != nil && took > 2*time.Second {
				t.Errorf("%s, GOMAXPROCS %d: Run returned %v after the start, not promptly", c.name, procs, took)
			}
			texts[i] = err.Error()
			waitGoroutines(t, fmt.Sprintf("%s, GOMAXPROCS %d", c.name, procs), base)
		}
		if c.ctx == nil && texts[0] != texts[1] {
			t.Errorf("%s: errors differ\nserial: %s\nahead:  %s", c.name, texts[0], texts[1])
		}
	}
}

// A panic on the ahead goroutine is re-raised on Run's, as the serial path
// raises it on its own, so a caller's recover still isolates it. A
// negative SharedBytes makes building the CTA's shared window panic.
func TestRunAheadPanicReraised(t *testing.T) {
	var got [2]string
	for i, procs := range []int{1, 2} {
		setProcs(t, procs)
		base := runtime.NumGoroutine()
		k := spinKernel()
		k.SharedBytes = -1
		sim, err := New(twoSMs())
		if err != nil {
			t.Fatal(err)
		}
		p := func() (p any) {
			defer func() { p = recover() }()
			_, err := sim.Run(LaunchSpec{Kernel: k, Grid: ptx.D1(4), Block: ptx.D1(64), Global: ptx.NewFlatMemory(64), TimingOnly: true})
			t.Errorf("GOMAXPROCS %d: Run returned %v instead of panicking", procs, err)
			return nil
		}()
		if err, ok := p.(error); ok {
			got[i] = err.Error()
		}
		waitGoroutines(t, fmt.Sprintf("GOMAXPROCS %d", procs), base)
	}
	if got[0] == "" || got[0] != got[1] {
		t.Errorf("recovered %q serially, %q ahead; want the same runtime error", got[0], got[1])
	}
}
