package gpu

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/ptx"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// vecAddKernel computes c[i] = a[i] + b[i] over n uint32 elements.
func vecAddKernel() *ptx.Kernel {
	b := ptx.NewBuilder("vecadd")
	pa := b.Param("a", ptx.U64)
	pb := b.Param("b", ptx.U64)
	pc := b.Param("c", ptx.U64)
	idx, off, ax, bx, va, vb := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Mad(ptx.U32, idx, ptx.SR(ptx.SRegCtaIDX), ptx.SR(ptx.SRegNTidX), ptx.SR(ptx.SRegTidX))
	b.MulWide(off, ptx.R(idx), ptx.Imm(4))
	b.Add(ptx.U64, ax, ptx.R(pa), ptx.R(off))
	b.Add(ptx.U64, bx, ptx.R(pb), ptx.R(off))
	b.Ld(ptx.Global, 32, []ptx.Reg{va}, ptx.R(ax))
	b.Ld(ptx.Global, 32, []ptx.Reg{vb}, ptx.R(bx))
	b.Add(ptx.U32, va, ptx.R(va), ptx.R(vb))
	cx := b.Reg()
	b.Add(ptx.U64, cx, ptx.R(pc), ptx.R(off))
	b.St(ptx.Global, 32, ptx.R(cx), []ptx.Operand{ptx.R(va)})
	b.Exit()
	return b.MustBuild()
}

func smallTitanV() Config {
	cfg := TitanV()
	cfg.NumSMs = 4
	return cfg
}

func TestVecAddTimingAndCorrectness(t *testing.T) {
	const n = 1024
	mem := ptx.NewFlatMemory(3 * 4 * n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(mem.Data[4*i:], uint32(i))
		binary.LittleEndian.PutUint32(mem.Data[4*(n+i):], uint32(2*i))
	}
	sim, err := New(smallTitanV())
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(LaunchSpec{
		Kernel: vecAddKernel(),
		Grid:   ptx.D1(n / 128),
		Block:  ptx.D1(128),
		Args:   []uint64{0, 4 * n, 8 * n},
		Global: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := binary.LittleEndian.Uint32(mem.Data[4*(2*n+i):]); got != uint32(3*i) {
			t.Fatalf("c[%d] = %d, want %d", i, got, 3*i)
		}
	}
	if st.Cycles == 0 || st.WarpInstructions == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if st.IPC() <= 0 {
		t.Error("IPC should be positive")
	}
	if st.CTAsSimulated != n/128 || st.CTAsTotal != n/128 {
		t.Errorf("CTAs %d/%d", st.CTAsSimulated, st.CTAsTotal)
	}
	// The kernel is memory-bound and cold: cycles must exceed the DRAM
	// latency but not be absurd.
	if st.Cycles < 300 || st.Cycles > 100_000 {
		t.Errorf("cycles = %d, outside sane range", st.Cycles)
	}
}

func mixedCfg() wmma.Config {
	return wmma.Config{Arch: wmma.Volta, Shape: wmma.M16N16K16,
		ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
		AType: wmma.F16, CType: wmma.F32, DType: wmma.F32}
}

// mmaLoopKernel loads fragments once and runs `iters` loop iterations of
// two independent wmma.mma chains — the independence keeps the tensor
// unit throughput-bound rather than dependency-bound, like the paper's
// "repeatedly executes HMMA operations" microbenchmark.
func mmaLoopKernel(iters int) *ptx.Kernel {
	b := ptx.NewBuilder("mma_loop")
	pa := b.Param("a", ptx.U64)
	cfg := mixedCfg()
	fa := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, ptx.R(pa), ptx.Imm(16))
	fb := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, ptx.R(pa), ptx.Imm(16))
	fc1 := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, tensor.RowMajor, cfg.CType, ptx.R(pa), ptx.Imm(16))
	fc2 := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, tensor.RowMajor, cfg.CType, ptx.R(pa), ptx.Imm(16))
	i, p := b.Reg(), b.Reg()
	b.Mov(ptx.U32, i, ptx.Imm(0))
	b.Label("loop")
	fc1 = b.WmmaMMA(cfg, fa, fb, fc1)
	fc2 = b.WmmaMMA(cfg, fa, fb, fc2)
	b.Add(ptx.U32, i, ptx.R(i), ptx.Imm(1))
	b.Setp(ptx.U32, ptx.CmpLT, p, ptx.R(i), ptx.Imm(uint64(iters)))
	b.BraIf(p, false, "loop")
	b.Exit()
	return b.MustBuild()
}

// runMMAWarps runs the HMMA loop with the given warps per CTA on one SM
// and returns total cycles — the Figure 12c experiment.
func runMMAWarps(t *testing.T, warps, iters int) uint64 {
	t.Helper()
	cfg := TitanV()
	cfg.NumSMs = 1
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(LaunchSpec{
		Kernel: mmaLoopKernel(iters),
		Grid:   ptx.D1(1),
		Block:  ptx.D1(32 * warps),
		Args:   []uint64{0},
		Global: ptx.NewFlatMemory(4096),
	})
	if err != nil {
		t.Fatal(err)
	}
	return st.Cycles
}

// Figure 12c: cycles stay flat up to 4 warps (one per sub-core, each warp
// using both of its sub-core's tensor cores), then grow once warps share
// a sub-core's tensor cores.
func TestHMMAWarpKnee(t *testing.T) {
	const iters = 16
	base := runMMAWarps(t, 1, iters)
	at4 := runMMAWarps(t, 4, iters)
	at5 := runMMAWarps(t, 5, iters)
	at8 := runMMAWarps(t, 8, iters)
	if float64(at4) > 1.25*float64(base) {
		t.Errorf("4 warps took %d cycles vs %d for 1; should be flat to the knee", at4, base)
	}
	if float64(at5) < 1.4*float64(at4) {
		t.Errorf("5 warps took %d cycles vs %d for 4; expected the knee at 4 warps", at5, at4)
	}
	if at8 < at5 {
		t.Errorf("8 warps (%d cycles) should not beat 5 (%d)", at8, at5)
	}
}

func TestTensorAblationKnobs(t *testing.T) {
	run := func(mod func(*Config)) uint64 {
		cfg := TitanV()
		cfg.NumSMs = 1
		mod(&cfg)
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(LaunchSpec{
			Kernel: mmaLoopKernel(32),
			Grid:   ptx.D1(1),
			Block:  ptx.D1(32),
			Args:   []uint64{0},
			Global: ptx.NewFlatMemory(4096),
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	base := run(func(*Config) {})
	oneTC := run(func(c *Config) { c.TensorCoresPerSubCore = 1 })
	noReuse := run(func(c *Config) { c.ReuseCache = false })
	slowII := run(func(c *Config) { c.HMMAIIScale = 2 })
	if oneTC <= base {
		t.Errorf("1 tensor core/sub-core: %d cycles, want > %d", oneTC, base)
	}
	if noReuse <= base {
		t.Errorf("no reuse cache: %d cycles, want > %d", noReuse, base)
	}
	if slowII <= base {
		t.Errorf("doubled HMMA II: %d cycles, want > %d", slowII, base)
	}
}

func TestSchedulerPoliciesBothComplete(t *testing.T) {
	for _, pol := range Schedulers() {
		cfg := smallTitanV()
		cfg.Scheduler = pol
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mem := ptx.NewFlatMemory(3 * 4 * 512)
		st, err := sim.Run(LaunchSpec{
			Kernel: vecAddKernel(),
			Grid:   ptx.D1(4),
			Block:  ptx.D1(128),
			Args:   []uint64{0, 4 * 512, 8 * 512},
			Global: mem,
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if st.Cycles == 0 {
			t.Errorf("%v: no cycles simulated", pol)
		}
	}
}

// stagedKernel builds the barrier workload shared by the timing and
// scheduler tests: stage 256 words into shared memory, synchronize, read
// them back reversed.
func stagedKernel() *ptx.Kernel {
	b := ptx.NewBuilder("stage")
	pin := b.Param("in", ptx.U64)
	pout := b.Param("out", ptx.U64)
	smem := b.Shared(256 * 4)
	tid, a, v := b.Reg(), b.Reg(), b.Reg()
	b.Mov(ptx.U32, tid, ptx.SR(ptx.SRegTidX))
	b.MulWide(a, ptx.R(tid), ptx.Imm(4))
	srcA := b.Reg()
	b.Add(ptx.U64, srcA, ptx.R(a), ptx.R(pin))
	b.Ld(ptx.Global, 32, []ptx.Reg{v}, ptx.R(srcA))
	dstS := b.Reg()
	b.Add(ptx.U64, dstS, ptx.R(a), ptx.Imm(smem))
	b.St(ptx.Shared, 32, ptx.R(dstS), []ptx.Operand{ptx.R(v)})
	b.Bar()
	// Read reversed from shared.
	rev := b.Reg()
	b.Sub(ptx.U32, rev, ptx.Imm(255), ptx.R(tid))
	revOff := b.Reg()
	b.MulWide(revOff, ptx.R(rev), ptx.Imm(4))
	srcS := b.Reg()
	b.Add(ptx.U64, srcS, ptx.R(revOff), ptx.Imm(smem))
	b.Ld(ptx.Shared, 32, []ptx.Reg{v}, ptx.R(srcS))
	dstG := b.Reg()
	b.Add(ptx.U64, dstG, ptx.R(a), ptx.R(pout))
	b.St(ptx.Global, 32, ptx.R(dstG), []ptx.Operand{ptx.R(v)})
	b.Exit()
	return b.MustBuild()
}

// The timing simulator must preserve functional correctness through
// barriers and shared memory (a staged-copy kernel).
func TestBarrierKernelUnderTiming(t *testing.T) {
	mem := ptx.NewFlatMemory(2 * 4 * 256)
	for i := 0; i < 256; i++ {
		binary.LittleEndian.PutUint32(mem.Data[4*i:], uint32(i*11))
	}
	sim, err := New(smallTitanV())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(LaunchSpec{
		Kernel: stagedKernel(),
		Grid:   ptx.D1(1),
		Block:  ptx.D1(256),
		Args:   []uint64{0, 4 * 256},
		Global: mem,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		want := uint32((255 - i) * 11)
		if got := binary.LittleEndian.Uint32(mem.Data[4*(256+i):]); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestSampledRunLimitsCTAs(t *testing.T) {
	mem := ptx.NewFlatMemory(3 * 4 * 4096)
	sim, err := New(smallTitanV())
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(LaunchSpec{
		Kernel:  vecAddKernel(),
		Grid:    ptx.D1(32),
		Block:   ptx.D1(128),
		Args:    []uint64{0, 4 * 4096, 8 * 4096},
		Global:  mem,
		MaxCTAs: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.CTAsSimulated != 8 || st.CTAsTotal != 32 {
		t.Errorf("sampled %d/%d CTAs, want 8/32", st.CTAsSimulated, st.CTAsTotal)
	}
}

func TestMultiSMScales(t *testing.T) {
	run := func(sms int) uint64 {
		cfg := TitanV()
		cfg.NumSMs = sms
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mem := ptx.NewFlatMemory(3 * 4 * 8192)
		st, err := sim.Run(LaunchSpec{
			Kernel: vecAddKernel(),
			Grid:   ptx.D1(64),
			Block:  ptx.D1(128),
			Args:   []uint64{0, 4 * 8192, 8 * 8192},
			Global: mem,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	one := run(1)
	eight := run(8)
	if float64(eight) > 0.8*float64(one) {
		t.Errorf("8 SMs took %d cycles vs %d on 1 SM; expected parallel speedup", eight, one)
	}
}

func TestTraceCollectsWmmaLatencies(t *testing.T) {
	cfg := TitanV()
	cfg.NumSMs = 1
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(LaunchSpec{
		Kernel: mmaLoopKernel(4),
		Grid:   ptx.D1(1),
		Block:  ptx.D1(32),
		Args:   []uint64{0},
		Global: ptx.NewFlatMemory(4096),
		Trace:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace == nil || len(st.Trace.WmmaLoad) != 4 || len(st.Trace.WmmaMMA) != 8 {
		t.Fatalf("trace = %+v", st.Trace)
	}
	// The tensor op latency is at least the calibrated 54-cycle sequence.
	for _, l := range st.Trace.WmmaMMA {
		if l < 54 {
			t.Errorf("wmma.mma latency %v below the calibrated 54-cycle floor", l)
		}
	}
}

func TestPeakTFLOPS(t *testing.T) {
	got := TitanV().PeakTensorTFLOPS()
	if got < 124 || got > 127 {
		t.Errorf("Titan V peak = %.1f TFLOPS, want ≈ 125 (the paper's theoretical limit)", got)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []struct {
		name, field string
		mod         func(*Config)
	}{
		{"three tensor cores", "tensor cores", func(c *Config) { c.TensorCoresPerSubCore = 3 }},
		// A memory geometry that used to divide by zero inside New.
		{"zero L2 banks", "L2Banks", func(c *Config) { c.Mem.L2Banks = 0 }},
		// Occupancy limits no CTA fits under, and a clock no time converts
		// at: each used to pass here and fail Run as a deadlock.
		{"zero warps per SM", "MaxWarpsPerSM", func(c *Config) { c.MaxWarpsPerSM = 0 }},
		{"zero CTAs per SM", "MaxCTAsPerSM", func(c *Config) { c.MaxCTAsPerSM = 0 }},
		{"negative shared memory", "SharedPerSM", func(c *Config) { c.SharedPerSM = -1 }},
		{"zero clock", "ClockMHz", func(c *Config) { c.ClockMHz = 0 }},
	} {
		cfg := TitanV()
		c.mod(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: New returned %v, want an error naming %s", c.name, err, c.field)
		}
	}
}

// A launch whose CTA cannot fit an empty SM never dispatches; Run names
// the limit it exceeds before simulating instead of reporting a deadlock.
func TestRunRejectsCTAThatCannotFit(t *testing.T) {
	for _, c := range []struct {
		name, field string
		spec        LaunchSpec
	}{
		{"65-warp block", "MaxWarpsPerSM", LaunchSpec{Kernel: vecAddKernel(),
			Grid: ptx.D1(1), Block: ptx.D1(65 * 32), Args: []uint64{0, 0, 0}, Global: ptx.NewFlatMemory(64)}},
		{"shared beyond the SM", "SharedPerSM", LaunchSpec{Kernel: stagedKernel(),
			Grid: ptx.D1(1), Block: ptx.D1(256), Args: []uint64{0, 0}, Global: ptx.NewFlatMemory(64)}},
	} {
		cfg := TitanV()
		cfg.NumSMs = 1
		cfg.SharedPerSM = 512 // below stagedKernel's 1 KiB
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(c.spec); err == nil || !strings.Contains(err.Error(), c.field) || strings.Contains(err.Error(), "deadlock") {
			t.Errorf("%s: Run returned %v, want an error naming %s", c.name, err, c.field)
		}
	}
}
