package gpu

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ptx"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// Value-free timing at the simulator level (DESIGN.md): fault parity, and
// the random-kernel equivalence FuzzTimingOnlyMatchesFull drives.

// runLaunch simulates the launch on a private copy of global and returns
// its outcome and final memory.
func runLaunch(t testing.TB, spec LaunchSpec, global []byte) (st *Stats, mem []byte, err error) {
	t.Helper()
	cfg := TitanV()
	cfg.NumSMs = 2
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &ptx.FlatMemory{Data: append([]byte(nil), global...)}
	spec.Global = m
	st, err = sim.Run(spec)
	return st, m.Data, err
}

// runModes simulates the launch twice — once in full, once TimingOnly —
// and returns both outcomes and final memories.
func runModes(t testing.TB, spec LaunchSpec, global []byte) (st [2]*Stats, errs [2]error, mem [2][]byte) {
	t.Helper()
	for mode := range st {
		spec.TimingOnly = mode == 1
		st[mode], mem[mode], errs[mode] = runLaunch(t, spec, global)
	}
	return st, errs, mem
}

// A faulting kernel faults identically: a TimingOnly launch returns the
// error a full launch returns, for every fault the executor or the
// watchdog raises.
func TestTimingOnlyFaultParity(t *testing.T) {
	frag := func(b *ptx.Builder, base, stride ptx.Operand) {
		b.WmmaLoad(wmma.Volta, wmma.M16N16K16, wmma.MatrixA, tensor.RowMajor, wmma.F16, base, stride)
	}
	build := func(name string, body func(b *ptx.Builder)) *ptx.Kernel {
		b := ptx.NewBuilder(name)
		body(b)
		b.Exit()
		return b.MustBuild()
	}
	cases := []struct {
		name      string
		kernel    *ptx.Kernel
		block     int // threads per CTA; 0 = 64
		maxCycles uint64
		want      string
	}{
		{name: "shared-out-of-range", want: "outside the 256-byte window", kernel: build("oob", func(b *ptx.Builder) {
			smem := b.Shared(256)
			a, v := b.Reg(), b.Reg()
			b.MulWide(a, ptx.SR(ptx.SRegTidX), ptx.Imm(16)) // lanes 16.. leave the window
			b.Add(ptx.U64, a, ptx.R(a), ptx.Imm(smem))
			b.Ld(ptx.Shared, 32, []ptx.Reg{v}, ptx.R(a))
		})},
		// A fragment's last element straddling the window's end, on the
		// decode-time shape path (full unguarded warps) and on the per-lane
		// loop (a 24-lane second warp; a guard predicate).
		{name: "wmma-shared-out-of-range", want: "outside the 512-byte window", kernel: build("fragoob", func(b *ptx.Builder) {
			frag(b, ptx.Imm(b.Shared(512)+1), ptx.Imm(16))
		})},
		{name: "wmma-shared-out-of-range-partial-warp", want: "outside the 512-byte window", block: 56, kernel: build("fragoob_partial", func(b *ptx.Builder) {
			// Only the partial warp faults: the full one loads a tile that fits.
			p, base := b.Reg(), b.Reg()
			smem := b.Shared(512)
			b.Setp(ptx.U32, ptx.CmpLT, p, ptx.SR(ptx.SRegTidX), ptx.Imm(32))
			b.Selp(ptx.U64, base, ptx.Imm(smem), ptx.Imm(smem+1), ptx.R(p))
			frag(b, ptx.R(base), ptx.Imm(16))
		})},
		{name: "wmma-shared-out-of-range-predicated", want: "outside the 512-byte window", kernel: build("fragoob_pred", func(b *ptx.Builder) {
			p := b.Reg()
			b.Setp(ptx.U32, ptx.CmpLT, p, ptx.SR(ptx.SRegLaneID), ptx.Imm(32))
			b.At(p, false)
			frag(b, ptx.Imm(b.Shared(512)+1), ptx.Imm(16))
		})},
		{name: "divergent-branch", want: "divergent branch", kernel: build("diverge", func(b *ptx.Builder) {
			p := b.Reg()
			b.Setp(ptx.U32, ptx.CmpLT, p, ptx.SR(ptx.SRegLaneID), ptx.Imm(7))
			b.BraIf(p, false, "out")
			b.Label("out")
		})},
		{name: "wmma-base-not-uniform", want: "not warp-uniform", kernel: build("base", func(b *ptx.Builder) {
			base := b.Reg()
			b.MulWide(base, ptx.SR(ptx.SRegLaneID), ptx.Imm(2))
			frag(b, ptx.R(base), ptx.Imm(16))
		})},
		{name: "wmma-stride-not-uniform", want: "not warp-uniform", kernel: build("stride", func(b *ptx.Builder) {
			frag(b, ptx.Imm(0), ptx.SR(ptx.SRegLaneID))
		})},
		{name: "wmma-config-unsupported", want: "volta C/D must be f16 or f32", kernel: func() *ptx.Kernel {
			// Builder refuses such a config, so the instruction is patched
			// into a hand-assembled copy, which every warp decodes itself.
			k := *mmaLoopKernel(1)
			k.Name = "badcfg"
			k.Instrs = append([]ptx.Instr(nil), k.Instrs...)
			for i := range k.Instrs {
				if k.Instrs[i].Op == ptx.OpWmmaMMA {
					k.Instrs[i].WConfig.DType = wmma.S32
				}
			}
			return &ptx.Kernel{Name: k.Name, Params: k.Params, ParamRegs: k.ParamRegs, Instrs: k.Instrs,
				Labels: k.Labels, NumRegs: k.NumRegs, SharedBytes: k.SharedBytes}
		}()},
		{name: "hang-reaped-by-max-cycles", want: ErrCycleBudget.Error(), maxCycles: 5000, kernel: spinKernel()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := LaunchSpec{Kernel: c.kernel, Grid: ptx.D1(2), Block: ptx.D1(cmp.Or(c.block, 64)),
				Args: make([]uint64, len(c.kernel.Params)), MaxCycles: c.maxCycles}
			_, errs, _ := runModes(t, spec, make([]byte, 8192))
			for mode, err := range errs {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("mode %d: error = %v, want one containing %q", mode, err, c.want)
				}
			}
			if errs[0].Error() != errs[1].Error() {
				t.Errorf("errors differ\nfull:        %v\ntiming-only: %v", errs[0], errs[1])
			}
			if c.maxCycles > 0 && !errors.Is(errs[1], ErrCycleBudget) {
				t.Errorf("TimingOnly hang: %v does not wrap ErrCycleBudget", errs[1])
			}
		})
	}
}

// randomKernel generates a small kernel from rng: straight-line code and
// counted loops over integer address arithmetic (control plane), fp32 and
// f16x2 arithmetic on loaded values (data plane), global and shared loads
// and stores at masked — always in-range — addresses, barriers, a wmma
// tile, interpreted ops, and, when edges is set, edges from loaded values
// into addresses, guards and divisors that make the kernel non-separable.
// Args: in, out — two 4 KiB regions. It lives in _test.go for the
// equivalence harnesses to share (ROADMAP item 4(d)).
func randomKernel(rng *rand.Rand, nOps int, edges bool) *ptx.Kernel {
	b := ptx.NewBuilder(fmt.Sprintf("random_%d", rng.Int63()))
	in, out := b.Param("in", ptx.U64), b.Param("out", ptx.U64)
	smem := b.Shared(4096)
	ints := []ptx.Reg{b.Reg(), b.Reg(), b.Reg()} // u32, a function of thread position only — until an edge
	b.Mov(ptx.U32, ints[0], ptx.SR(ptx.SRegTidX))
	b.Mov(ptx.U32, ints[1], ptx.SR(ptx.SRegLaneID))
	b.Mad(ptx.U32, ints[2], ptx.SR(ptx.SRegCtaIDX), ptx.Imm(64), ptx.R(ints[0]))
	pick := func(rs []ptx.Reg) ptx.Reg { return rs[rng.Intn(len(rs))] }
	// addr returns base + (index mod slots)·width: always inside a 4 KiB region.
	addr := func(base ptx.Operand, width int) ptx.Reg {
		idx, a := b.Reg(), b.Reg()
		b.And(ptx.U32, idx, ptx.R(pick(ints)), ptx.Imm(uint64(4096/width-1)))
		b.MulWide(a, ptx.R(idx), ptx.Imm(uint64(width)))
		b.Add(ptx.U64, a, ptx.R(a), base)
		return a
	}
	vals := []ptx.Reg{b.Reg()} // 32-bit data
	b.Ld(ptx.Global, 32, vals[:1], ptx.R(addr(ptx.R(in), 4)))
	// dst is a fresh register or, a third of the time, an existing one
	// overwritten (register reuse is what the slice's kills are for).
	dst := func(rs *[]ptx.Reg) ptx.Reg {
		if rng.Intn(3) == 0 {
			return pick(*rs)
		}
		*rs = append(*rs, b.Reg())
		return (*rs)[len(*rs)-1]
	}
	// maybeGuard predicates the next instruction on thread position a
	// quarter of the time: a guarded redefinition leaves the old value in
	// the disabled lanes, so it must not kill it in the slices.
	maybeGuard := func() {
		if rng.Intn(4) == 0 {
			p := b.Reg()
			b.Setp(ptx.U32, ptx.CmpLT, p, ptx.R(ints[1]), ptx.Imm(uint64(rng.Intn(33))))
			b.At(p, rng.Intn(2) == 0)
		}
	}
	loopEnd, loops := -1, 0
	var loopVar ptx.Reg
	for op := 0; op < nOps; op++ {
		if loopEnd < 0 && rng.Intn(8) == 0 {
			loopVar, loopEnd = b.Reg(), op+1+rng.Intn(6)
			b.Mov(ptx.U32, loopVar, ptx.Imm(0))
			b.Label(fmt.Sprintf("top%d", loops))
		}
		switch k := rng.Intn(13); {
		case k == 0:
			x, y := pick(ints), pick(ints)
			maybeGuard()
			switch d := dst(&ints); rng.Intn(4) {
			case 0:
				b.Add(ptx.U32, d, ptx.R(x), ptx.R(y))
			case 1:
				b.Mad(ptx.U32, d, ptx.R(x), ptx.Imm(uint64(rng.Intn(9))), ptx.R(y))
			case 2:
				b.Shl(ptx.U32, d, ptx.R(x), ptx.Imm(uint64(rng.Intn(4))))
			default:
				b.Xor(ptx.U32, d, ptx.R(x), ptx.R(y))
			}
		case k == 1:
			b.Ld(ptx.Global, 32, []ptx.Reg{dst(&vals)}, ptx.R(addr(ptx.R(in), 4)))
		case k == 2:
			b.Ld(ptx.Global, 128, []ptx.Reg{dst(&vals), dst(&vals), dst(&vals), dst(&vals)}, ptx.R(addr(ptx.R(in), 16)))
		case k == 3:
			b.St(ptx.Shared, 32, ptx.R(addr(ptx.Imm(smem), 4)), []ptx.Operand{ptx.R(pick(vals))})
		case k == 4:
			b.Ld(ptx.Shared, 64, []ptx.Reg{dst(&vals), dst(&vals)}, ptx.R(addr(ptx.Imm(smem), 8)))
		case k == 5:
			b.St(ptx.Global, 32, ptx.R(addr(ptx.R(out), 4)), []ptx.Operand{ptx.R(pick(vals))})
		case k == 6: // a store under a thread-position guard
			p := b.Reg()
			b.Setp(ptx.U32, ptx.CmpLT, p, ptx.R(ints[1]), ptx.Imm(uint64(rng.Intn(33))))
			b.At(p, rng.Intn(2) == 0).St(ptx.Global, 32, ptx.R(addr(ptx.R(out), 4)), []ptx.Operand{ptx.R(pick(vals))})
		case k == 7:
			x, y, z := pick(vals), pick(vals), pick(vals)
			maybeGuard()
			switch d := dst(&vals); rng.Intn(5) {
			case 0:
				b.Mad(ptx.F32, d, ptx.R(x), ptx.R(y), ptx.R(z))
			case 1:
				b.Mad(ptx.F16X2, d, ptx.R(x), ptx.R(y), ptx.R(z))
			case 2:
				b.Mul(ptx.F32, d, ptx.R(x), ptx.R(y))
			case 3:
				b.Cvt(ptx.F32, ptx.F16, d, ptx.R(x))
			default:
				b.Add(ptx.F16X2, d, ptx.R(x), ptx.R(y)) // interpreted
			}
		case k == 8:
			b.Bar()
		case k == 9:
			b.Clock(dst(&vals))
		case k == 10: // one tensor-core tile through global and shared memory
			cfg := mixedCfg()
			fa := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, ptx.R(in), ptx.Imm(16))
			fb := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, ptx.Imm(smem), ptx.Imm(16))
			fc := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, tensor.RowMajor, cfg.CType, ptx.Imm(smem+1024), ptx.Imm(16))
			b.WmmaStore(cfg.Arch, cfg.Shape, tensor.RowMajor, wmma.F32, ptx.R(out), b.WmmaMMA(cfg, fa, fb, fc), ptx.Imm(16))
		case !edges:
		case k == 11: // a loaded value becomes an index, or a divisor
			if d := dst(&ints); rng.Intn(2) == 0 {
				b.And(ptx.U32, d, ptx.R(pick(vals)), ptx.Imm(0xffff))
			} else {
				b.Or(ptx.U32, d, ptx.R(pick(vals)), ptx.Imm(1))
				b.Rem(ptx.U32, d, ptx.R(pick(ints)), ptx.R(d))
			}
		default: // a loaded value becomes a guard
			p := b.Reg()
			b.Setp(ptx.F32, ptx.CmpGT, p, ptx.R(pick(vals)), ptx.Imm(0))
			b.At(p, false).St(ptx.Global, 32, ptx.R(addr(ptx.R(out), 4)), []ptx.Operand{ptx.R(pick(vals))})
		}
		if op == loopEnd || loopEnd >= 0 && op == nOps-1 {
			p := b.Reg()
			b.Add(ptx.U32, loopVar, ptx.R(loopVar), ptx.Imm(1))
			b.Setp(ptx.U32, ptx.CmpLT, p, ptx.R(loopVar), ptx.Imm(uint64(2+rng.Intn(3))))
			b.BraIf(p, false, fmt.Sprintf("top%d", loops))
			loopEnd, loops = -1, loops+1
		}
	}
	b.Exit()
	return b.MustBuild()
}

// checkTimingOnlyMatchesFull is the equivalence the fuzzer holds: equal
// outcome always; and where the slice found a data→control edge the bit
// must be inert, so the final memories are equal too.
func checkTimingOnlyMatchesFull(t testing.TB, seed int64, nOps, threads int, edges bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := randomKernel(rng, nOps, edges)
	global := make([]byte, 8192)
	rng.Read(global)
	// MaxCycles: a skipped loop counter would spin; reap it as a mismatch.
	spec := LaunchSpec{Kernel: k, Grid: ptx.D1(3), Block: ptx.D1(threads), Args: []uint64{0, 4096}, MaxCycles: 1 << 22}
	st, errs, mem := runModes(t, spec, global)
	if (errs[0] == nil) != (errs[1] == nil) || errs[0] != nil && errs[0].Error() != errs[1].Error() {
		t.Fatalf("seed %d: errors differ\nfull:        %v\ntiming-only: %v", seed, errs[0], errs[1])
	}
	if !reflect.DeepEqual(st[0], st[1]) {
		t.Fatalf("seed %d (separable=%v): stats differ\nfull:        %+v\ntiming-only: %+v", seed, k.TimingSeparable(), st[0], st[1])
	}
	if !k.TimingSeparable() && string(mem[0]) != string(mem[1]) {
		t.Fatalf("seed %d: a non-separable kernel's TimingOnly run left different memory", seed)
	}
	if !edges && !k.TimingSeparable() {
		t.Fatalf("seed %d: a kernel without data→control edges was classified non-separable", seed)
	}
}

func TestTimingOnlyRandomKernels(t *testing.T) {
	n := int64(150)
	if testing.Short() {
		n = 30
	}
	for seed := int64(0); seed < n; seed++ {
		checkTimingOnlyMatchesFull(t, seed, 10+int(seed%40), []int{64, 48, 32}[seed%3], seed%2 == 1)
	}
}

// FuzzTimingOnlyMatchesFull fuzzes the generator's seed, the kernel
// length, the block size (partial warps take the per-lane twins) and
// whether data→control edges are allowed.
func FuzzTimingOnlyMatchesFull(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(64), false)
	f.Add(int64(2), uint8(40), uint8(48), true)
	f.Add(int64(3), uint8(60), uint8(33), true)
	f.Fuzz(func(t *testing.T, seed int64, nOps, threads uint8, edges bool) {
		checkTimingOnlyMatchesFull(t, seed, int(nOps)%64+1, int(threads)%96+1, edges)
	})
}

// clearSkipClasses zeroes the skip class of every instruction of k's
// decoded program, so that a full-value launch of k computes every value,
// dead ones included. ptx keeps the class unexported, so that nothing but
// its decoder sets it and nothing outside clears it; the oracle reaches it
// through reflection, on a kernel no other launch uses. (A full-value
// launch reads no other class.)
func clearSkipClasses(t testing.TB, k *ptx.Kernel) {
	t.Helper()
	prog := k.Program()
	for i := range prog {
		f := reflect.ValueOf(&prog[i]).Elem().FieldByName("skip")
		if f.Kind() != reflect.Uint8 {
			t.Fatalf("ptx.DInstr has no uint8 field skip (%v): the dead-skip oracle lost its seam", f.Kind())
		}
		*(*uint8)(unsafe.Pointer(f.UnsafeAddr())) = 0
	}
}

// checkDeadSkipMatchesFull builds seed's random kernel twice and launches
// both in full, one as decoded and one with its skip classes cleared: the
// values dead instructions would compute are ones no store or branch can
// see, so errors, Stats and final memory must all be equal.
func checkDeadSkipMatchesFull(t testing.TB, seed int64, nOps, threads int, edges bool) {
	t.Helper()
	build := func() *ptx.Kernel { return randomKernel(rand.New(rand.NewSource(seed)), nOps, edges) }
	k, kept := build(), build()
	clearSkipClasses(t, kept)
	global := make([]byte, 8192)
	rand.New(rand.NewSource(^seed)).Read(global)
	spec := LaunchSpec{Kernel: k, Grid: ptx.D1(3), Block: ptx.D1(threads), Args: []uint64{0, 4096}, MaxCycles: 1 << 22}
	st, mem, err := runLaunch(t, spec, global)
	spec.Kernel = kept
	wantSt, wantMem, wantErr := runLaunch(t, spec, global)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("seed %d: errors differ\nskipping dead: %v\ncomputing all: %v", seed, err, wantErr)
	}
	if !reflect.DeepEqual(st, wantSt) {
		t.Fatalf("seed %d: stats differ\nskipping dead: %+v\ncomputing all: %+v", seed, st, wantSt)
	}
	if string(mem) != string(wantMem) {
		t.Fatalf("seed %d: skipping dead instructions changed the final memory", seed)
	}
}

// FuzzDeadSkipMatchesFull fuzzes the same generator parameters as
// FuzzTimingOnlyMatchesFull against the dead-value skip of full launches.
func FuzzDeadSkipMatchesFull(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(64), false)
	f.Add(int64(2), uint8(40), uint8(48), true)
	f.Add(int64(3), uint8(60), uint8(33), true)
	f.Add(int64(4), uint8(63), uint8(95), false)
	f.Add(int64(-181), uint8(15), uint8(85), false) // a guarded redefinition of a stored value
	f.Fuzz(func(t *testing.T, seed int64, nOps, threads uint8, edges bool) {
		checkDeadSkipMatchesFull(t, seed, int(nOps)%64+1, int(threads)%96+1, edges)
	})
}
