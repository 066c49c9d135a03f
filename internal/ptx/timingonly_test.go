package ptx

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/tensor"
	"repro/internal/wmma"
)

// Value-free timing (DESIGN.md): the classification net for the decode
// slice, and the step-level equivalence of a TimingOnly warp with a full
// one — same Result, same PC, same error, no value touched.

// sliceCase builds a kernel around one data→control (or not) edge. Every
// body gets out (a u64 parameter), tid-derived addr = out + 4·tid and a
// register v loaded from [addr].
type sliceCase struct {
	name      string
	body      func(b *Builder, out, addr, v Reg)
	separable bool
}

func buildSliceCase(c sliceCase) *Kernel {
	b := NewBuilder("slice_" + c.name)
	out := b.Param("out", U64)
	tid, addr, v := b.Reg(), b.Reg(), b.Reg()
	b.Mov(U32, tid, SR(SRegTidX))
	b.MulWide(addr, R(tid), Imm(4))
	b.Add(U64, addr, R(addr), R(out))
	b.Ld(Global, 32, []Reg{v}, R(addr))
	c.body(b, out, addr, v)
	b.Exit()
	return b.MustBuild()
}

var sliceCases = []sliceCase{
	{name: "data-only", separable: true, body: func(b *Builder, out, addr, v Reg) {
		f := b.Reg()
		b.Mad(F32, f, R(v), R(v), R(v))
		b.St(Global, 32, R(addr), []Operand{R(f)})
	}},
	{name: "branch-on-loaded-predicate", body: func(b *Builder, out, addr, v Reg) {
		p := b.Reg()
		b.Setp(U32, CmpEQ, p, R(v), Imm(0))
		b.BraIf(p, false, "done")
		b.St(Global, 32, R(addr), []Operand{R(v)})
		b.Label("done")
	}},
	{name: "guard-on-loaded-predicate", body: func(b *Builder, out, addr, v Reg) {
		p := b.Reg()
		b.Setp(F32, CmpGT, p, R(v), Imm(0))
		b.At(p, false).St(Global, 32, R(addr), []Operand{R(v)})
	}},
	{name: "loaded-index", body: func(b *Builder, out, addr, v Reg) {
		idx, w := b.Reg(), b.Reg()
		b.MulWide(idx, R(v), Imm(4))
		b.Add(U64, idx, R(idx), R(out))
		b.Ld(Global, 32, []Reg{w}, R(idx))
		b.St(Global, 32, R(addr), []Operand{R(w)})
	}},
	{name: "address-from-fma-of-loaded", body: func(b *Builder, out, addr, v Reg) {
		f, i, a := b.Reg(), b.Reg(), b.Reg()
		b.Mad(F32, f, R(v), R(v), R(v))
		b.Cvt(U32, F32, i, R(f))
		b.MulWide(a, R(i), Imm(4))
		b.Add(U64, a, R(a), R(out))
		b.St(Global, 32, R(a), []Operand{R(v)})
	}},
	{name: "loaded-wmma-stride", body: func(b *Builder, out, addr, v Reg) {
		b.WmmaLoad(wmma.Volta, wmma.M16N16K16, wmma.MatrixA, tensor.RowMajor, wmma.F16, R(out), R(v))
	}},
	{name: "integer-div-of-loaded", body: func(b *Builder, out, addr, v Reg) {
		q := b.Reg()
		b.Div(U32, q, Imm(100), R(v)) // faults when the loaded value is zero
		b.St(Global, 32, R(addr), []Operand{R(q)})
	}},
	{name: "float-div-of-loaded", separable: true, body: func(b *Builder, out, addr, v Reg) {
		q := b.Reg()
		b.Div(F32, q, R(v), R(v)) // executes (aluGeneric) but cannot fault
		b.St(Global, 32, R(addr), []Operand{R(q)})
	}},
	// HGEMMSimt's shape: one scratch register computes an address, then is
	// overwritten (unguarded) with packed loaded data. The second life is
	// data-plane; a slice blind to program order would call the kernel
	// non-separable.
	{name: "scratch-register-reused", separable: true, body: func(b *Builder, out, addr, v Reg) {
		tmp, a2 := b.Reg(), b.Reg()
		b.Mov(U32, tmp, SR(SRegTidX))
		b.MulWide(a2, R(tmp), Imm(8))
		b.Add(U64, a2, R(a2), R(out))
		b.Shl(U32, tmp, R(v), Imm(16))
		b.Or(U32, tmp, R(tmp), R(v))
		b.St(Global, 32, R(a2), []Operand{R(tmp)})
	}},
	// ... but a guarded overwrite leaves the old value in the disabled
	// lanes, so here the loaded value does reach the address.
	{name: "guarded-write-does-not-kill", body: func(b *Builder, out, addr, v Reg) {
		p, a2 := b.Reg(), b.Reg()
		b.Setp(U32, CmpLT, p, SR(SRegTidX), Imm(16))
		b.Mov(U64, a2, R(v))
		b.At(p, false).Mov(U64, a2, R(addr))
		b.St(Global, 32, R(a2), []Operand{R(v)})
	}},
	// A loop-carried edge: the value loaded in one trip is the next
	// trip's address, which only the fixed point over the back edge sees.
	{name: "loop-carried-address", body: func(b *Builder, out, addr, v Reg) {
		i, p, cur := b.Reg(), b.Reg(), b.Reg()
		b.Mov(U64, cur, R(addr))
		b.Mov(U32, i, Imm(0))
		b.Label("top")
		b.Ld(Global, 32, []Reg{v}, R(cur))
		b.Add(U32, i, R(i), Imm(1))
		b.Setp(U32, CmpLT, p, R(i), Imm(4))
		b.Add(U64, cur, R(out), R(v))
		b.BraIf(p, false, "top")
	}},
}

func TestSliceSeparability(t *testing.T) {
	for _, c := range sliceCases {
		t.Run(c.name, func(t *testing.T) {
			k := buildSliceCase(c)
			if got := k.TimingSeparable(); got != c.separable {
				t.Fatalf("TimingSeparable() = %v, want %v", got, c.separable)
			}
			for i := range k.prog {
				if !c.separable && k.prog[i].skip&skipTiming != 0 {
					t.Errorf("instruction %d of a non-separable kernel is dataOnly", i)
				}
			}
		})
	}
}

// dataOnlyOps returns the opcodes of the kernel's dataOnly instructions
// and of the rest, as sets.
func dataOnlyOps(k *Kernel) (skipped, kept map[Opcode]bool) {
	skipped, kept = map[Opcode]bool{}, map[Opcode]bool{}
	for i := range k.prog {
		if k.prog[i].skip&skipTiming != 0 {
			skipped[k.prog[i].In.Op] = true
		} else {
			kept[k.prog[i].In.Op] = true
		}
	}
	return skipped, kept
}

// Fallible and interpreted executors always execute: integer div/rem and
// everything aluGeneric serves (min/max, f16 arithmetic, float div) are
// never dataOnly, even with nothing but data-plane operands, while the
// specialised executors around them are.
func TestFallibleExecutorsNeverDataOnly(t *testing.T) {
	b := NewBuilder("fallible")
	out := b.Param("out", U64)
	tid, addr, v, r := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Mov(U32, tid, SR(SRegTidX))
	b.MulWide(addr, R(tid), Imm(4))
	b.Add(U64, addr, R(addr), R(out))
	b.Ld(Global, 32, []Reg{v}, R(addr))
	b.Div(U32, r, R(tid), Imm(3))
	b.Rem(S32, r, R(tid), Imm(5))
	b.Min(U32, r, R(v), Imm(7))
	b.Max(F32, r, R(v), R(v))
	b.Add(F16X2, r, R(v), R(v))
	b.Div(F32, r, R(v), R(v))
	b.Xor(U32, r, R(v), R(r))
	b.St(Global, 32, R(addr), []Operand{R(r)})
	b.Exit()
	k := b.MustBuild()
	if !k.TimingSeparable() {
		t.Fatal("kernel is not separable")
	}
	skipped, kept := dataOnlyOps(k)
	for _, op := range []Opcode{OpDiv, OpRem, OpMin, OpMax, OpAdd} {
		if skipped[op] {
			t.Errorf("opcode %d decoded dataOnly; its executor can fail or is interpreted", op)
		}
	}
	for _, op := range []Opcode{OpXor, OpLd, OpSt} {
		if !skipped[op] {
			t.Errorf("opcode %d not dataOnly", op)
		}
	}
	if !kept[OpMulWide] {
		t.Error("the address arithmetic decoded dataOnly")
	}

	// On the InterpretedALU copy every ALU instruction is aluGeneric: none
	// may be skipped, whatever plane it writes.
	for _, c := range sliceCases {
		skipped, _ := dataOnlyOps(InterpretedALU(buildSliceCase(c)))
		for op := range skipped {
			if cl := classOf(op); cl == DClassALU || cl == DClassSFU {
				t.Errorf("%s: interpreted opcode %d decoded dataOnly", c.name, op)
			}
		}
	}
}

// A register that is both stored as data and used as an address is
// control-plane: its definition executes, the kernel stays separable.
func TestDataAndAddressRegisterIsControl(t *testing.T) {
	b := NewBuilder("both_planes")
	out := b.Param("out", U64)
	off, a := b.Reg(), b.Reg()
	b.MulWide(off, SR(SRegTidX), Imm(4)) // stored below and part of the address
	b.Add(U64, a, R(off), R(out))
	b.St(Global, 32, R(a), []Operand{R(off)})
	dead := b.Reg()
	b.Add(U64, dead, R(off), R(off)) // only ever stored
	b.St(Global, 32, R(a), []Operand{R(dead)})
	b.Exit()
	k := b.MustBuild()
	if !k.TimingSeparable() {
		t.Fatal("kernel is not separable")
	}
	for i := range k.prog {
		d := &k.prog[i]
		switch {
		case d.In.Op == OpMulWide && d.skip&skipTiming != 0:
			t.Error("the definition of a register used as an address is dataOnly")
		case d.In.Op == OpAdd && d.dstID == int32(dead.ID) && d.skip&skipTiming == 0:
			t.Error("the definition of a store-only register is not dataOnly")
		}
	}
}

// mixedKernel runs every instruction class the skip touches: a counted
// loop over global→shared staging, fp32 and f16x2 math on the staged
// values, an interpreted op, a guarded store, wmma fragments through
// global and shared memory, and %clock.
func mixedKernel() *Kernel {
	b := NewBuilder("timingonly_mixed")
	pin := b.Param("in", U64)
	pout := b.Param("out", U64)
	smem := b.Shared(4096)
	tid, g, s, o := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Mov(U32, tid, SR(SRegTidX))
	b.MulWide(g, R(tid), Imm(16))
	b.Add(U64, s, R(g), Imm(smem))
	b.Add(U64, o, R(g), R(pout))
	b.Add(U64, g, R(g), R(pin))
	odd, p := b.Reg(), b.Reg()
	b.And(U32, odd, R(tid), Imm(1))
	b.Setp(U32, CmpEQ, p, R(odd), Imm(0))
	acc, h2 := b.Regs(4), b.Reg()
	cp := b.Regs(4)
	i, pr, c0 := b.Reg(), b.Reg(), b.Reg()
	b.Clock(c0)
	b.Mov(U32, i, Imm(0))
	b.Label("top")
	b.Ld(Global, 128, cp, R(g))
	b.St(Shared, 128, R(s), []Operand{R(cp[0]), R(cp[1]), R(cp[2]), R(cp[3])})
	b.Bar()
	b.Ld(Shared, 128, cp, R(s))
	for j, r := range acc {
		b.Mad(F32, r, R(cp[j]), R(cp[(j+1)%4]), R(r))
	}
	b.Mad(F16X2, h2, R(cp[0]), R(cp[1]), R(h2))
	b.Add(F16X2, h2, R(h2), R(cp[2])) // interpreted: executes in both modes
	b.Bar()
	b.Add(U64, g, R(g), Imm(64))
	b.Add(U32, i, R(i), Imm(1))
	b.Setp(U32, CmpLT, pr, R(i), Imm(3))
	b.BraIf(pr, false, "top")
	b.At(p, false).St(Global, 128, R(o), []Operand{R(acc[0]), R(acc[1]), R(acc[2]), R(h2)})
	b.At(p, true).St(Global, 32, R(o), []Operand{R(c0)})

	cfg := wmma.Config{Arch: wmma.Volta, Shape: wmma.M16N16K16,
		ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
		AType: wmma.F16, CType: wmma.F32, DType: wmma.F32}
	fa := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, R(pin), Imm(16))
	fb := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, Imm(smem), Imm(16))
	fc := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, tensor.RowMajor, cfg.CType, Imm(smem+1024), Imm(16))
	fd := b.WmmaMMA(cfg, fa, fb, fc)
	b.WmmaStore(cfg.Arch, cfg.Shape, tensor.RowMajor, wmma.F32, R(pout), fd, Imm(16))
	b.WmmaStore(cfg.Arch, cfg.Shape, tensor.RowMajor, wmma.F32, Imm(smem+2048), fd, Imm(16))
	b.Exit()
	return b.MustBuild()
}

// ctaRun is one CTA of a kernel with its private memories.
type ctaRun struct {
	env   *Env
	warps []*Warp
}

func newCTARun(t testing.TB, k *Kernel, block Dim3, timingOnly bool, global []byte, args ...uint64) *ctaRun {
	t.Helper()
	r := &ctaRun{env: &Env{
		Global: &FlatMemory{Data: append([]byte(nil), global...)},
		Shared: make([]byte, k.SharedBytes), Clock: func() uint64 { return 7 },
		GridDim: D1(1), BlockDim: block, TimingOnly: timingOnly,
	}}
	for i := 0; i < (block.Count()+31)/32; i++ {
		w, err := NewWarp(k, r.env, i, args)
		if err != nil {
			t.Fatal(err)
		}
		r.warps = append(r.warps, w)
	}
	return r
}

// stepTogether drives a full and a TimingOnly copy of the CTA in
// lock-step, round-robin with barrier release, requiring the same Result,
// PC and error at every step. It returns the first error (both sides').
func stepTogether(t *testing.T, full, timing *ctaRun) error {
	t.Helper()
	for steps := 0; steps < 1<<20; {
		progress := false
		for wi, fw := range full.warps {
			tw := timing.warps[wi]
			if fw.Exited != tw.Exited || fw.AtBarrier != tw.AtBarrier || fw.PC != tw.PC {
				t.Fatalf("warp %d diverged: full pc=%d exited=%v bar=%v, timing-only pc=%d exited=%v bar=%v",
					wi, fw.PC, fw.Exited, fw.AtBarrier, tw.PC, tw.Exited, tw.AtBarrier)
			}
			if fw.Exited || fw.AtBarrier {
				continue
			}
			var fr, tr Result
			ferr, terr := fw.StepInto(&fr), tw.StepInto(&tr)
			if (ferr == nil) != (terr == nil) || ferr != nil && ferr.Error() != terr.Error() {
				t.Fatalf("warp %d pc %d: full error %v, timing-only error %v", wi, fw.PC, ferr, terr)
			}
			if ferr != nil {
				return ferr
			}
			if fr.Instr != tr.Instr || fr.Barrier != tr.Barrier || fr.Exited != tr.Exited ||
				len(fr.Batch) != len(tr.Batch) ||
				!reflect.DeepEqual(fr.LaneAccesses(), tr.LaneAccesses()) {
				t.Fatalf("warp %d at %v: results differ\nfull:        %+v\ntiming-only: %+v", wi, fr.Instr.Op, fr, tr)
			}
			progress = true
			steps++
		}
		if !progress {
			live := false
			for wi, fw := range full.warps {
				live = live || !fw.Exited
				fw.AtBarrier, timing.warps[wi].AtBarrier = false, false
			}
			if !live {
				return nil
			}
		}
	}
	t.Fatal("kernel did not finish")
	return nil
}

func seededBytes(n int, seed int64) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

func TestTimingOnlyStepsMatchFull(t *testing.T) {
	k := mixedKernel()
	if !k.TimingSeparable() {
		t.Fatal("mixed kernel is not separable")
	}
	seed := seededBytes(16<<10, 21)
	for _, block := range []Dim3{D1(64), D1(40)} { // 40: a partial warp takes the per-lane wmma path
		full := newCTARun(t, k, block, false, seed, 0, 8<<10)
		timing := newCTARun(t, k, block, true, seed, 0, 8<<10)
		// TimingOnly warps run the packed program, on register files that
		// hold only the registers it touches.
		if k.timingRegs >= k.NumRegs {
			t.Fatalf("packed program keeps all %d registers", k.NumRegs)
		}
		for wi, w := range timing.warps {
			if len(w.regs) != 32*k.timingRegs || len(full.warps[wi].regs) != 32*k.NumRegs {
				t.Fatalf("warp %d: register files of %d (TimingOnly) and %d words, want %d and %d",
					wi, len(w.regs), len(full.warps[wi].regs), 32*k.timingRegs, 32*k.NumRegs)
			}
		}
		if err := stepTogether(t, full, timing); err != nil {
			t.Fatal(err)
		}
		// Every store is skipped, the partial warp's per-lane wmma fallback
		// included.
		if got := timing.env.Global.(*FlatMemory).Data; string(got) != string(seed) {
			t.Errorf("block %d: the TimingOnly run wrote global memory", block.X)
		}
		if string(full.env.Global.(*FlatMemory).Data) == string(seed) {
			t.Errorf("block %d: the full run stored nothing; the test kernel is broken", block.X)
		}
	}
}

// A non-separable kernel ignores the bit: the TimingOnly copy computes
// every value a store can see, so its memory ends up equal too.
func TestTimingOnlyInertWhenNotSeparable(t *testing.T) {
	run := func(t *testing.T, k *Kernel) {
		seed := seededBytes(4<<10, 22)
		for i := 0; i < len(seed); i += 4 { // loaded indices stay in range
			seed[i+1], seed[i+2], seed[i+3] = seed[i+1]&1, 0, 0
		}
		full := newCTARun(t, k, D1(64), false, seed, 0)
		timing := newCTARun(t, k, D1(64), true, seed, 0)
		if err := stepTogether(t, full, timing); err != nil {
			t.Fatal(err)
		}
		if string(full.env.Global.(*FlatMemory).Data) != string(timing.env.Global.(*FlatMemory).Data) {
			t.Error("final memory differs")
		}
	}
	t.Run("loaded-index", func(t *testing.T) {
		for _, c := range sliceCases {
			if c.name == "loaded-index" {
				run(t, buildSliceCase(c))
			}
		}
	})
}

// Fault parity at the executor: an access that leaves the shared window is
// the same error whether or not the data would have moved, and, for
// fragments, whichever path executes it — the decode-time shape (a full,
// unguarded warp), or the per-lane loop a partial warp, a guard predicate
// or the PerLaneFragments copy selects.
func TestSharedBoundsFaultMatches(t *testing.T) {
	// Generic addressing sends anything past the window to global memory,
	// so a fragment leaves the window only by straddling its end: the
	// tile's last element starts inside and ends outside. A(15,15) lives in
	// lanes 23 and 31, so a 24-lane warp still reaches it; C(15,15) lives
	// in lane 31 alone, so the partial-warp store overlaps its rows (ld 0)
	// and every row's last column straddles.
	// guard, called ahead of the instruction under test, predicates it.
	load := func(b *Builder, smem uint64, guard func()) {
		guard()
		b.WmmaLoad(wmma.Volta, wmma.M16N16K16, wmma.MatrixA, tensor.RowMajor, wmma.F16, Imm(smem+2048-512+1), Imm(16))
	}
	store := func(ld, tileBytes uint64) func(*Builder, uint64, func()) {
		return func(b *Builder, smem uint64, guard func()) {
			frag := b.WmmaLoad(wmma.Volta, wmma.M16N16K16, wmma.MatrixC, tensor.RowMajor, wmma.F32, Imm(0), Imm(16))
			guard()
			b.WmmaStore(wmma.Volta, wmma.M16N16K16, tensor.RowMajor, wmma.F32, Imm(smem+2048-tileBytes+2), frag, Imm(ld))
		}
	}
	cases := []struct {
		name      string
		lanes     int
		predicate bool
		body      func(b *Builder, smem uint64, guard func())
	}{
		{"ld.shared", 32, false, func(b *Builder, smem uint64, _ func()) {
			a := b.Reg()
			b.MulWide(a, SR(SRegTidX), Imm(16))
			b.Add(U64, a, R(a), Imm(smem+2048-256)) // lanes 16.. run off the end
			b.Ld(Shared, 128, b.Regs(4), R(a))
		}},
		{"st.shared", 32, false, func(b *Builder, smem uint64, _ func()) {
			a, v := b.Reg(), b.Reg()
			b.MulWide(a, SR(SRegTidX), Imm(4))
			b.Add(U64, a, R(a), Imm(smem+2044)) // only lane 0 fits
			b.St(Shared, 32, R(a), []Operand{R(v)})
		}},
		{"wmma.load", 32, false, load},
		{"wmma.load/partial-warp", 24, false, load},
		{"wmma.load/predicated", 32, true, load},
		{"wmma.store", 32, false, store(16, 1024)},
		{"wmma.store/partial-warp", 24, false, store(0, 64)},
		{"wmma.store/predicated", 32, true, store(16, 1024)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder("oob")
			c.body(b, b.Shared(2048), func() {
				if c.predicate {
					p := b.Reg()
					b.Setp(U32, CmpLT, p, SR(SRegLaneID), Imm(32))
					b.At(p, false)
				}
			})
			b.Exit()
			k := b.MustBuild()
			if !k.TimingSeparable() {
				t.Fatal("kernel is not separable")
			}
			seed := make([]byte, 4096)
			fault := func(k *Kernel) string {
				err := stepTogether(t, newCTARun(t, k, D1(c.lanes), false, seed), newCTARun(t, k, D1(c.lanes), true, seed))
				if err == nil || !strings.Contains(err.Error(), "outside the 2048-byte window") {
					t.Fatalf("error = %v, want a shared-window fault", err)
				}
				return err.Error()
			}
			batched := fault(k)
			if perLane := fault(PerLaneFragments(k)); perLane != batched {
				t.Errorf("the paths report different faults\nbatched:  %s\nper-lane: %s", batched, perLane)
			}
		})
	}
}

// The step path allocates nothing, skipped or not: a warp running the GEMM
// inner loops (ld.shared, mad, wmma.load, wmma.mma) or the fragment movers
// on their decode-time shapes reuses its scratch, full and TimingOnly.
func TestTimingOnlyStepAllocatesNothing(t *testing.T) {
	for _, c := range slices.Concat(gemmStepCases(), fragStepCases()) {
		for _, timingOnly := range []bool{false, true} {
			k, start, end := buildStepKernel(c)
			r := newCTARun(t, k, D1(32), timingOnly, make([]byte, 4096), 0)
			w := r.warps[0]
			var res Result
			step := func() {
				if w.PC == end {
					w.PC = start
				}
				if err := w.StepInto(&res); err != nil {
					t.Fatal(err)
				}
			}
			for w.PC < start || w.PC != end { // the prologue and one pass warm the scratch
				step()
			}
			if n := testing.AllocsPerRun(200, step); n != 0 {
				t.Errorf("%s: %.1f allocations per step (TimingOnly %v), want 0", c.name, n, timingOnly)
			}
		}
	}
}
