package ptx

import (
	"bytes"
	"testing"
)

// opsCoverageKernel builds a kernel exercising every ALU opcode/type pair
// with a specialized decoded executor (plus a few that fall back to the
// generic path), storing every intermediate to global memory so the two
// execution modes can be compared byte for byte. guard "p" or "!p" puts
// every straight-line instruction (stores included) under @p / @!p with
// p = tid even, so the executors' masked-lane loops run too; "" leaves
// them unguarded.
func opsCoverageKernel(t *testing.T, guard string) *Kernel {
	t.Helper()
	b := NewBuilder("ops_coverage")
	out := b.Param("out", U64)
	gp, gtmp := b.Reg(), b.Reg()
	b.Mov(U32, gtmp, SR(SRegTidX))
	b.And(U32, gtmp, R(gtmp), Imm(1))
	b.Setp(U32, CmpEQ, gp, R(gtmp), Imm(0))
	guardFrom := len(b.k.Instrs)
	slot := 0
	store := func(r Reg) {
		addr := b.Reg()
		tid := b.Reg()
		b.Mov(U32, tid, SR(SRegTidX))
		// Each lane writes its own 4-byte slot: out + (slot*32 + tid)*4.
		b.Mad(U32, addr, R(tid), Imm(4), Imm(uint64(slot*32*4)))
		addr64 := b.Reg()
		b.Cvt(U64, U32, addr64, R(addr))
		b.Add(U64, addr64, R(addr64), R(out))
		b.St(Global, 32, R(addr64), []Operand{R(r)})
		slot++
	}

	tid := b.Reg()
	b.Mov(U32, tid, SR(SRegTidX))

	// Integer arithmetic across types.
	r := b.Reg()
	b.Add(U32, r, R(tid), Imm(13))
	store(r)
	b.Sub(S32, r, R(tid), Imm(29))
	store(r)
	b.Mul(U32, r, R(tid), Imm(2654435761))
	store(r)
	b.Mul(S32, r, R(tid), ImmS(-7))
	store(r)
	b.Mad(U32, r, R(tid), Imm(17), Imm(5))
	store(r)
	b.Mad(S32, r, R(tid), ImmS(-3), ImmS(100))
	store(r)
	b.MulWide(r, R(tid), Imm(0x10001))
	store(r)
	b.Min(U32, r, R(tid), Imm(7))
	store(r)
	b.Max(S32, r, R(tid), Imm(11))
	store(r)
	b.Div(U32, r, R(tid), Imm(3))
	store(r)
	b.Rem(S32, r, R(tid), Imm(5))
	store(r)

	// Bitwise and shifts.
	b.And(U32, r, R(tid), Imm(0x55))
	store(r)
	b.Or(U32, r, R(tid), Imm(0xa0))
	store(r)
	b.Xor(U32, r, R(tid), Imm(0xff))
	store(r)
	b.Shl(U32, r, R(tid), Imm(3))
	store(r)
	b.Shr(U32, r, R(tid), Imm(1))
	store(r)
	neg := b.Reg()
	b.Mul(S32, neg, R(tid), ImmS(-1024))
	b.Shr(S32, r, R(neg), Imm(4)) // arithmetic shift keeps the sign
	store(r)

	// Floats: f32 arithmetic, fused mad, conversions.
	f, g := b.Reg(), b.Reg()
	b.Cvt(F32, U32, f, R(tid))
	b.Cvt(F32, S32, g, R(neg))
	b.Add(F32, r, R(f), R(g))
	store(r)
	b.Sub(F32, r, R(f), R(g))
	store(r)
	b.Mul(F32, r, R(f), R(g))
	store(r)
	b.Mad(F32, r, R(f), R(g), R(f))
	store(r)
	b.Div(F32, r, R(g), R(f))
	store(r)
	h := b.Reg()
	b.Cvt(F16, F32, h, R(f))
	store(h)
	b.Cvt(F32, F16, r, R(h))
	store(r)
	b.Cvt(U32, F32, r, R(f))
	store(r)

	// Packed-half mad (the HGEMM inner loop).
	h2 := b.Reg()
	dup := b.Reg()
	b.Shl(U32, dup, R(h), Imm(16))
	b.Or(U32, h2, R(h), R(dup))
	b.Mad(F16X2, r, R(h2), R(h2), R(h2))
	store(r)

	// Predicates: setp across types, selp, predicated execution, and a
	// predicated branch (exercises the pre-resolved branch target).
	p := b.Reg()
	b.Setp(U32, CmpLT, p, R(tid), Imm(16))
	store(p)
	b.Setp(S32, CmpGE, p, R(neg), ImmS(-8192))
	store(p)
	b.Setp(F32, CmpGT, p, R(f), Imm(uint64(0x41000000))) // 8.0f
	store(p)
	b.Selp(U32, r, Imm(111), Imm(222), R(p))
	store(r)
	b.Setp(U32, CmpEQ, p, R(tid), Imm(0))
	b.At(p, false).Mov(U32, r, Imm(777))
	b.At(p, true).Mov(U32, r, Imm(888))
	store(r)

	// The loop below stays unguarded: its branch must be warp-uniform.
	if guard != "" {
		for i := guardFrom; i < len(b.k.Instrs); i++ {
			if in := &b.k.Instrs[i]; in.Pred == nil {
				in.Pred, in.PNeg = &gp, guard == "!p"
			}
		}
	}

	// Loop with a predicated backward branch.
	i, acc, q := b.Reg(), b.Reg(), b.Reg()
	b.Mov(U32, i, Imm(0))
	b.Mov(U32, acc, Imm(0))
	b.Label("top")
	b.Add(U32, acc, R(acc), R(tid))
	b.Add(U32, i, R(i), Imm(1))
	b.Setp(U32, CmpLT, q, R(i), Imm(5))
	b.BraIf(q, false, "top")
	store(acc)

	b.Exit()
	return b.MustBuild()
}

// The decoded table-driven dispatch must produce bit-identical results to
// the per-lane interpreted path for every operation — on full warps
// (64-thread blocks) and on a block of one full plus one half warp, with
// every instruction unguarded, under @p and under @!p.
func TestDecodedMatchesInterpreted(t *testing.T) {
	run := func(interpret bool, guard string, threads int) []byte {
		k := opsCoverageKernel(t, guard)
		if interpret {
			k = InterpretedALU(k)
		}
		mem := NewFlatMemory(64 << 10)
		if err := RunGrid(k, mem, D1(2), D1(threads), []uint64{0}); err != nil {
			t.Fatal(err)
		}
		return mem.Data
	}
	for _, threads := range []int{64, 48} {
		images := map[string][]byte{}
		for _, guard := range []string{"", "p", "!p"} {
			decoded := run(false, guard, threads)
			interpreted := run(true, guard, threads)
			for i := range decoded {
				if decoded[i] != interpreted[i] {
					t.Fatalf("%d threads, guard %q: first divergence at byte %d (slot %d): decoded %d, interpreted %d",
						threads, guard, i, i/(32*4), decoded[i], interpreted[i])
				}
			}
			images[guard] = decoded
		}
		// The guards must have switched lanes off, and different ones.
		if bytes.Equal(images["p"], images[""]) || bytes.Equal(images["!p"], images[""]) || bytes.Equal(images["p"], images["!p"]) {
			t.Errorf("%d threads: guarded variants did not change the output image", threads)
		}
	}
}

// guard must equal the per-lane interpreted guard (laneEnabled) for any
// predicate vector, either polarity and any populated-lane set.
func TestGuardMaskMatchesLaneEnabled(t *testing.T) {
	k := &Kernel{Name: "guard", NumRegs: 2}
	p := Reg{ID: 1}
	for _, threads := range []int{32, 17, 1} {
		env := &Env{GridDim: D1(1), BlockDim: D1(threads)}
		w, err := NewWarp(k, env, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for lane := 0; lane < 32; lane++ {
			w.setReg(lane, p, uint64(lane*7%3)) // zero in every third lane
		}
		for _, in := range []*Instr{{Op: OpMov}, {Op: OpMov, Pred: &p}, {Op: OpMov, Pred: &p, PNeg: true}} {
			var d DInstr
			decodeInstr(k, in, &d, nil)
			var want uint32
			for lane := 0; lane < 32; lane++ {
				if w.laneEnabled(lane, in) {
					want |= 1 << lane
				}
			}
			if got := d.guard(w); got != want {
				t.Errorf("%d threads, pred %v neg %v: guard %#x, laneEnabled says %#x", threads, in.Pred != nil, in.PNeg, got, want)
			}
		}
	}
}

// The decoded program must be cached per kernel, not per warp: every warp
// of a kernel shares the same backing array.
func TestDecodedProgramCachedPerKernel(t *testing.T) {
	b := NewBuilder("cache")
	out := b.Param("out", U64)
	r := b.Reg()
	b.Mov(U32, r, Imm(1))
	b.St(Global, 32, R(out), []Operand{R(r)})
	b.Exit()
	k := b.MustBuild()
	env := &Env{Global: NewFlatMemory(64), GridDim: D1(1), BlockDim: D1(64), Clock: func() uint64 { return 0 }}
	w0, err := NewWarp(k, env, 0, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewWarp(k, env, 1, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	if &w0.prog[0] != &w1.prog[0] {
		t.Error("warps of one kernel should share the decoded program")
	}
	if &w0.prog[0] != &k.Program()[0] {
		t.Error("warp program should alias the kernel's cache")
	}
}

// Branch targets are pre-resolved at decode; a hand-assembled kernel with
// a bad label must still error cleanly at execution.
func TestDecodedBranchTargets(t *testing.T) {
	b := NewBuilder("bra")
	out := b.Param("out", U64)
	r := b.Reg()
	b.Mov(U32, r, Imm(7))
	b.Bra("skip")
	b.Mov(U32, r, Imm(9)) // skipped
	b.Label("skip")
	b.St(Global, 32, R(out), []Operand{R(r)})
	b.Exit()
	k := b.MustBuild()
	mem := NewFlatMemory(256)
	if err := RunGrid(k, mem, D1(1), D1(32), []uint64{0}); err != nil {
		t.Fatal(err)
	}
	if got := u32At(mem, 0); got != 7 {
		t.Errorf("branch skipped wrong path: got %d, want 7", got)
	}

	// Hand-assembled kernel branching to a label that does not exist.
	bad := &Kernel{
		Name:    "badbra",
		NumRegs: 1,
		Labels:  map[string]int{},
		Instrs:  []Instr{{Op: OpBra, Target: "nowhere"}},
	}
	env := &Env{Global: NewFlatMemory(64), GridDim: D1(1), BlockDim: D1(32), Clock: func() uint64 { return 0 }}
	w, err := NewWarp(bad, env, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(); err == nil {
		t.Error("branch to unknown label should error")
	}
}
