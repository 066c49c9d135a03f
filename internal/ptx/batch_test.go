package ptx

import (
	"reflect"
	"testing"

	"repro/internal/tensor"
	"repro/internal/wmma"
)

// The batched access path must be invisible at the architectural level:
// for any kernel, the registers written, the bytes moved, and the
// lane-major expansion of the access groups the timing model sees must
// match the per-lane reference stepper (refStep) exactly. The torture
// kernel below exercises the shapes the batched fast paths dispatch on —
// unit-stride, broadcast, scattered, mirrored — plus their edges:
// predicated (partially-active) lanes, 16-bit accesses, misaligned and
// sector-spanning addresses, and a partially populated warp.

// buildBatchTorture builds the load/store torture kernel. Every lane
// computes its id-derived addresses; the guard predicate (laneid&1 == 0)
// covers the predicated variants.
func buildBatchTorture() *Kernel {
	b := NewBuilder("batch_torture")
	pbase := b.Param("base", U64)
	smem := b.Shared(4096)

	lane := b.Reg()
	b.Mov(U32, lane, SR(SRegLaneID))
	odd := b.Reg()
	b.And(U32, odd, R(lane), Imm(1))
	p := b.Reg()
	b.Setp(U32, CmpEQ, p, R(odd), Imm(0))
	tmp64 := b.Reg()

	// Unit-stride 32-bit global load: base + 4·lane.
	a32 := b.Reg()
	b.MulWide(a32, R(lane), Imm(4))
	b.Add(U64, a32, R(a32), R(pbase))
	v32 := b.Reg()
	b.Ld(Global, 32, []Reg{v32}, R(a32))

	// Misaligned, sector-spanning 64-bit load: base + 30 + 8·lane.
	a64 := b.Reg()
	b.MulWide(a64, R(lane), Imm(8))
	b.Add(U64, a64, R(a64), R(pbase))
	b.Add(U64, a64, R(a64), Imm(30))
	v64 := b.Regs(2)
	b.Ld(Global, 64, v64, R(a64))

	// Predicated 16-bit load at a misaligned address: base + 2·lane + 1.
	a16 := b.Reg()
	b.MulWide(a16, R(lane), Imm(2))
	b.Add(U64, a16, R(a16), R(pbase))
	b.Add(U64, a16, R(a16), Imm(1))
	v16 := b.Reg()
	b.At(p, false).Ld(Global, 16, []Reg{v16}, R(a16))

	// Scattered 32-bit global load: base + 4096 + 128·lane (one sector per
	// lane) — in descending order so the sorted fast path cannot claim it:
	// addr = base + 4096 + 128·(31-lane).
	inv := b.Reg()
	b.Sub(U32, inv, Imm(31), R(lane))
	asc := b.Reg()
	b.MulWide(asc, R(inv), Imm(128))
	b.Add(U64, asc, R(asc), R(pbase))
	b.Add(U64, asc, R(asc), Imm(4096))
	vsc := b.Reg()
	b.Ld(Global, 32, []Reg{vsc}, R(asc))

	// Shared staging: unit-stride 128-bit store, mirrored 32-bit load,
	// broadcast 32-bit load.
	sdst := b.Reg()
	b.MulWide(sdst, R(lane), Imm(16))
	b.Add(U64, sdst, R(sdst), Imm(smem))
	b.St(Shared, 128, R(sdst), []Operand{R(v32), R(vsc), R(v64[0]), R(v64[1])})

	// Mirrored halves: lanes 0-15 and 16-31 read the same 16 words.
	half := b.Reg()
	b.And(U32, half, R(lane), Imm(15))
	smir := b.Reg()
	b.MulWide(smir, R(half), Imm(4))
	b.Add(U64, smir, R(smir), Imm(smem))
	vmir := b.Reg()
	b.Ld(Shared, 32, []Reg{vmir}, R(smir))

	// Broadcast: every lane reads word 5.
	sbc := b.Reg()
	b.Mov(U64, sbc, Imm(smem))
	b.Add(U64, sbc, R(sbc), Imm(20))
	vbc := b.Reg()
	b.Ld(Shared, 32, []Reg{vbc}, R(sbc))

	// Predicated 16-bit shared store (misaligned, odd offset).
	s16 := b.Reg()
	b.MulWide(s16, R(lane), Imm(2))
	b.Add(U64, s16, R(s16), Imm(smem))
	b.Add(U64, s16, R(s16), Imm(2049))
	b.At(p, true).St(Shared, 16, R(s16), []Operand{R(vmir)})

	// Uniform global store: all lanes write the same address (last active
	// lane must win).
	ug := b.Reg()
	b.Mov(U64, ug, R(pbase))
	b.Add(U64, ug, R(ug), Imm(8192))
	b.St(Global, 32, R(ug), []Operand{R(lane)})

	// Strided (non-unit, sorted) 128-bit store: base + 12288 + 32·lane.
	b.MulWide(tmp64, R(lane), Imm(32))
	b.Add(U64, tmp64, R(tmp64), R(pbase))
	b.Add(U64, tmp64, R(tmp64), Imm(12288))
	b.St(Global, 128, R(tmp64), []Operand{R(vmir), R(vbc), R(v32), R(lane)})

	// Every loaded value reaches a store, so every load moves its bytes on
	// both paths (a load whose value nothing stores is skipped on the
	// batched one): the predicated 16-bit one, under its own guard, at
	// base + 16384 + 2·lane.
	b.MulWide(tmp64, R(lane), Imm(2))
	b.Add(U64, tmp64, R(tmp64), R(pbase))
	b.Add(U64, tmp64, R(tmp64), Imm(16384))
	b.At(p, false).St(Global, 16, R(tmp64), []Operand{R(v16)})
	b.Exit()
	return b.MustBuild()
}

// batchRun executes the torture kernel on one CTA, through the per-lane
// reference stepper when ref is set, and records everything the two
// paths must agree on.
type batchRun struct {
	global   []byte
	shared   []byte
	regs     []uint64
	accesses [][]Access
}

func runBatchTorture(t *testing.T, ref bool, block Dim3) batchRun {
	t.Helper()
	k := buildBatchTorture()
	mem := NewFlatMemory(1 << 16)
	for i := range mem.Data {
		mem.Data[i] = byte(i*7 + 3)
	}
	env := &Env{
		Global:   mem,
		Shared:   make([]byte, k.SharedBytes),
		GridDim:  D1(1),
		BlockDim: block,
		Clock:    func() uint64 { return 0 },
	}
	run := batchRun{}
	nWarps := (block.Count() + 31) / 32
	for id := 0; id < nWarps; id++ {
		newWarp, step := NewWarp, func(w *Warp) ([]Access, error) {
			res, err := w.Step()
			return res.LaneAccesses(), err
		}
		if ref {
			newWarp, step = newRefWarp, (*Warp).refStep
		}
		w, err := newWarp(k, env, id, []uint64{0})
		if err != nil {
			t.Fatal(err)
		}
		for !w.Exited {
			acc, err := step(w)
			if err != nil {
				t.Fatal(err)
			}
			if len(acc) > 0 {
				run.accesses = append(run.accesses, acc)
			}
		}
		run.regs = append(run.regs, append([]uint64(nil), w.regs...)...)
	}
	run.global = mem.Data
	run.shared = env.Shared
	return run
}

func TestBatchedLoadStoreMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block Dim3
	}{
		{"full_warp", D1(32)},
		{"partial_warp", D1(40)}, // second warp has 8 active lanes
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := runBatchTorture(t, true, tc.block)
			batched := runBatchTorture(t, false, tc.block)
			if !reflect.DeepEqual(ref.accesses, batched.accesses) {
				for i := range ref.accesses {
					if i < len(batched.accesses) && !reflect.DeepEqual(ref.accesses[i], batched.accesses[i]) {
						t.Fatalf("access stream %d differs:\nreference: %v\nbatched:   %v",
							i, ref.accesses[i], batched.accesses[i])
					}
				}
				t.Fatalf("access stream lengths differ: reference %d, batched %d",
					len(ref.accesses), len(batched.accesses))
			}
			if !reflect.DeepEqual(ref.global, batched.global) {
				t.Error("global memory differs between the reference and batched paths")
			}
			if !reflect.DeepEqual(ref.shared, batched.shared) {
				t.Error("shared memory differs between the reference and batched paths")
			}
			if !reflect.DeepEqual(ref.regs, batched.regs) {
				t.Error("register state differs between the reference and batched paths")
			}
		})
	}
}

// The batched ld/st path must produce exactly one group per space with
// the lane addresses a per-lane access reports — and resolve generic
// space statically at decode time.
func TestBatchedLdStGroupShapes(t *testing.T) {
	b := NewBuilder("group_shapes")
	pbase := b.Param("base", U64)
	lane := b.Reg()
	b.Mov(U32, lane, SR(SRegLaneID))
	addr := b.Reg()
	b.MulWide(addr, R(lane), Imm(4))
	b.Add(U64, addr, R(addr), R(pbase))
	v := b.Reg()
	b.Ld(Global, 32, []Reg{v}, R(addr))
	b.Exit()
	k := b.MustBuild()

	env := &Env{Global: NewFlatMemory(4096), GridDim: D1(1), BlockDim: D1(32), Clock: func() uint64 { return 0 }}
	w, err := NewWarp(k, env, 0, []uint64{64})
	if err != nil {
		t.Fatal(err)
	}
	w.Step() // mov
	w.Step() // mulwide
	w.Step() // add
	res, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batch) != 1 {
		t.Fatalf("unit-stride load produced %d groups, want 1", len(res.Batch))
	}
	g := res.Batch[0]
	if g.Mask != ^uint32(0) || g.Bits != 32 || g.Space != Global || g.Store {
		t.Fatalf("group = mask %#x bits %d space %v store %v", g.Mask, g.Bits, g.Space, g.Store)
	}
	for i := 0; i < 32; i++ {
		if g.Addr[i] != uint64(64+4*i) {
			t.Fatalf("lane %d addr %d, want %d", i, g.Addr[i], 64+4*i)
		}
	}
}

// wmmaLoadStoreKernel is a full wmma round trip (load A/B/C, mma, store
// D) with mixed row/col-major fragment mappings.
func wmmaLoadStoreKernel() *Kernel {
	cfg := wmma.Config{
		Arch: wmma.Volta, Shape: wmma.M16N16K16,
		ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
		AType: wmma.F16, CType: wmma.F32, DType: wmma.F32,
	}
	b := NewBuilder("wmma_batch")
	pa := b.Param("a", U64)
	pd := b.Param("d", U64)
	fa := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, R(pa), Imm(16))
	fb := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, R(pa), Imm(16))
	fc := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, tensor.RowMajor, cfg.CType, R(pd), Imm(16))
	fd := b.WmmaMMA(cfg, fa, fb, fc)
	b.WmmaStore(cfg.Arch, cfg.Shape, tensor.RowMajor, cfg.DType, R(pd), fd, Imm(16))
	b.Exit()
	return b.MustBuild()
}

// fragLaneList is the per-lane access list of a wmma.load/store at base
// with an immediate leading dimension, built lane by lane from the
// fragment plan (fragLaneAddrs) and the piece cut (fragPieces): lane 0's
// pieces in order, then lane 1's, and so on. space resolves a lane from
// its first element's address.
func fragLaneList(t *testing.T, d *DInstr, base uint64, space func(first uint64) Space) []Access {
	t.Helper()
	m := d.In.WMap
	p := planOf(m)
	if p == nil {
		t.Fatalf("%v: mapping has no fragment plan", d.In.Op)
	}
	ld := int(d.srcs[1].imm)
	addrs := make([]uint64, p.slots)
	var out []Access
	for lane := 0; lane < 32; lane++ {
		fragLaneAddrs(addrs, p, lane, ld, base, uint64(d.membytes))
		sp := space(addrs[0])
		for _, pc := range fragPieces(nil, addrs, m.Elem.Bits()) {
			out = append(out, Access{Lane: lane, Addr: pc.addr, Bits: int(pc.bits), Space: sp,
				Store: d.Class == DClassWmmaStore})
		}
	}
	return out
}

func allGlobal(uint64) Space { return Global }

// A wmma load or store must batch into slot-aligned groups whose
// lane-major expansion is the per-lane piece list, lane by lane.
func TestBatchedWmmaMatchesLegacy(t *testing.T) {
	k := wmmaLoadStoreKernel()
	mem := NewFlatMemory(4096)
	for i := range mem.Data {
		mem.Data[i] = byte(i * 5)
	}
	env := &Env{Global: mem, GridDim: D1(1), BlockDim: D1(32), Clock: func() uint64 { return 0 }}
	w, err := NewWarp(k, env, 0, []uint64{0, 2048})
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	for !w.Exited {
		d := w.PeekD()
		if d == nil || d.Class != DClassWmmaLoad && d.Class != DClassWmmaStore {
			if _, err := w.Step(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		base := w.reg(0, d.In.Src[0].Reg)
		res, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		moves++
		want := fragLaneList(t, d, base, allGlobal)
		if got := res.LaneAccesses(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v at %d: access stream of %d entries, want %d:\ngot:  %v\nwant: %v",
				d.In.Op, w.PC-1, len(got), len(want), got, want)
		}
	}
	if moves != 4 {
		t.Fatalf("stepped %d wmma.load/store, want 4", moves)
	}
}
