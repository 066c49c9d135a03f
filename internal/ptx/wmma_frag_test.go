package ptx

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/tensor"
	"repro/internal/wmma"
)

// The batched fragment path must be invisible at the architectural
// level: for any wmma kernel, the registers written, the bytes moved
// (global and shared), and the per-lane access stream the timing model
// sees must match the per-element path (PerLaneFragments) exactly. The round-trip
// kernels below cover every mapping family the batched plans encode —
// both Volta layouts and precisions, the three Turing shapes, the
// integer datapath — plus the edges that force the per-element
// fallback: shared-window straddling runs and partially populated
// warps.

// wmmaRoundTrip builds a load A/B/C → mma → store D kernel for cfg,
// with C loaded from cAddr and D stored to dAddr (operands so tests can
// point them at shared memory or window-straddling bases).
func wmmaRoundTrip(t *testing.T, cfg wmma.Config, cLayout tensor.Layout, shared int) *Kernel {
	t.Helper()
	b := NewBuilder("wmma_frag")
	pa := b.Param("a", U64)
	pc := b.Param("c", U64)
	pd := b.Param("d", U64)
	var smem uint64
	if shared > 0 {
		smem = b.Shared(shared)
	}
	if shared >= 32*4 {
		fillShared(b, smem, shared)
	}
	fa := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, R(pa), Imm(uint64(cfg.Shape.K)))
	fb := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, R(pa), Imm(uint64(cfg.Shape.K)))
	fc := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, cLayout, cfg.CType, R(pc), Imm(uint64(cfg.Shape.N)))
	fd := b.WmmaMMA(cfg, fa, fb, fc)
	b.WmmaStore(cfg.Arch, cfg.Shape, cLayout, cfg.DType, R(pd), fd, Imm(uint64(cfg.Shape.N)))
	b.Exit()
	return b.MustBuild()
}

// fillShared fills n bytes of the shared window from smem on
// deterministically: each lane stores a few id-derived words before the
// wmma ops read them back. Every value computed reaches a store, so both
// paths compute it.
func fillShared(b *Builder, smem uint64, n int) {
	lane := b.Reg()
	b.Mov(U32, lane, SR(SRegLaneID))
	v := b.Reg()
	b.Mad(U32, v, R(lane), Imm(2654435761), Imm(97))
	addr := b.Reg()
	b.MulWide(addr, R(lane), Imm(4))
	b.Add(U64, addr, R(addr), Imm(smem))
	for i := 0; i < n/(32*4); i++ {
		if i > 0 {
			b.Add(U64, addr, R(addr), Imm(128))
			b.Add(U32, v, R(v), Imm(31))
		}
		b.St(Shared, 32, R(addr), []Operand{R(v)})
	}
}

// fragTestMem is a sparse global memory with deterministic background
// content: reads of untouched bytes derive from the address (and salt),
// writes land in a map. It accepts any address, so runs that resolve just
// below the generic shared window (huge global addresses) execute on
// both paths instead of overrunning a flat buffer.
type fragTestMem struct {
	writes map[uint64]byte
	salt   byte
}

func newFragTestMem() *fragTestMem { return &fragTestMem{writes: make(map[uint64]byte)} }

func (m *fragTestMem) Read(addr uint64, buf []byte) {
	for i := range buf {
		a := addr + uint64(i)
		if v, ok := m.writes[a]; ok {
			buf[i] = v
		} else {
			buf[i] = byte(a*13+5) + m.salt
		}
	}
}

func (m *fragTestMem) Write(addr uint64, data []byte) {
	for i, b := range data {
		m.writes[addr+uint64(i)] = b
	}
}

// fragRun captures everything the two fragment paths must agree on.
type fragRun struct {
	global   map[uint64]byte
	shared   []byte
	regs     []uint64
	accesses [][]Access
}

// runFragKernel executes the kernel on every warp of one CTA, on its
// PerLaneFragments copy when legacy is set; shared, when not nil, is the
// window's initial content.
func runFragKernel(t *testing.T, k *Kernel, legacy bool, block Dim3, args []uint64, shared []byte) fragRun {
	t.Helper()
	run, err := execFragKernel(k, legacy, block, args, shared, 0)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// execFragKernel is runFragKernel returning the first error, over global
// memory whose background content salt varies.
func execFragKernel(k *Kernel, legacy bool, block Dim3, args []uint64, shared []byte, salt byte) (fragRun, error) {
	if legacy {
		k = PerLaneFragments(k)
	}
	mem := newFragTestMem()
	mem.salt = salt
	env := &Env{
		Global:   mem,
		Shared:   append(make([]byte, 0, k.SharedBytes), shared...)[:k.SharedBytes],
		GridDim:  D1(1),
		BlockDim: block,
		Clock:    func() uint64 { return 0 },
	}
	run := fragRun{}
	nWarps := (block.Count() + 31) / 32
	for id := 0; id < nWarps; id++ {
		w, err := NewWarp(k, env, id, args)
		if err != nil {
			return run, err
		}
		for !w.Exited {
			res, err := w.Step()
			if err != nil {
				return run, err
			}
			if acc := res.LaneAccesses(); len(acc) > 0 {
				run.accesses = append(run.accesses, append([]Access(nil), acc...))
			}
		}
		run.regs = append(run.regs, materializedRegs(w)...)
	}
	run.global = mem.writes
	run.shared = env.Shared
	return run, nil
}

// materializedRegs returns a copy of the warp's register file with every
// group it holds as a tile image put back into register form — the
// registers the per-lane path leaves — so equivalence tests compare every
// register whatever form the batched path keeps it in.
func materializedRegs(w *Warp) []uint64 {
	for i := range w.prog {
		for _, g := range w.prog[i].img {
			w.materialize(g)
		}
	}
	return append([]uint64(nil), w.regs...)
}

func compareFragRuns(t *testing.T, legacy, batched fragRun) {
	t.Helper()
	if !reflect.DeepEqual(legacy.accesses, batched.accesses) {
		for i := range legacy.accesses {
			if i < len(batched.accesses) && !reflect.DeepEqual(legacy.accesses[i], batched.accesses[i]) {
				t.Fatalf("access stream %d differs:\nlegacy:  %v\nbatched: %v",
					i, legacy.accesses[i], batched.accesses[i])
			}
		}
		t.Fatalf("access stream lengths differ: legacy %d, batched %d",
			len(legacy.accesses), len(batched.accesses))
	}
	if !reflect.DeepEqual(legacy.global, batched.global) {
		t.Error("global memory differs between fragment paths")
	}
	if !reflect.DeepEqual(legacy.shared, batched.shared) {
		t.Error("shared memory differs between fragment paths")
	}
	if !reflect.DeepEqual(legacy.regs, batched.regs) {
		t.Error("register state differs between fragment paths")
	}
}

func TestFragmentPathMatchesLegacy(t *testing.T) {
	volta := func(cd wmma.Precision, al, bl tensor.Layout) wmma.Config {
		return wmma.Config{Arch: wmma.Volta, Shape: wmma.M16N16K16,
			ALayout: al, BLayout: bl, AType: wmma.F16, CType: cd, DType: cd}
	}
	turing := func(sh wmma.Shape) wmma.Config {
		return wmma.Config{Arch: wmma.Turing, Shape: sh,
			ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
			AType: wmma.F16, CType: wmma.F32, DType: wmma.F32}
	}
	cases := []struct {
		name    string
		cfg     wmma.Config
		cLayout tensor.Layout
		shared  int
		block   Dim3
		args    []uint64
	}{
		{"volta_mixed_rowrow", volta(wmma.F32, tensor.RowMajor, tensor.RowMajor),
			tensor.RowMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		{"volta_mixed_rowcol", volta(wmma.F32, tensor.RowMajor, tensor.ColMajor),
			tensor.RowMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		{"volta_mixed_colcol", volta(wmma.F32, tensor.ColMajor, tensor.ColMajor),
			tensor.ColMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		{"volta_fp16acc", volta(wmma.F16, tensor.RowMajor, tensor.ColMajor),
			tensor.RowMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		{"turing_16x16x16", turing(wmma.M16N16K16),
			tensor.RowMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		{"turing_32x8x16", turing(wmma.M32N8K16),
			tensor.RowMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		{"turing_8x32x16", turing(wmma.M8N32K16),
			tensor.RowMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		{"turing_s8", wmma.Config{Arch: wmma.Turing, Shape: wmma.M16N16K16,
			ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
			AType: wmma.S8, CType: wmma.S32, DType: wmma.S32},
			tensor.RowMajor, 0, D1(32), []uint64{0, 2048, 4096}},
		// C in shared memory, D stored back to shared: the batched
		// fragment movement must unpack from and pack into the window.
		{"volta_shared_cd", volta(wmma.F32, tensor.RowMajor, tensor.ColMajor),
			tensor.RowMajor, 4096, D1(32), []uint64{0, SharedBase, SharedBase + 2048}},
		// C loads straddle the generic shared-window boundary: elements
		// below SharedBase resolve to global, the rest into the window,
		// so whole-run bulk moves must fall back per element.
		{"volta_window_straddle", volta(wmma.F32, tensor.RowMajor, tensor.ColMajor),
			tensor.RowMajor, 4096, D1(32), []uint64{0, SharedBase - 16, SharedBase + 2048}},
		// A tiny window fully contained inside one fragment run: both
		// run endpoints resolve to global, but interior elements resolve
		// into the window, so the endpoint check alone must not claim
		// the bulk path. Load side: A/B's 32-byte f16 runs over a
		// 16-byte window; store side: D's 16-byte f16 runs over a
		// 4-byte window.
		{"volta_window_contained_load", volta(wmma.F32, tensor.RowMajor, tensor.ColMajor),
			tensor.RowMajor, 16, D1(32), []uint64{SharedBase - 8, 2048, 4096}},
		{"volta_window_contained_store", volta(wmma.F16, tensor.RowMajor, tensor.ColMajor),
			tensor.RowMajor, 4, D1(32), []uint64{0, 2048, SharedBase - 8}},
		// Partially populated warps (8 and 16 active lanes in warp 1/2)
		// take the per-lane fallback on both paths.
		{"partial_warps", volta(wmma.F32, tensor.RowMajor, tensor.ColMajor),
			tensor.RowMajor, 0, D1(32 + 16), []uint64{0, 2048, 4096}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := wmmaRoundTrip(t, tc.cfg, tc.cLayout, tc.shared)
			legacy := runFragKernel(t, k, true, tc.block, tc.args, nil)
			batched := runFragKernel(t, k, false, tc.block, tc.args, nil)
			compareFragRuns(t, legacy, batched)
		})
	}
}

// TestFragmentImagesMatchLegacy covers the image path's own edges
// against the per-lane path: a CUTLASS-shaped k-loop (A and B from shared
// memory, accumulating in place, D to global) in both Volta precisions and
// a Turing float and integer configuration; a store whose C mapping is not
// the mma's D mapping (no image group), and one stored by columns after a
// load by rows; a guarded wmma.mma on image-form
// operands, which materializes them (the lanes it skips keep C's values);
// and ld 0 and ld 1 stores, whose elements alias.
func TestFragmentImagesMatchLegacy(t *testing.T) {
	volta := func(cd wmma.Precision) wmma.Config {
		return wmma.Config{Arch: wmma.Volta, Shape: wmma.M16N16K16, ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
			AType: wmma.F16, CType: cd, DType: cd}
	}
	turing := func(sh wmma.Shape, ab, cd wmma.Precision) wmma.Config {
		return wmma.Config{Arch: wmma.Turing, Shape: sh, ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
			AType: ab, CType: cd, DType: cd}
	}
	// loadAB emits the loads of A and B from shared memory at pa and pb.
	loadAB := func(b *Builder, cfg wmma.Config, pa, pb Reg) ([]Reg, []Reg) {
		sh := cfg.Shape
		return b.WmmaLoad(cfg.Arch, sh, wmma.MatrixA, cfg.ALayout, cfg.AType, R(pa), Imm(uint64(sh.K))),
			b.WmmaLoad(cfg.Arch, sh, wmma.MatrixB, cfg.BLayout, cfg.AType, R(pb), Imm(uint64(sh.K)))
	}
	const steps, panel = 3, 1024 // k steps, bytes per A or B tile in shared memory
	kloop := func(cfg wmma.Config) func(b *Builder, pc, pd Reg) {
		return func(b *Builder, pc, pd Reg) {
			sh := cfg.Shape
			smem := b.Shared(2 * steps * panel)
			fillShared(b, smem, 2*steps*panel)
			fc := b.WmmaLoad(cfg.Arch, sh, wmma.MatrixC, tensor.RowMajor, cfg.CType, R(pc), Imm(uint64(sh.N)))
			pa, pb, i, p := b.Reg(), b.Reg(), b.Reg(), b.Reg()
			b.Mov(U64, pa, Imm(smem))
			b.Mov(U64, pb, Imm(smem+steps*panel))
			b.Mov(U32, i, Imm(0))
			b.Label("k")
			fa, fb := loadAB(b, cfg, pa, pb)
			if fd := b.WmmaMMA(cfg, fa, fb, fc); &fd[0] != &fc[0] {
				t.Fatal("the k-loop's mma does not accumulate in place")
			}
			b.Add(U64, pa, R(pa), Imm(panel))
			b.Add(U64, pb, R(pb), Imm(panel))
			b.Add(U32, i, R(i), Imm(1))
			b.Setp(U32, CmpLT, p, R(i), Imm(steps))
			b.BraIf(p, false, "k")
			b.WmmaStore(cfg.Arch, sh, tensor.RowMajor, cfg.DType, R(pd), fc, Imm(uint64(sh.N)))
		}
	}
	// single is one load A/B/C → mma → store D step; guard, when set,
	// predicates the mma on lane < 20, and ld, elem and layout are D's
	// store.
	single := func(cfg wmma.Config, guard bool, ld uint64, elem wmma.Precision, layout tensor.Layout) func(b *Builder, pc, pd Reg) {
		return func(b *Builder, pc, pd Reg) {
			sh := cfg.Shape
			smem := b.Shared(2 * panel)
			fillShared(b, smem, 2*panel)
			pa, pb := b.Reg(), b.Reg()
			b.Mov(U64, pa, Imm(smem))
			b.Mov(U64, pb, Imm(smem+panel))
			fa, fb := loadAB(b, cfg, pa, pb)
			fc := b.WmmaLoad(cfg.Arch, sh, wmma.MatrixC, tensor.RowMajor, cfg.CType, R(pc), Imm(uint64(sh.N)))
			if guard {
				lane, p := b.Reg(), b.Reg()
				b.Mov(U32, lane, SR(SRegLaneID))
				b.Setp(U32, CmpLT, p, R(lane), Imm(20))
				b.At(p, false)
			}
			fd := b.WmmaMMA(cfg, fa, fb, fc)
			b.WmmaStore(cfg.Arch, sh, layout, elem, R(pd), fd, Imm(ld))
		}
	}
	cases := []struct {
		name   string
		emit   func(b *Builder, pc, pd Reg)
		images int // fragment operands that are image groups
	}{
		{"kloop_volta_mixed", kloop(volta(wmma.F32)), 8},
		{"kloop_volta_fp16", kloop(volta(wmma.F16)), 8},
		{"kloop_turing_32x8x16", kloop(turing(wmma.M32N8K16, wmma.F16, wmma.F32)), 8},
		{"kloop_turing_s8", kloop(turing(wmma.M16N16K16, wmma.S8, wmma.S32)), 8},
		// Volta's f16 and f32 accumulators map lanes differently: D is
		// stored through a mapping the mma did not write it with.
		{"store_mapping_differs", single(volta(wmma.F32), false, 16, wmma.F16, tensor.RowMajor), 4},
		// Volta's accumulator lanes do not depend on the layout: the
		// group loaded by rows is stored by columns, each through its
		// own memory lines.
		{"store_colmajor", single(volta(wmma.F32), false, 16, wmma.F32, tensor.ColMajor), 8},
		{"guarded_mma", single(volta(wmma.F32), true, 16, wmma.F32, tensor.RowMajor), 8},
		{"store_ld0_alias", single(volta(wmma.F32), false, 0, wmma.F32, tensor.RowMajor), 8},
		// ld 1 overlaps rows by all but one element: the per-lane write
		// order, not the line order, decides each address's last writer.
		{"store_ld1_alias", single(volta(wmma.F32), false, 1, wmma.F32, tensor.RowMajor), 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(tc.name)
			pc, pd := b.Param("c", U64), b.Param("d", U64)
			tc.emit(b, pc, pd)
			b.Exit()
			k := b.MustBuild()
			if got := ImageOperands(k); got != tc.images {
				t.Fatalf("%d fragment operands are image groups, want %d", got, tc.images)
			}
			args := []uint64{0, 4096}
			compareFragRuns(t, runFragKernel(t, k, true, D1(32), args, nil), runFragKernel(t, k, false, D1(32), args, nil))
		})
	}
}

// FuzzFragImagesMatchReference drives the image path against the
// per-lane reference across random mappings, layouts, precisions, strides
// and bases. It pins the decode-time machinery to per-element walks of the
// mapping — the plan's addresses to memOffsetFor; the shape's pieces,
// span, memory lines and alias flag, and the space decision, to the
// per-lane definitions; shape absence exactly where specified — and then
// runs a load → mma → store sequence around the fragment (fragSequence) on
// both paths, which must leave the same registers (materialized), memory,
// access stream and error.
func FuzzFragImagesMatchReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint64(1), int64(16), uint64(1))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), uint64(2), int64(256), uint64(4096))
	f.Add(uint8(0), uint8(0), uint8(2), uint8(0), uint8(1), uint64(3), int64(1), uint64(SharedBase))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint64(4), int64(8), uint64(SharedBase+2048))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(1), uint8(0), uint64(5), int64(-16), uint64(SharedBase-16))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), uint8(2), uint64(6), int64(3), uint64(77))
	f.Add(uint8(1), uint8(0), uint8(2), uint8(0), uint8(6), uint64(7), int64(17), uint64(SharedBase+4096-32))
	f.Add(uint8(1), uint8(3), uint8(1), uint8(1), uint8(4), uint64(8), int64(32), uint64(1<<63))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint64(9), int64(16), ^uint64(7))   // the span wraps
	f.Add(uint8(0), uint8(0), uint8(2), uint8(0), uint8(1), uint64(10), int64(0), uint64(4096)) // stores alias
	f.Fuzz(func(t *testing.T, archSel, shapeSel, opSel, layoutSel, elemSel uint8, seed uint64, stride int64, base uint64) {
		arch := wmma.Arch(archSel % 2)
		shape := []wmma.Shape{wmma.M16N16K16, wmma.M32N8K16, wmma.M8N32K16, wmma.M8N8K32}[shapeSel%4]
		op := wmma.Operand(opSel % 3)
		layout := tensor.Layout(layoutSel % 2)
		elem := []wmma.Precision{wmma.F16, wmma.F32, wmma.S8, wmma.U8, wmma.S4, wmma.U4, wmma.S32}[elemSel%7]
		m, err := wmma.Map(arch, shape, op, layout, elem)
		if err != nil {
			t.Skip() // unsupported combination: nothing to compare
		}
		p := planFragment(m)
		if p == nil || p.lines == nil {
			t.Fatalf("standard mapping %v/%v/%v produced no plan or lines", arch, shape, op)
		}

		// Addresses: the plan's factored offsets must reproduce
		// memOffsetFor for any stride, including negative and tiny ones.
		elemBytes := uint64(cuda4BitBytes(elem))
		ref := make([][]uint64, 32)
		for lane := range ref {
			ref[lane] = make([]uint64, p.slots)
			fragLaneAddrs(ref[lane], p, lane, int(stride), base, elemBytes)
			for slot, c := range m.Lanes[lane] {
				want := base + uint64(memOffsetFor(m, c, int(stride)))*elemBytes
				if ref[lane][slot] != want {
					t.Fatalf("lane %d slot %d addr %#x, want %#x (stride %d)",
						lane, slot, ref[lane][slot], want, stride)
				}
			}
		}

		// The decode-time shape, built at base 0, must be what the
		// per-execution definitions produce on the absolute addresses:
		// pieces and span, at any base; and no shape exactly when an offset
		// is untamed or lanes disagree on piece structure.
		sh := shapeFragment(p, int(stride), elemBytes, elem.Bits())
		if want := fragShapeExpected(m, int(stride)); (sh != nil) != want {
			t.Fatalf("shape present = %v, expected %v (stride %d)", sh != nil, want, stride)
		}
		if sh != nil {
			checkFragShape(t, sh, p, ref, base, elemBytes, elem.Bits())
			// The once-per-execution space decision must be every element's:
			// same space, same offset, inside the window.
			w := &Warp{Kernel: &Kernel{}, Env: &Env{Shared: make([]byte, 4096)}}
			for _, space := range []Space{Generic, Shared, Global} {
				sp, sub, ok := w.fragSpace(space, base+sh.lo, base+sh.hi)
				if !ok {
					continue
				}
				for lane := range ref {
					for _, a := range ref[lane] {
						esp, ea := w.Env.resolveSpace(space, a)
						if esp != sp || ea != a-sub || sp == Shared && w.sharedSpan(ea, elemBytes) != nil {
							t.Fatalf("%v span resolved to %v-%#x, element %#x to %v %#x", space, sp, sub, a, esp, ea)
						}
					}
				}
			}
		}

		// The sequence, on both paths.
		b := NewBuilder("fragfuzz")
		b.Shared(4096)
		x, out := b.Param("x", U64), b.Param("out", U64)
		if !fragSequence(b, m, x, Imm(uint64(stride)), out) {
			return // no wmma.mma consumes this mapping
		}
		b.Exit()
		k := b.MustBuild()
		args, shared := []uint64{base, fragOut}, seededBytes(4096, int64(seed))
		legacy, lerr := execFragKernel(k, true, D1(32), args, shared, byte(seed))
		batched, berr := execFragKernel(k, false, D1(32), args, shared, byte(seed))
		if fmt.Sprint(lerr) != fmt.Sprint(berr) {
			t.Fatalf("errors differ: legacy %v, batched %v", lerr, berr)
		}
		if lerr == nil {
			compareFragRuns(t, legacy, batched)
		}
	})
}

// checkFragShape holds a shape to the per-lane definitions on the lanes'
// absolute addresses ref: every lane's pieces are the shape's groups plus
// base, every element lies in the span, the memory lines put every tile
// element at its lanes' address exactly once, and alias says whether two
// elements share one.
func checkFragShape(t *testing.T, sh *fragShape, p *fragPlan, ref [][]uint64, base, elemBytes uint64, elemBits int) {
	t.Helper()
	for lane := range ref {
		pieces := fragPieces(nil, ref[lane], elemBits)
		if len(pieces) != len(sh.groups) {
			t.Fatalf("lane %d: %d pieces, %d groups", lane, len(pieces), len(sh.groups))
		}
		for k, pc := range pieces {
			if g := &sh.groups[k]; g.bits != pc.bits || base+g.off[lane] != pc.addr {
				t.Fatalf("lane %d piece %d = {%#x %d}, want %+v", lane, k, base+g.off[lane], g.bits, pc)
			}
		}
		for _, a := range ref[lane] {
			if a-base < sh.lo || a-base+elemBytes > sh.hi {
				t.Fatalf("lane %d element at +%#x outside the span [%#x,%#x)", lane, a-base, sh.lo, sh.hi)
			}
		}
	}
	at := make(map[int32]uint64) // image offset → byte offset, from the lines
	for i, off := range sh.lines {
		for j := int32(0); j < sh.plan.lineLen; j++ {
			e := sh.plan.lines[i] + j*sh.plan.step
			if _, dup := at[e]; dup {
				t.Fatalf("image element %d on two lines", e)
			}
			at[e] = off + uint64(j)*elemBytes
		}
	}
	offs := make(map[uint64]bool)
	for slot := range p.idx {
		for lane, e := range p.idx[slot] {
			if got, ok := at[e]; !ok || base+got != ref[lane][slot] {
				t.Fatalf("lane %d slot %d: line offset %#x (on a line: %v), address +%#x", lane, slot, got, ok, ref[lane][slot]-base)
			}
		}
	}
	for _, off := range at {
		offs[off] = true
	}
	if alias := len(offs) < len(at); alias != sh.alias {
		t.Fatalf("alias = %v, elements sharing an address: %v", sh.alias, alias)
	}
}

// fragConfig returns the wmma.mma configuration that consumes a fragment
// of mapping m: an A or B operand of its type with f32 or s32
// accumulators, or an accumulator in place under f16 or s8 operands. ok is
// false when no configuration takes the mapping.
func fragConfig(m *wmma.Mapping) (cfg wmma.Config, ok bool) {
	cfg = wmma.Config{Arch: m.Arch, Shape: m.Shape, ALayout: tensor.RowMajor, BLayout: tensor.RowMajor,
		AType: m.Elem, CType: wmma.F32, DType: wmma.F32}
	switch m.Op {
	case wmma.MatrixA:
		cfg.ALayout = m.Layout
	case wmma.MatrixB:
		cfg.BLayout = m.Layout
	default:
		cfg.AType, cfg.CType, cfg.DType = wmma.F16, m.Elem, m.Elem
		if m.Elem == wmma.S32 {
			cfg.AType = wmma.S8
		}
	}
	if cfg.AType.IsInt() && m.Op != wmma.MatrixC {
		cfg.CType, cfg.DType = wmma.S32, wmma.S32
	}
	if cfg.Validate() != nil {
		return cfg, false
	}
	for _, op := range []wmma.Operand{wmma.MatrixA, wmma.MatrixB} {
		l, e := cfg.ALayout, cfg.AType
		if op == wmma.MatrixB {
			l = cfg.BLayout
		}
		if got, err := wmma.Map(cfg.Arch, cfg.Shape, op, l, e); err != nil || op == m.Op && !reflect.DeepEqual(got.Lanes, m.Lanes) {
			return cfg, false
		}
	}
	return cfg, true
}

// fragSequence emits a load → mma → store sequence around a fragment of
// mapping m loaded from x at leading dimension ld: the other operands come
// from out at tight leading dimensions, and D goes back to x at ld (m an
// accumulator, updated in place and stored by the other layout) or to
// out. Every value reaches memory through wmma alone, so the fragment is
// an image group. It emits nothing and reports false when no wmma.mma
// consumes the mapping.
func fragSequence(b *Builder, m *wmma.Mapping, x Reg, ld Operand, out Reg) bool {
	cfg, ok := fragConfig(m)
	if !ok {
		return false
	}
	sh := cfg.Shape
	frags := map[wmma.Operand][]Reg{m.Op: b.WmmaLoad(m.Arch, sh, m.Op, m.Layout, m.Elem, R(x), ld)}
	if _, ok := frags[wmma.MatrixA]; !ok {
		frags[wmma.MatrixA] = b.WmmaLoad(cfg.Arch, sh, wmma.MatrixA, cfg.ALayout, cfg.AType, R(out), Imm(uint64(sh.K)))
	}
	if _, ok := frags[wmma.MatrixB]; !ok {
		frags[wmma.MatrixB] = b.WmmaLoad(cfg.Arch, sh, wmma.MatrixB, cfg.BLayout, cfg.AType, R(out), Imm(uint64(sh.N)))
	}
	if _, ok := frags[wmma.MatrixC]; !ok {
		frags[wmma.MatrixC] = b.WmmaLoad(cfg.Arch, sh, wmma.MatrixC, tensor.RowMajor, cfg.CType, R(out), Imm(uint64(sh.N)))
	}
	fd := b.WmmaMMA(cfg, frags[wmma.MatrixA], frags[wmma.MatrixB], frags[wmma.MatrixC])
	if m.Op == wmma.MatrixC {
		// Back through the other layout: the accumulator lanes do not
		// depend on it, the memory lines do.
		other := tensor.ColMajor
		if m.Layout == tensor.ColMajor {
			other = tensor.RowMajor
		}
		b.WmmaStore(cfg.Arch, sh, other, cfg.DType, R(x), fd, ld)
	} else {
		b.WmmaStore(cfg.Arch, sh, tensor.RowMajor, cfg.DType, R(out), fd, Imm(uint64(sh.N)))
	}
	return true
}

// fragShapeExpected says whether a mapping and leading dimension should
// get a decode-time shape, from the per-lane definitions alone: every
// offset tame and every lane cut into the same pieces.
func fragShapeExpected(m *wmma.Mapping, ld int) bool {
	elemBytes := uint64(cuda4BitBytes(m.Elem))
	var first []fragPiece
	for lane := range m.Lanes {
		var addrs []uint64
		for _, c := range m.Lanes[lane] {
			addrs = append(addrs, uint64(memOffsetFor(m, c, ld))*elemBytes)
			if addrs[len(addrs)-1] >= fragSpanLimit {
				return false
			}
		}
		pieces := fragPieces(nil, addrs, m.Elem.Bits())
		if lane == 0 {
			first = pieces
		}
		if len(pieces) != len(first) {
			return false
		}
		for k := range pieces {
			if pieces[k].bits != first[k].bits {
				return false
			}
		}
	}
	return true
}

// TestFragShapeMatchesPerLane is the decode-time shape's equivalence net:
// every mapping the repository supports, loaded (and, for accumulators,
// stored) at leading dimensions from the generators' to the absurd and at
// bases in global memory, inside the shared window and across each of its
// edges, must leave the access stream, registers, global and shared bytes
// the per-lane path leaves — and have a shape exactly where specified.
func TestFragShapeMatchesPerLane(t *testing.T) {
	const window = 32 << 10
	sharedInit := seededBytes(window, 23)
	spaces := &Warp{Env: &Env{Shared: sharedInit}} // fragSpace reads the window's size alone
	bases := []struct {
		name    string
		addr    uint64
		covered bool // a tile-sized span from here lies in one state space
	}{
		{"global", 4096, true},
		{"inside", SharedBase + 256, true},
		{"below-window", SharedBase - 16, false},
		{"window-end", SharedBase + window - 16, false},
		{"address-wrap", ^uint64(15), false},
	}
	shapes := []wmma.Shape{wmma.M16N16K16, wmma.M32N8K16, wmma.M8N32K16, wmma.M8N8K32}
	elems := []wmma.Precision{wmma.F16, wmma.F32, wmma.S8, wmma.U8, wmma.S4, wmma.U4, wmma.S32}
	mappings := 0
	for _, arch := range []wmma.Arch{wmma.Volta, wmma.Turing} {
		for _, shape := range shapes {
			for _, op := range []wmma.Operand{wmma.MatrixA, wmma.MatrixB, wmma.MatrixC} {
				for _, layout := range []tensor.Layout{tensor.RowMajor, tensor.ColMajor} {
					for _, elem := range elems {
						m, err := wmma.Map(arch, shape, op, layout, elem)
						if err != nil {
							continue
						}
						mappings++
						rows, cols := shape.Dims(op)
						tight := cols
						if layout == tensor.ColMajor {
							tight = rows
						}
						for _, ld := range []int{tight, tight + 8, 128, 0, 1, 1 << 31} {
							production := ld == tight || ld == tight+8 || ld == 128
							for _, store := range []bool{false, true} {
								if store && op != wmma.MatrixC {
									continue
								}
								b := NewBuilder("fragshape")
								b.Shared(window)
								dst := b.Param("dst", U64)
								if store {
									frag := b.WmmaLoad(arch, shape, op, layout, elem, Imm(64), Imm(uint64(tight)))
									b.WmmaStore(arch, shape, layout, elem, R(dst), frag, Imm(uint64(ld)))
								} else if out := b.Param("out", U64); !fragSequence(b, m, dst, Imm(uint64(ld)), out) {
									storeFragment(b, b.WmmaLoad(arch, shape, op, layout, elem, R(dst), Imm(uint64(ld))), out)
								}
								b.Exit()
								k := b.MustBuild()
								d := &k.prog[0] // the load under test
								if store {
									d = &k.prog[1]
								}
								if want := fragShapeExpected(m, ld); (d.wshape != nil) != want || production && !want {
									t.Fatalf("%v %v %v %v %v ld %d: shape present = %v, expected %v (production ld: %v)",
										arch, shape, op, layout, elem, ld, d.wshape != nil, want, production)
								}
								for _, base := range bases {
									args := []uint64{base.addr, fragOut}[:len(k.Params)]
									perLane := runFragKernel(t, k, true, D1(32), args, sharedInit)
									shaped := runFragKernel(t, k, false, D1(32), args, sharedInit)
									compareFragRuns(t, perLane, shaped)
									if t.Failed() {
										t.Fatalf("%v %v %v %v %v ld %d store %v at %s", arch, shape, op, layout, elem, ld, store, base.name)
									}
									if !production {
										continue
									}
									// The generators' cases must really take the shape
									// path, and the edge cases really leave it.
									if _, _, ok := spaces.fragSpace(Generic, base.addr+d.wshape.lo, base.addr+d.wshape.hi); ok != base.covered {
										t.Fatalf("%v %v %v %v %v ld %d at %s: span covered = %v, want %v",
											arch, shape, op, layout, elem, ld, base.name, ok, base.covered)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if mappings < 100 {
		t.Fatalf("only %d mappings enumerated; the sweep is broken", mappings)
	}
}

// fragOut is where storeFragment puts a loaded fragment: global memory
// clear of every base the shape sweep loads from.
const fragOut = 1 << 40

// storeFragment stores every register of a loaded fragment to global
// memory, register s of lane l at out + 128·s + 4·l, so the values a load
// moves reach memory on both paths: a fragment nothing stores is dead, and
// the batched path would not move it at all.
func storeFragment(b *Builder, frag []Reg, out Reg) {
	lane, a := b.Reg(), b.Reg()
	b.MulWide(lane, SR(SRegLaneID), Imm(4))
	b.Add(U64, lane, R(lane), R(out))
	for s, r := range frag {
		b.Add(U64, a, R(lane), Imm(uint64(128*s)))
		b.St(Global, 32, R(a), []Operand{R(r)})
	}
}

// raggedMapping returns a hand-made Volta A mapping whose lanes all hold
// halves 0, 2 and 3 of row 0 (16 bits, then 32) — even — and its copy in
// which lane 0 holds halves 0, 1 and 3 instead (32 bits, then 16) —
// ragged. No supported mapping cuts its lanes into different pieces at
// any leading dimension, so this is how the ragged case is pinned.
func raggedMapping() (even, ragged *wmma.Mapping) {
	var lanes [wmma.WarpSize][]wmma.Coord
	for lane := range lanes {
		lanes[lane] = []wmma.Coord{{Row: 0, Col: 0}, {Row: 0, Col: 2}, {Row: 0, Col: 3}}
	}
	even = &wmma.Mapping{Arch: wmma.Volta, Shape: wmma.M16N16K16, Op: wmma.MatrixA, Layout: tensor.RowMajor, Elem: wmma.F16, Lanes: lanes}
	r := *even
	r.Lanes[0] = []wmma.Coord{{Row: 0, Col: 0}, {Row: 0, Col: 1}, {Row: 0, Col: 3}}
	return even, &r
}

// The ragged mapping's refusal: the batch's slot alignment cannot hold.
func TestFragShapeRefusesRaggedLanes(t *testing.T) {
	even, ragged := raggedMapping()
	if sh := shapeFragment(planFragment(even), 16, 2, 16); sh == nil || len(sh.groups) != 2 || !fragShapeExpected(even, 16) {
		t.Fatalf("lanes that agree got shape %+v", sh)
	}
	if sh := shapeFragment(planFragment(ragged), 16, 2, 16); sh != nil || fragShapeExpected(ragged, 16) {
		t.Fatalf("lanes that disagree on piece structure got shape %+v", sh)
	}
}

// Where a lane's pieces stop fitting the slot-aligned groups — ragged
// widths, or a lane that resolves to another space than the lanes before
// it — that lane and every later one report each piece as a one-lane
// group, so the lane-major expansion of the batch is still the per-lane
// piece list. Two instructions get there: a wmma.load on the ragged
// mapping (lane 1 is the first that does not fit), and a generic one of
// C whose lanes split between global memory and the shared window.
func TestFragFallbackKeepsLaneOrder(t *testing.T) {
	const window = 4096
	_, ragged := raggedMapping()
	inWindow := func(a uint64) Space {
		if a >= SharedBase && a < SharedBase+window {
			return Shared
		}
		return Global
	}
	cfg := wmma.Config{Arch: wmma.Volta, Shape: wmma.M16N16K16, ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
		AType: wmma.F16, CType: wmma.F32, DType: wmma.F32}
	for _, tc := range []struct {
		name  string
		m     *wmma.Mapping // nil: the builder's
		op    wmma.Operand
		prec  wmma.Precision
		base  uint64
		space func(uint64) Space
	}{
		{"ragged", ragged, wmma.MatrixA, cfg.AType, 512, allGlobal},
		{"window_straddle", nil, wmma.MatrixC, cfg.CType, SharedBase - 16, inWindow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("frag_fallback")
			pa := b.Param("a", U64)
			b.Shared(window)
			b.WmmaLoad(cfg.Arch, cfg.Shape, tc.op, tensor.RowMajor, tc.prec, R(pa), Imm(16))
			b.Exit()
			k := b.MustBuild()
			if tc.m != nil {
				// A mapping Map does not intern: the warp decodes the
				// kernel privately, planning it afresh.
				k.Instrs[0].WMap, k.prog = tc.m, nil
			}
			env := &Env{Global: newFragTestMem(), Shared: make([]byte, window), GridDim: D1(1), BlockDim: D1(32),
				Clock: func() uint64 { return 0 }}
			w, err := NewWarp(k, env, 0, []uint64{tc.base})
			if err != nil {
				t.Fatal(err)
			}
			d := w.PeekD()
			res, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			want := fragLaneList(t, d, tc.base, tc.space)
			if got := res.LaneAccesses(); !reflect.DeepEqual(got, want) {
				t.Fatalf("access stream of %d entries, want %d:\ngot:  %v\nwant: %v", len(got), len(want), got, want)
			}
			// The fallback lane: the first whose pieces differ in width or
			// space, slot by slot, from lane 0's.
			pieces := func(lane int) (ws []Access) {
				for _, a := range want {
					if a.Lane == lane {
						a.Lane, a.Addr = 0, 0
						ws = append(ws, a)
					}
				}
				return ws
			}
			fallback := 1
			for fallback < 32 && reflect.DeepEqual(pieces(fallback), pieces(0)) {
				fallback++
			}
			if fallback == 32 {
				t.Fatal("every lane fits the slot-aligned groups: no fallback exercised")
			}
			tail := 0
			for _, a := range want {
				if a.Lane >= fallback {
					tail++
				}
			}
			head, lane := res.Batch[:len(res.Batch)-tail], fallback
			for i, g := range res.Batch[len(head):] {
				if bits.OnesCount32(g.Mask) != 1 || bits.TrailingZeros32(g.Mask) < lane {
					t.Fatalf("group %d after the fallback lane %d has mask %#x, want one lane ≥ %d",
						len(head)+i, fallback, g.Mask, lane)
				}
				lane = bits.TrailingZeros32(g.Mask)
			}
			for i, g := range head {
				if g.Mask>>fallback != 0 {
					t.Fatalf("slot-aligned group %d holds lanes %#x at or after the fallback lane %d", i, g.Mask, fallback)
				}
			}
		})
	}
}
