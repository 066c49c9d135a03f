package ptx

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/tensor"
	"repro/internal/wmma"
)

// The batched fragment path must be invisible at the architectural
// level: for any wmma kernel, the registers written, the bytes moved
// (global and shared), and the per-lane access stream the timing model
// sees must match the per-element legacy path exactly. The round-trip
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
		// Fill the shared window deterministically: each lane stores a
		// few id-derived words before the wmma ops read them back. Every
		// value computed reaches a store, so both paths compute it.
		lane := b.Reg()
		b.Mov(U32, lane, SR(SRegLaneID))
		v := b.Reg()
		b.Mad(U32, v, R(lane), Imm(2654435761), Imm(97))
		addr := b.Reg()
		b.MulWide(addr, R(lane), Imm(4))
		b.Add(U64, addr, R(addr), Imm(smem))
		for i := 0; i < shared/(32*4); i++ {
			if i > 0 {
				b.Add(U64, addr, R(addr), Imm(128))
				b.Add(U32, v, R(v), Imm(31))
			}
			b.St(Shared, 32, R(addr), []Operand{R(v)})
		}
	}
	fa := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType, R(pa), Imm(uint64(cfg.Shape.K)))
	fb := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType, R(pa), Imm(uint64(cfg.Shape.K)))
	fc := b.WmmaLoad(cfg.Arch, cfg.Shape, wmma.MatrixC, cLayout, cfg.CType, R(pc), Imm(uint64(cfg.Shape.N)))
	fd := b.WmmaMMA(cfg, fa, fb, fc)
	b.WmmaStore(cfg.Arch, cfg.Shape, cLayout, cfg.DType, R(pd), fd, Imm(uint64(cfg.Shape.N)))
	b.Exit()
	return b.MustBuild()
}

// fragTestMem is a sparse global memory with deterministic background
// content: reads of untouched bytes derive from the address, writes
// land in a map. It accepts any address, so runs that resolve just
// below the generic shared window (huge global addresses) execute on
// both paths instead of overrunning a flat buffer.
type fragTestMem struct{ writes map[uint64]byte }

func newFragTestMem() *fragTestMem { return &fragTestMem{writes: make(map[uint64]byte)} }

func (m *fragTestMem) Read(addr uint64, buf []byte) {
	for i := range buf {
		a := addr + uint64(i)
		if v, ok := m.writes[a]; ok {
			buf[i] = v
		} else {
			buf[i] = byte(a*13 + 5)
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

// runFragKernel executes the kernel on every warp of one CTA with the
// fragment path selected by legacy; shared, when not nil, is the window's
// initial content.
func runFragKernel(t *testing.T, k *Kernel, legacy bool, block Dim3, args []uint64, shared []byte) fragRun {
	t.Helper()
	defer SwapLegacyFragmentPath(legacy)()
	mem := newFragTestMem()
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
		// Fresh warps per path: the knob is sampled at construction.
		w, err := NewWarp(k, env, id, args)
		if err != nil {
			t.Fatal(err)
		}
		for !w.Exited {
			res, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			if acc := res.LaneAccesses(); len(acc) > 0 {
				run.accesses = append(run.accesses, append([]Access(nil), acc...))
			}
		}
		run.regs = append(run.regs, append([]uint64(nil), w.regs...)...)
	}
	run.global = mem.writes
	run.shared = env.Shared
	return run
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

// fragFuzzWarp builds a bare full-warp executor plus the decoded
// all-register operand shape the image gather/scatter consumes.
func fragFuzzWarp(nslots int) (*Warp, *DInstr) {
	k := &Kernel{Name: "fragfuzz", NumRegs: nslots}
	w := &Warp{Kernel: k, Env: &Env{}}
	w.nLanes = 32
	w.active = fullMask
	w.regs = make([]uint64, 32*nslots)
	in := &Instr{Op: OpWmmaMMA}
	d := &DInstr{In: in, predID: -1}
	for s := 0; s < nslots; s++ {
		in.Src = append(in.Src, R(Reg{ID: s}))
		in.Dst = append(in.Dst, Reg{ID: s})
		d.srcs = append(d.srcs, srcOp{kind: OperandReg, reg: int32(s)})
		d.dsts = append(d.dsts, int32(s))
	}
	return w, d
}

// coordBits derives a deterministic register value for a tile
// coordinate. Duplicate fragment copies (Volta A/B) receive identical
// bits, matching the architectural invariant wmma.load establishes —
// the property that makes the gather write order immaterial.
func coordBits(seed uint64, c wmma.Coord) uint64 {
	h := seed ^ (uint64(c.Row)*0x9E3779B97F4A7C15 + uint64(c.Col)*0xC2B2AE3D27D4EB4F + 1)
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// FuzzFragGatherMatchesReference drives the batched fragment machinery
// against a per-element reference walked straight off the mapping,
// across random mappings, layouts, precisions, strides and register
// contents: the gathered register image (row-major, transposed for B),
// the scattered registers, and the per-lane memory addresses must all be
// bit-identical.
func FuzzFragGatherMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint64(1), int64(16), uint64(1))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), uint64(2), int64(256), uint64(4096))
	f.Add(uint8(0), uint8(0), uint8(2), uint8(0), uint8(1), uint64(3), int64(1), uint64(SharedBase))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint64(4), int64(8), uint64(SharedBase+2048))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(1), uint8(0), uint64(5), int64(-16), uint64(SharedBase-16))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), uint8(2), uint64(6), int64(3), uint64(77))
	f.Add(uint8(1), uint8(0), uint8(2), uint8(0), uint8(6), uint64(7), int64(17), uint64(SharedBase+4096-32))
	f.Add(uint8(1), uint8(3), uint8(1), uint8(1), uint8(4), uint64(8), int64(32), uint64(1<<63))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint64(9), int64(16), ^uint64(7)) // the span wraps
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
		if p == nil {
			t.Fatalf("standard mapping %v/%v/%v produced no plan", arch, shape, op)
		}
		w, d := fragFuzzWarp(p.slots)
		in := d.In
		in.WMap = m

		// Gather: consistent per-coordinate register bits into each image
		// encoding, compared bitwise (NaN payloads included) with the
		// image a per-element walk of the mapping produces. Poisoned
		// scratch proves every element is written.
		for lane := range m.Lanes {
			for slot, c := range m.Lanes[lane] {
				w.setReg(lane, Reg{ID: slot}, coordBits(seed, c))
			}
		}
		rows, cols := m.Shape.Dims(m.Op)
		imgIdx := func(c wmma.Coord) int {
			if op == wmma.MatrixB {
				return c.Col*rows + c.Row // N×K: the kernel's transposed B
			}
			return c.Row*cols + c.Col
		}
		n := rows * cols
		wantWords := make([]uint64, n)
		for lane := range m.Lanes {
			for _, c := range m.Lanes[lane] {
				wantWords[imgIdx(c)] = coordBits(seed, c)
			}
		}
		words := make([]uint64, n)
		for i := range words {
			words[i] = 0xDEADBEEFDEADBEEF
		}
		w.gatherWords(d, p, 0, words)
		if !reflect.DeepEqual(words, wantWords) {
			t.Fatalf("gathered words differ (mapping %v/%v/%v %v %v)", arch, shape, op, layout, elem)
		}
		floats := make([]float32, n)
		for i := range floats {
			floats[i] = -12345
		}
		w.gatherF16(d, p, 0, floats)
		for i, bits := range wantWords {
			if want := h16(bits).Float32(); math.Float32bits(floats[i]) != math.Float32bits(want) {
				t.Fatalf("f16 image element %d = %v, want %v (mapping %v/%v/%v %v)",
					i, floats[i], want, arch, shape, op, layout)
			}
		}
		lo, hi := int32(int8(seed)), int32(int8(seed))+int32(seed>>8&0xff)
		ints := make([]int32, n)
		for i := range ints {
			ints[i] = hi + 1
		}
		w.gatherInt(d, p, 0, lo, hi, ints)
		for i, bits := range wantWords {
			if want := min(max(int32(uint32(bits)), lo), hi); ints[i] != want {
				t.Fatalf("int image element %d = %d, want %d (mapping %v/%v/%v %v)",
					i, ints[i], want, arch, shape, op, layout)
			}
		}

		// Scatter: arbitrary result words into every lane's registers.
		tile := make([]uint64, n)
		for i := range tile {
			tile[i] = coordBits(seed^0xABCD, wmma.Coord{Row: i, Col: 7})
		}
		refRegs := make([]uint64, len(w.regs))
		for lane := range m.Lanes {
			for slot, c := range m.Lanes[lane] {
				refRegs[slot*32+lane] = tile[imgIdx(c)]
			}
		}
		clear(w.regs)
		w.scatterWords(d, p, tile)
		if !reflect.DeepEqual(refRegs, w.regs) {
			t.Fatalf("scatter registers differ (mapping %v/%v/%v %v %v)", arch, shape, op, layout, elem)
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
		// pieces, runs and span, at any base; and no shape exactly when an
		// offset is untamed or lanes disagree on piece structure.
		sh := shapeFragment(p, int(stride), elemBytes, elem.Bits())
		if want := fragShapeExpected(m, int(stride)); (sh != nil) != want {
			t.Fatalf("shape present = %v, expected %v (stride %d)", sh != nil, want, stride)
		}
		if sh == nil {
			return
		}
		var runs []fragDataRun
		for lane := range ref {
			pieces := fragPieces(nil, ref[lane], elem.Bits())
			if len(pieces) != len(sh.groups) {
				t.Fatalf("lane %d: %d pieces, %d groups", lane, len(pieces), len(sh.groups))
			}
			for k, pc := range pieces {
				if g := &sh.groups[k]; g.bits != pc.bits || base+g.off[lane] != pc.addr {
					t.Fatalf("lane %d piece %d = {%#x %d}, want %+v (stride %d)", lane, k, base+g.off[lane], g.bits, pc, stride)
				}
			}
			for i := 0; i < p.slots; {
				j := fragRunEnd(ref[lane], i, elemBytes)
				runs = append(runs, fragDataRun{lane: uint8(lane), slot0: uint8(i), n: uint8(j - i), off: ref[lane][i] - base})
				i = j
			}
			for _, a := range ref[lane] {
				if a-base < sh.lo || a-base+elemBytes > sh.hi {
					t.Fatalf("lane %d element at +%#x outside the span [%#x,%#x)", lane, a-base, sh.lo, sh.hi)
				}
			}
		}
		if !reflect.DeepEqual(runs, sh.runs) {
			t.Fatalf("runs differ (stride %d)\nshape: %v\nwant:  %v", stride, sh.runs, runs)
		}

		// The once-per-execution space decision must be every element's:
		// same space, same offset, inside the window.
		w.Env.Shared = make([]byte, 4096)
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
	})
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
								} else {
									storeFragment(b, b.WmmaLoad(arch, shape, op, layout, elem, R(dst), Imm(uint64(ld))), b.Param("out", U64))
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

// No supported mapping cuts its lanes into different pieces at any leading
// dimension, so the refusal — the batch's slot alignment cannot hold — is
// pinned on a hand-made one: lane 0 holds halves 0, 1 and 3 of a row (a
// 32-bit piece, then a 16-bit one), every other lane halves 0, 2 and 3 (16
// bits, then 32).
func TestFragShapeRefusesRaggedLanes(t *testing.T) {
	var lanes [wmma.WarpSize][]wmma.Coord
	for lane := range lanes {
		lanes[lane] = []wmma.Coord{{Row: 0, Col: 0}, {Row: 0, Col: 2}, {Row: 0, Col: 3}}
	}
	even := &wmma.Mapping{Arch: wmma.Volta, Shape: wmma.M16N16K16, Op: wmma.MatrixA, Layout: tensor.RowMajor, Elem: wmma.F16, Lanes: lanes}
	if sh := shapeFragment(planFragment(even), 16, 2, 16); sh == nil || len(sh.groups) != 2 || !fragShapeExpected(even, 16) {
		t.Fatalf("lanes that agree got shape %+v", sh)
	}
	lanes[0] = []wmma.Coord{{Row: 0, Col: 0}, {Row: 0, Col: 1}, {Row: 0, Col: 3}}
	ragged := *even
	ragged.Lanes = lanes
	if sh := shapeFragment(planFragment(&ragged), 16, 2, 16); sh != nil || fragShapeExpected(&ragged, 16) {
		t.Fatalf("lanes that disagree on piece structure got shape %+v", sh)
	}
}
