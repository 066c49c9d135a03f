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
		// Fill the shared window deterministically: each lane stores a
		// few id-derived words before the wmma ops read them back.
		lane := b.Reg()
		b.Mov(U32, lane, SR(SRegLaneID))
		v := b.Reg()
		b.Mad(U32, v, R(lane), Imm(2654435761), Imm(97))
		addr := b.Reg()
		b.MulWide(addr, R(lane), Imm(4))
		b.Add(U64, addr, R(addr), Imm(smem))
		for i := 0; i < shared/(32*4); i++ {
			b.St(Shared, 32, R(addr), []Operand{R(v)})
			b.Add(U64, addr, R(addr), Imm(128))
			b.Add(U32, v, R(v), Imm(31))
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
// fragment path selected by legacy.
func runFragKernel(t *testing.T, k *Kernel, legacy bool, block Dim3, args []uint64) fragRun {
	t.Helper()
	defer SwapLegacyFragmentPath(legacy)()
	mem := newFragTestMem()
	env := &Env{
		Global:   mem,
		Shared:   make([]byte, k.SharedBytes),
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
			legacy := runFragKernel(t, k, true, tc.block, tc.args)
			batched := runFragKernel(t, k, false, tc.block, tc.args)
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
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint64(1), int64(16))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), uint64(2), int64(256))
	f.Add(uint8(0), uint8(0), uint8(2), uint8(0), uint8(1), uint64(3), int64(1))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint64(4), int64(8))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(1), uint8(0), uint64(5), int64(-16))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), uint8(2), uint64(6), int64(3))
	f.Add(uint8(1), uint8(0), uint8(2), uint8(0), uint8(6), uint64(7), int64(17))
	f.Add(uint8(1), uint8(3), uint8(1), uint8(1), uint8(4), uint64(8), int64(32))
	f.Fuzz(func(t *testing.T, archSel, shapeSel, opSel, layoutSel, elemSel uint8, seed uint64, stride int64) {
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
		base := seed&0xffff + 1
		for lane := 0; lane < 32; lane++ {
			addrs := w.fragLaneAddrs(p, lane, int(stride), base, elemBytes)
			for slot, c := range m.Lanes[lane] {
				want := base + uint64(memOffsetFor(m, c, int(stride)))*elemBytes
				if addrs[slot] != want {
					t.Fatalf("lane %d slot %d addr %#x, want %#x (stride %d)",
						lane, slot, addrs[slot], want, stride)
				}
			}
		}
	})
}
