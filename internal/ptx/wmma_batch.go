package ptx

import (
	"encoding/binary"
	"sync/atomic"

	"repro/internal/tensor"
	"repro/internal/wmma"
)

// The batched wmma fragment path. After PR 4 the tensor-core
// instructions were the last per-element hot loops: wmma.load/store
// resolved the state space and called the Memory interface once per
// fragment element per lane, and wmma.mma reconstructed its operand
// tiles (and scattered D) one register at a time through per-element
// operand dispatch, layout-branching Matrix indexing and a per-element
// precision switch. The batched path gives fragments the same
// struct-of-arrays treatment ld/st received: the decoded instruction
// carries per-slot lane vectors derived from the wmma.Mapping
// (wmma.SlotVecs); a wmma.load/store carries its whole access shape —
// every offset, piece and data run, worked out at decode from the mapping
// and the immediate leading dimension — so an execution adds the base,
// resolves the state space once and moves data in bulk over the runs (one
// Memory call per run); and wmma.mma gathers its operands slot by slot
// straight into the register images internal/wmma's kernel computes on,
// indexing them through precomputed linear offsets, with one loop per
// element encoding instead of a switch per element. The per-lane path
// remains for warps with guard predicates or partial activity, for
// mappings whose lanes disagree on fragment structure, for a register
// leading dimension or an access straddling the shared window, and behind
// the LegacyFragmentPath knob.

// legacyFragmentPath, when set, routes warps constructed afterwards
// through the per-element wmma fragment path instead of the batched
// slot-vector path. It exists so tests can assert the batched path is
// semantics-preserving (bit-identical registers, memory, Stats and
// experiment tables) and so the ablation benchmark can quantify the
// difference; production code never sets it.
//
//simlint:processknob equivalence/ablation knob: CLI plumbing and Swap-helper tests only, never flipped while simulators run
var legacyFragmentPath atomic.Bool

// LegacyFragmentPath switches subsequently constructed warps between
// the batched wmma fragment path (the default) and the per-element
// legacy path, mirroring LegacyAccessPath.
func LegacyFragmentPath(on bool) { legacyFragmentPath.Store(on) }

// SwapLegacyFragmentPath sets the knob and returns the restore that
// puts the previous value back; the only sanctioned test shape
// (defer ptx.SwapLegacyFragmentPath(true)() or t.Cleanup).
func SwapLegacyFragmentPath(on bool) (restore func()) {
	prev := legacyFragmentPath.Swap(on)
	return func() { legacyFragmentPath.Store(prev) }
}

// LegacyFragmentPathEnabled reports the knob's current setting. CLI
// tests use it to pin that -legacyfrag restores the process-global on
// return instead of leaking across in-process invocations.
func LegacyFragmentPathEnabled() bool { return legacyFragmentPath.Load() }

// fragPlan is the decoded form of one wmma.Mapping: per-slot lane
// vectors of precomputed tile offsets, built once per static
// instruction (decode time) and shared read-only by every warp — so
// the type is frozen outside planFragment.
//
//simlint:frozen
type fragPlan struct {
	slots int
	// idx[slot][lane] is the linear offset of the lane's element in the
	// operand's register image (see internal/wmma): tight row-major for A,
	// C and D, transposed for B so that both multiplicands are K-contiguous.
	idx [][32]int32
	// lanes lists, ascending, the lanes a gather has to read: every lane
	// except those whose whole fragment a higher lane also holds. Volta A/B
	// keep each element in two lanes, so half the warp drops out; the
	// surviving copy is the higher lane's, the one the per-lane path's
	// lane-ascending writes leave behind.
	lanes []uint8
	// major/minor[slot][lane] factor the element's memory offset under
	// the mapping's layout: offset = major·ld + minor for leading
	// dimension ld.
	major, minor [][32]int32
}

// planFragment builds the fragment plan, or returns nil when the
// mapping is absent or its lanes disagree on fragment structure — the
// executor then keeps the per-lane path for this instruction.
//
//simlint:ctor
func planFragment(m *wmma.Mapping) *fragPlan {
	if m == nil {
		return nil
	}
	v := m.SlotVecs()
	if !v.Uniform {
		return nil
	}
	rows, cols := m.Shape.Dims(m.Op)
	p := &fragPlan{slots: v.Slots}
	p.idx = make([][32]int32, p.slots)
	p.major = make([][32]int32, p.slots)
	p.minor = make([][32]int32, p.slots)
	highest := make([]int, rows*cols) // highest lane holding each element
	for slot := 0; slot < p.slots; slot++ {
		for lane := 0; lane < 32; lane++ {
			r, c := int32(v.Row[slot][lane]), int32(v.Col[slot][lane])
			if m.Op == wmma.MatrixB {
				p.idx[slot][lane] = c*int32(rows) + r
			} else {
				p.idx[slot][lane] = r*int32(cols) + c
			}
			highest[p.idx[slot][lane]] = max(highest[p.idx[slot][lane]], lane)
			if m.Layout == tensor.RowMajor {
				p.major[slot][lane], p.minor[slot][lane] = r, c
			} else {
				p.major[slot][lane], p.minor[slot][lane] = c, r
			}
		}
	}
	for lane := 0; lane < 32; lane++ {
		for slot := 0; slot < p.slots; slot++ {
			if highest[p.idx[slot][lane]] == lane {
				p.lanes = append(p.lanes, uint8(lane))
				break
			}
		}
	}
	return p
}

// fragVec reports whether the instruction takes the batched fragment
// path: knob off, no guard predicate, fully populated warp. Callers
// additionally require the relevant plans (wmma.mma) or the access shape
// (wmma.load/store) to exist.
func (w *Warp) fragVec(d *DInstr) bool {
	return !w.legacyFrag && d.predID < 0 && w.nLanes == 32
}

// fragLaneAddrs fills addrs with one lane's element addresses from the
// plan's factored offsets — the same arithmetic as the per-lane path
// (memOffsetFor), so the two produce bit-identical addresses for any
// stride, including pathological ones.
func fragLaneAddrs(addrs []uint64, p *fragPlan, lane, ld int, base, elemBytes uint64) {
	for s := range addrs {
		off := int(p.major[s][lane])*ld + int(p.minor[s][lane])
		addrs[s] = base + uint64(off)*elemBytes
	}
}

// fragRunEnd returns the end j of the maximal run [i,j) of elements step
// bytes apart — the one definition of "run". Data moves over runs of
// element bytes; the access emission (fragPieces) passes the element *bits*
// (sub-byte s4/u4 elements are byte-stored but 4-bit-shaped, so their
// SASS-level pieces never merge) and splits at 128-bit piece boundaries,
// neither of which constrains how many bytes one Env call may move.
func fragRunEnd(addrs []uint64, i int, step uint64) int {
	j := i + 1
	for j < len(addrs) && addrs[j] == addrs[j-1]+step {
		j++
	}
	return j
}

// fragShape is the access shape of one static wmma.load/store whose
// leading dimension is an immediate: which elements a lane holds and into
// which ≤128-bit accesses they coalesce is a function of the mapping and
// the leading dimension alone (Section III), never of the base pointer, so
// it is worked out once at decode and a dynamic execution only adds the
// base. Offsets are bytes from the base operand.
//
//simlint:frozen
type fragShape struct {
	lo, hi uint64 // every element lies inside base+[lo,hi)
	// groups are the slot-aligned piece groups of the access stream: piece
	// k of every lane, the Result.Batch layout.
	groups []fragGroup
	// runs are the data runs, lane-major and slot-ascending — the per-lane
	// path's write order, which overlapping stores (ld 0) depend on.
	runs []fragDataRun
}

// fragGroup is piece k of every lane: its width and the lanes' offsets.
//
//simlint:frozen
type fragGroup struct {
	bits int32
	off  [32]uint64
}

// fragDataRun is n byte-consecutive elements of one lane, fragment slots
// [slot0, slot0+n), starting off bytes from the base.
//
//simlint:frozen
type fragDataRun struct {
	lane, slot0, n uint8
	off            uint64
}

// fragSpanLimit bounds a shape's offsets: 2^31 elements of leading
// dimension over 32 rows of 4 bytes stay under it, a negative one does not.
const fragSpanLimit = 1 << 40

// shapeFragment builds the access shape by running the per-execution
// definitions — fragLaneAddrs, fragRunEnd, fragPieces — once at base 0:
// all three are translation-invariant in uint64 arithmetic (addresses are
// base + offset, runs and pieces compare differences), so base+off is what
// they produce at any base. It returns nil — the executor then keeps the
// per-lane path — without a plan, when lanes disagree on piece structure
// (the slot alignment of the batch cannot hold), or when an offset leaves
// [0, fragSpanLimit), which a negative leading dimension does.
//
//simlint:ctor
func shapeFragment(p *fragPlan, ld int, elemBytes uint64, elemBits int) *fragShape {
	if p == nil {
		return nil
	}
	sh := &fragShape{lo: fragSpanLimit}
	addrs := make([]uint64, p.slots)
	var pieces []fragPiece
	for lane := 0; lane < 32; lane++ {
		fragLaneAddrs(addrs, p, lane, ld, 0, elemBytes)
		for i := 0; i < len(addrs); {
			j := fragRunEnd(addrs, i, elemBytes)
			sh.runs = append(sh.runs, fragDataRun{lane: uint8(lane), slot0: uint8(i), n: uint8(j - i), off: addrs[i]})
			i = j
		}
		for _, a := range addrs {
			if a >= fragSpanLimit {
				return nil
			}
			sh.lo, sh.hi = min(sh.lo, a), max(sh.hi, a+elemBytes)
		}
		pieces = fragPieces(pieces[:0], addrs, elemBits)
		if lane == 0 {
			sh.groups = make([]fragGroup, len(pieces))
			for k, pc := range pieces {
				sh.groups[k].bits = pc.bits
			}
		}
		// Every lane's pieces add up to the same bits, so widths that agree
		// piece by piece also agree in number.
		for k, pc := range pieces {
			g := &sh.groups[k]
			if g.bits != pc.bits {
				return nil
			}
			g.off[lane] = pc.addr
		}
	}
	return sh
}

// fragSpace resolves the state space of a whole fragment access from its
// byte span [lo,hi), once per execution: sub is what turns an address into
// an offset of that space. A generic span wholly outside the shared window
// is global, one wholly inside it shared; an explicit .shared span may also
// be window-relative. ok is false for everything else — a span that wraps,
// straddles a window edge or leaves the window — and the per-lane path
// then resolves, and faults, element by element.
func (w *Warp) fragSpace(space Space, lo, hi uint64) (sp Space, sub uint64, ok bool) {
	n := uint64(len(w.Env.Shared))
	switch {
	case hi < lo:
		return 0, 0, false
	case space == Global, space == Generic && (hi <= SharedBase || lo >= SharedBase+n):
		return Global, 0, true
	case lo >= SharedBase && hi <= SharedBase+n:
		return Shared, SharedBase, true
	case space == Shared && hi <= n:
		return Shared, 0, true
	}
	return 0, 0, false
}

// execFragShape is the batched wmma.load/store: one space resolution, the
// access stream as base + offset per piece group, and — unless the
// execution is value-free — the data over the precomputed runs. It reports
// false, having done nothing, for what the shape does not cover: no shape
// (a register stride, lanes that disagree on piece structure), a guard
// predicate or a partial warp, either legacy knob, and a span that
// fragSpace leaves to the per-lane path.
//
//simlint:hotpath
func (w *Warp) execFragShape(d *DInstr, res *Result, base uint64, store bool) bool {
	sh := d.wshape
	if sh == nil || !w.fragVec(d) || w.legacy {
		return false
	}
	sp, sub, ok := w.fragSpace(d.In.Space, base+sh.lo, base+sh.hi)
	if !ok {
		return false
	}
	for gi := range sh.groups {
		g := &sh.groups[gi]
		var wa *WarpAccess
		res.Batch, wa = appendBatchSlot(res.Batch)
		wa.Mask, wa.Bits, wa.Space, wa.Store = fullMask, g.bits, sp, store
		for lane := range wa.Addr {
			wa.Addr[lane] = base + g.off[lane]
		}
	}
	if !w.valueFree(d) {
		w.moveFragRuns(d, sp, base-sub, store)
	}
	return true
}

// moveFragRuns moves a shape's data, run by run, between the registers and
// the resolved space, in which the base operand is offset origin: one
// Memory call or one window slice per run, the 2- and 4-byte element codecs
// spelled out.
//
//simlint:hotpath
func (w *Warp) moveFragRuns(d *DInstr, sp Space, origin uint64, store bool) {
	nb := int(d.membytes)
	signExt := d.In.WMap.Elem == wmma.S8 || d.In.WMap.Elem == wmma.S4
	for ri := range d.wshape.runs {
		r := &d.wshape.runs[ri]
		a, lane, n := origin+r.off, int(r.lane), int(r.n)
		buf := w.bulk[:n*nb]
		if sp == Shared {
			buf = w.Env.Shared[a : a+uint64(n*nb)]
		}
		if store {
			srcs := d.srcs[2+int(r.slot0):][:n]
			for i := range srcs {
				switch v := d.val(w, lane, &srcs[i]); nb {
				case 2:
					binary.LittleEndian.PutUint16(buf[2*i:], uint16(v))
				case 4:
					binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
				default:
					buf[i] = byte(v)
				}
			}
			if sp != Shared {
				w.Env.Global.Write(a, buf)
			}
			continue
		}
		if sp != Shared {
			w.Env.Global.Read(a, buf)
		}
		for i, dst := range d.dsts[r.slot0:][:n] {
			var v uint64
			switch nb {
			case 2:
				v = uint64(binary.LittleEndian.Uint16(buf[2*i:]))
			case 4:
				v = uint64(binary.LittleEndian.Uint32(buf[4*i:]))
			default:
				v = uint64(buf[i])
				if signExt {
					// Signed integer operands live in registers as s32 values.
					v = uint64(uint32(int32(int8(v))))
				}
			}
			w.regs[int(dst)*32+lane] = v
		}
	}
}

// The three gathers below fill one register image of wmma.mma (see
// internal/wmma) from fragment registers: slots in the outer loop (the
// fragment register is warp-uniform per slot), the plan's lanes in a
// tight inner loop, one function per element encoding so no loop carries
// a precision switch.

// gatherF16 widens binary16 fragment elements to their exact binary32
// image.
//
//simlint:hotpath
func (w *Warp) gatherF16(d *DInstr, p *fragPlan, srcOff int, img []float32) {
	for s := 0; s < p.slots; s++ {
		r := w.regVec(int(d.srcs[srcOff+s].reg))
		idx := &p.idx[s]
		for _, lane := range p.lanes {
			img[idx[lane&31]] = h16(r[lane&31]).Float32()
		}
	}
}

// gatherInt clamps integer fragment elements (s32 values in registers)
// to the operand range [lo, hi].
//
//simlint:hotpath
func (w *Warp) gatherInt(d *DInstr, p *fragPlan, srcOff int, lo, hi int32, img []int32) {
	for s := 0; s < p.slots; s++ {
		r := w.regVec(int(d.srcs[srcOff+s].reg))
		idx := &p.idx[s]
		for _, lane := range p.lanes {
			img[idx[lane&31]] = min(max(int32(uint32(r[lane&31])), lo), hi)
		}
	}
}

// gatherWords copies accumulator fragment registers as raw words.
//
//simlint:hotpath
func (w *Warp) gatherWords(d *DInstr, p *fragPlan, srcOff int, img []uint64) {
	for s := 0; s < p.slots; s++ {
		r := w.regVec(int(d.srcs[srcOff+s].reg))
		idx := &p.idx[s]
		for _, lane := range p.lanes {
			img[idx[lane&31]] = r[lane&31]
		}
	}
}

// scatterWords is the D scatter, the inverse of gatherWords: every lane's
// destination registers receive their elements' result words.
//
//simlint:hotpath
func (w *Warp) scatterWords(d *DInstr, p *fragPlan, img []uint64) {
	for s := 0; s < p.slots; s++ {
		r := w.regVec(int(d.dsts[s]))
		idx := &p.idx[s]
		for lane := range r {
			r[lane] = img[idx[lane]]
		}
	}
}

// grow returns s resized to n elements, reallocating only when the
// capacity is short; contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// execWmmaMMAVec runs wmma.mma on register images: the operands are
// gathered from the register file into the warp's reusable scratch in the
// form internal/wmma's kernel computes on, and D's words scattered back.
// The arithmetic is the kernel the per-lane path reaches through
// wmma.MMAInto, so the two paths cannot disagree.
func (w *Warp) execWmmaMMAVec(d *DInstr, nA, nB int) error {
	cfg := d.In.WConfig
	sh := cfg.Shape
	w.mmaWords = grow(w.mmaWords, 2*sh.M*sh.N)
	c, out := w.mmaWords[:sh.M*sh.N], w.mmaWords[sh.M*sh.N:]
	w.gatherWords(d, d.wC, nA+nB, c)
	var err error
	if cfg.AType.IsInt() {
		w.mmaInts = grow(w.mmaInts, (sh.M+sh.N)*sh.K)
		a, b := w.mmaInts[:sh.M*sh.K], w.mmaInts[sh.M*sh.K:]
		lo, hi := wmma.IntRange(cfg.AType)
		w.gatherInt(d, d.wA, 0, lo, hi, a)
		w.gatherInt(d, d.wB, nA, lo, hi, b)
		err = wmma.MMAIntImages(cfg, a, b, c, out)
	} else {
		w.mmaFloats = grow(w.mmaFloats, (sh.M+sh.N)*sh.K)
		a, b := w.mmaFloats[:sh.M*sh.K], w.mmaFloats[sh.M*sh.K:]
		w.gatherF16(d, d.wA, 0, a)
		w.gatherF16(d, d.wB, nA, b)
		err = wmma.MMAImages(cfg, a, b, c, out)
	}
	if err != nil {
		return err
	}
	w.scatterWords(d, d.wD, out)
	return nil
}
