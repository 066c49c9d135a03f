package ptx

import (
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
// (wmma.SlotVecs), addresses are generated per lane in one pass, data
// moves in bulk over maximal element runs (one Memory call per run),
// and wmma.mma gathers its operands slot by slot straight into the
// register images internal/wmma's kernel computes on, indexing them
// through precomputed linear offsets, with one loop per element encoding
// instead of a switch per element. The per-lane path remains for warps
// with guard predicates or partial activity, for mappings whose lanes
// disagree on fragment structure, and behind the LegacyFragmentPath knob.

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
// additionally require the relevant plans to exist.
func (w *Warp) fragVec(d *DInstr) bool {
	return !w.legacyFrag && d.predID < 0 && w.nLanes == 32
}

// fragLaneAddrs fills the reusable per-lane address scratch from the
// plan's factored offsets — the same arithmetic as the per-lane path
// (memOffsetFor), so the two paths produce bit-identical addresses for
// any stride, including pathological ones.
//
//simlint:hotpath
func (w *Warp) fragLaneAddrs(p *fragPlan, lane, ld int, base, elemBytes uint64) []uint64 {
	addrs := w.laneAddrs(p.slots)
	for s := 0; s < p.slots; s++ {
		off := int(p.major[s][lane])*ld + int(p.minor[s][lane])
		addrs[s] = base + uint64(off)*elemBytes
	}
	return addrs
}

// execWmmaLoadVec is the batched wmma.load data movement: per lane, one
// address pass through the plan, then one Env read per maximal run of
// byte-consecutive elements, unpacked into the destination registers.
// Access emission is shared with the per-lane path (emitFragAccesses),
// so the timing model sees an identical stream.
func (w *Warp) execWmmaLoadVec(d *DInstr, res *Result, base, stride uint64) error {
	in := d.In
	m := in.WMap
	p := d.wplan
	elemBytes := uint64(d.membytes)
	signExt := elemBytes == 1 && (m.Elem == wmma.S8 || m.Elem == wmma.S4)
	batched := !w.legacy
	for lane := 0; lane < 32; lane++ {
		addrs := w.fragLaneAddrs(p, lane, int(stride), base, elemBytes)
		if err := forEachFragRun(addrs, elemBytes, func(i, j int) error {
			return w.loadFragRun(d, lane, addrs[i:j], i, elemBytes, signExt)
		}); err != nil {
			return err
		}
		sp, _ := w.Env.resolveSpace(in.Space, addrs[0])
		batched = w.emitFragAccesses(res, batched, lane, addrs, m.Elem.Bits(), sp, false)
	}
	return nil
}

// forEachFragRun calls f on each maximal [i,j) run of byte-consecutive
// elements — the data-movement granularity. The access emission
// (fragPieces) derives its own runs deliberately: it works in element
// *bits* (sub-byte s4/u4 elements are byte-stored but 4-bit-shaped, so
// their SASS-level pieces never merge) and splits at 128-bit piece
// boundaries, neither of which constrains how many bytes one Env call
// may move.
func forEachFragRun(addrs []uint64, nb uint64, f func(i, j int) error) error {
	for i := 0; i < len(addrs); {
		j := i + 1
		for j < len(addrs) && addrs[j] == addrs[j-1]+nb {
			j++
		}
		if err := f(i, j); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// fragRunUniform reports whether a run's resolved endpoints prove the
// whole run lives in one state space at contiguous addresses — the bulk
// data-movement precondition. Matching endpoints alone are not enough
// under generic addressing: a run can contain the entire shared window
// with both endpoints resolving to Global, so Global endpoints
// additionally require the raw span to miss the window.
func (w *Warp) fragRunUniform(space Space, run []uint64, nb, total uint64, sp Space, a0, aE uint64, spE Space) bool {
	if sp != spE || a0 > aE || aE-a0 != total-nb {
		return false
	}
	if space == Generic && sp == Global {
		lo, hi := run[0], run[len(run)-1]+nb
		limit := SharedBase + uint64(len(w.Env.Shared))
		if lo < limit && hi > SharedBase {
			return false
		}
	}
	return true
}

// loadFragRun moves one lane's run of consecutive fragment elements
// from memory into registers: one bulk read when the whole run resolves
// into a single state space, else the per-element fallback (a run
// straddling or containing the generic shared-window boundary must read
// each element where the per-lane path would).
//
//simlint:hotpath
func (w *Warp) loadFragRun(d *DInstr, lane int, run []uint64, slot0 int, nb uint64, signExt bool) error {
	in := d.In
	total := uint64(len(run)) * nb
	sp, a0 := w.Env.resolveSpace(in.Space, run[0])
	spE, aE := w.Env.resolveSpace(in.Space, run[len(run)-1])
	if w.fragRunUniform(in.Space, run, nb, total, sp, a0, aE, spE) {
		if sp == Shared {
			if err := w.sharedSpan(a0, total); err != nil {
				return err
			}
		}
		if w.valueFree(d) {
			return nil
		}
		buf := w.bulk[:total]
		if sp == Shared {
			copy(buf, w.Env.Shared[a0:a0+total])
		} else {
			w.Env.Global.Read(a0, buf)
		}
		for i := range run {
			w.setReg(lane, in.Dst[slot0+i], w.unpackFragElem(buf[uint64(i)*nb:], nb, signExt))
		}
		return nil
	}
	buf := w.membuf[:nb]
	for i, a := range run {
		w.Env.read(in.Space, a, buf)
		w.setReg(lane, in.Dst[slot0+i], w.unpackFragElem(buf, nb, signExt))
	}
	return nil
}

// unpackFragElem assembles one fragment element's register value from
// little-endian bytes, with the signed sub-32-bit extension of the
// per-lane path.
func (w *Warp) unpackFragElem(src []byte, nb uint64, signExt bool) uint64 {
	var v uint64
	for b := int(nb) - 1; b >= 0; b-- {
		v = v<<8 | uint64(src[b])
	}
	if signExt {
		// Signed integer operands live in registers as s32 values.
		v = uint64(uint32(int32(int8(v))))
	}
	return v
}

// execWmmaStoreVec is the batched wmma.store data movement: register
// values are packed per run and written with one Env write per run,
// preserving the per-lane path's lane-major, slot-ascending write order
// (runs are slot-ascending and internally disjoint).
func (w *Warp) execWmmaStoreVec(d *DInstr, res *Result, base, stride uint64) error {
	in := d.In
	m := in.WMap
	p := d.wplan
	elemBytes := uint64(d.membytes)
	batched := !w.legacy
	for lane := 0; lane < 32; lane++ {
		addrs := w.fragLaneAddrs(p, lane, int(stride), base, elemBytes)
		if err := forEachFragRun(addrs, elemBytes, func(i, j int) error {
			return w.storeFragRun(d, lane, addrs[i:j], i, elemBytes)
		}); err != nil {
			return err
		}
		sp, _ := w.Env.resolveSpace(in.Space, addrs[0])
		batched = w.emitFragAccesses(res, batched, lane, addrs, m.Elem.Bits(), sp, true)
	}
	return nil
}

// storeFragRun packs one lane's run of consecutive fragment elements
// and writes it with a single Env write when the run resolves into one
// state space, else element by element.
//
//simlint:hotpath
func (w *Warp) storeFragRun(d *DInstr, lane int, run []uint64, slot0 int, nb uint64) error {
	in := d.In
	total := uint64(len(run)) * nb
	sp, a0 := w.Env.resolveSpace(in.Space, run[0])
	spE, aE := w.Env.resolveSpace(in.Space, run[len(run)-1])
	if w.fragRunUniform(in.Space, run, nb, total, sp, a0, aE, spE) {
		if sp == Shared {
			if err := w.sharedSpan(a0, total); err != nil {
				return err
			}
		}
		if w.valueFree(d) {
			return nil
		}
		buf := w.bulk[:total]
		for i := range run {
			v := d.val(w, lane, &d.srcs[2+slot0+i])
			packFragElem(buf[uint64(i)*nb:], nb, v)
		}
		if sp == Shared {
			copy(w.Env.Shared[a0:a0+total], buf)
		} else {
			w.Env.Global.Write(a0, buf)
		}
		return nil
	}
	buf := w.membuf[:nb]
	for i, a := range run {
		v := d.val(w, lane, &d.srcs[2+slot0+i])
		packFragElem(buf, nb, v)
		w.Env.write(in.Space, a, buf)
	}
	return nil
}

// packFragElem serializes one fragment element into little-endian bytes.
func packFragElem(dst []byte, nb, v uint64) {
	for b := 0; b < int(nb); b++ {
		dst[b] = byte(v >> (8 * b))
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
