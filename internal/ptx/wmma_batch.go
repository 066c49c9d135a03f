package ptx

import (
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/tensor"
	"repro/internal/wmma"
)

// The batched wmma fragment path. A wmma.load/store carries its whole
// access shape — every offset and piece, worked out at decode from the
// mapping and the immediate leading dimension — so an execution adds the
// base, resolves the state space once and emits the access stream as
// slot-aligned groups. The values live as tile images: a fragment register
// group that only wmma instructions touch, all through one lane→element
// mapping, is held on a full-value warp as the tile internal/wmma's kernel
// computes on, stored in the group's own register rows. A load fills the
// image line by line from memory, wmma.mma reads its operand images and
// writes D's, a store writes the image back by lines: no fragment element
// passes through lane registers. Whatever the image path declines — a
// guard predicate, a partial warp, a group read outside wmma, an operand
// still in register form, a span straddling the shared window — takes the
// per-lane loops, which first turn the images they name back into
// registers (materialize).

// fragPlan is the decoded form of one wmma.Mapping: per-slot lane
// vectors of precomputed tile offsets, built once per mapping (planOf)
// and shared read-only by every warp of every kernel — so the type is
// frozen outside planFragment.
type fragPlan struct {
	slots int
	// idx[slot][lane] is the linear offset of the lane's element in the
	// operand's tile image (see internal/wmma): tight row-major for A, C
	// and D, transposed for B so that both multiplicands are K-contiguous.
	idx [][32]int32
	// major/minor[slot][lane] factor the element's memory offset under
	// the mapping's layout: offset = major·ld + minor for leading
	// dimension ld.
	major, minor [][32]int32
	// lines[i] is the image offset of element (major i, minor 0); minor j
	// of the line is at lines[i] + j·step, for j < lineLen. nil when some
	// tile element is in no lane: the image would have holes.
	lines         []int32
	step, lineLen int32
}

// plans holds the fragment plan of each interned mapping, by
// wmma.Mapping.Identity: a plan is a function of its mapping alone.
var plans [wmma.NumIdentities]struct {
	once sync.Once
	p    *fragPlan
}

// planOf returns the mapping's fragment plan, one per interned mapping
// (wmma.Map); a mapping Map did not intern gets a plan of its own.
func planOf(m *wmma.Mapping) *fragPlan {
	i := m.Identity()
	if i < 0 {
		return planFragment(m)
	}
	e := &plans[i]
	e.once.Do(func() { e.p = planFragment(m) })
	return e.p
}

// planFragment builds the fragment plan (planOf's fill function), or
// returns nil when the mapping's lanes disagree on fragment structure —
// the executor then keeps the per-lane path for this instruction.
func planFragment(m *wmma.Mapping) *fragPlan {
	v := m.SlotVecs()
	if !v.Uniform {
		return nil
	}
	rows, cols := m.Shape.Dims(m.Op)
	// The image offset of (r, c), and its step along each dimension.
	at, dr, dc := func(r, c int32) int32 { return r*int32(cols) + c }, int32(cols), int32(1)
	if m.Op == wmma.MatrixB {
		at, dr, dc = func(r, c int32) int32 { return c*int32(rows) + r }, 1, int32(rows)
	}
	p := &fragPlan{slots: v.Slots}
	p.idx = make([][32]int32, p.slots)
	p.major = make([][32]int32, p.slots)
	p.minor = make([][32]int32, p.slots)
	covered := make([]bool, rows*cols)
	for slot := 0; slot < p.slots; slot++ {
		for lane := 0; lane < 32; lane++ {
			r, c := int32(v.Row[slot][lane]), int32(v.Col[slot][lane])
			p.idx[slot][lane] = at(r, c)
			covered[at(r, c)] = true
			if m.Layout == tensor.RowMajor {
				p.major[slot][lane], p.minor[slot][lane] = r, c
			} else {
				p.major[slot][lane], p.minor[slot][lane] = c, r
			}
		}
	}
	if slices.Contains(covered, false) {
		return p
	}
	majors := rows
	p.step, p.lineLen = dc, int32(cols)
	if m.Layout != tensor.RowMajor {
		majors, p.step, p.lineLen = cols, dr, int32(rows)
	}
	for i := int32(0); i < int32(majors); i++ {
		if m.Layout == tensor.RowMajor {
			p.lines = append(p.lines, at(i, 0))
		} else {
			p.lines = append(p.lines, at(0, i))
		}
	}
	return p
}

// imageGroup is a fragment register group — the register list of a wmma
// operand, registers r0 … r0+slots−1 — that may be held as its tile image:
// across the kernel only wmma instructions touch its registers, all
// through mappings of one operand and shape that put the same elements in
// every lane's slots (the layout flag may differ: each load and store moves
// the image through its own shape's lines), and no other group overlaps
// it. The image is the group's first n register words, in
// the plan's element order, each the word the element's registers hold.
// Shared read-only by every warp, like the plan.
type imageGroup struct {
	bit  uint64 // the group's bit in Warp.imageForm
	r0   int32
	n    int32
	plan *fragPlan
}

// groupFragments finds the image groups of a decoded program and points
// every wmma operand that names one at it (DInstr.img); an operand that
// does not qualify stays nil and always takes the per-lane path.
func groupFragments(k *Kernel, prog []DInstr) {
	type group struct {
		regs []int32
		m    *wmma.Mapping // its first operand's
		ok   bool
	}
	var groups []*group
	owner := make([]*group, k.NumRegs) // the group a register belongs to
	touched := make([]bool, k.NumRegs) // read or written outside a fragment operand
	touch := func(regs ...int32) {
		for _, r := range regs {
			touched[r] = true
		}
	}
	for _, r := range k.ParamRegs {
		touch(int32(r.ID))
	}
	operands := make([][4]*group, len(prog))
	for i := range prog {
		d := &prog[i]
		if d.predID >= 0 {
			touch(d.predID)
		}
		var regs [4][]int32
		var maps [4]*wmma.Mapping
		read, wrote := d.srcs, d.dsts // what the instruction touches outside fragments
		switch d.Class {
		case DClassWmmaLoad:
			regs[0], maps[0], wrote = d.dsts, d.In.WMap, nil
		case DClassWmmaStore:
			if regs[0] = fragRegs(d.srcs[2:]); regs[0] != nil {
				maps[0], read = d.In.WMap, d.srcs[:2]
			}
		case DClassWmmaMMA:
			nA, nB := int(d.fragA), int(d.fragB)
			a, b, c := fragRegs(d.srcs[:nA]), fragRegs(d.srcs[nA:nA+nB]), fragRegs(d.srcs[nA+nB:])
			if a != nil && b != nil && c != nil {
				regs = [4][]int32{a, b, c, d.dsts}
				maps = [4]*wmma.Mapping{d.In.WMapA, d.In.WMapB, d.In.WMap, d.In.WMapD}
				read, wrote = nil, nil
			}
		}
		for _, s := range read {
			if s.kind == OperandReg {
				touch(s.reg)
			}
		}
		touch(wrote...)
		for op, rs := range regs {
			if len(rs) == 0 {
				continue
			}
			m, g := maps[op], owner[rs[0]]
			if g == nil || !slices.Equal(g.regs, rs) {
				g = &group{regs: rs, m: m, ok: m != nil && len(groups) < 64}
				groups = append(groups, g)
			}
			for j, r := range rs {
				if j > 0 && r != rs[j-1]+1 {
					g.ok = false // the image needs consecutive rows
				}
				if o := owner[r]; o != nil && o != g {
					o.ok, g.ok = false, false // partial overlap
				}
				owner[r] = g
			}
			if m == nil || g.m == nil || m.Op != g.m.Op || m.Shape != g.m.Shape ||
				!slices.EqualFunc(m.Lanes[:], g.m.Lanes[:], slices.Equal[[]wmma.Coord]) {
				g.ok = false // one lane→element mapping, whatever the layout flag
			}
			operands[i][op] = g
		}
		// D must not alias an operand the kernel reads while writing it.
		if o := operands[i]; o[3] != nil && (o[3] == o[0] || o[3] == o[1]) {
			o[3].ok = false
		}
	}
	images := make(map[*group]*imageGroup)
	for bit, g := range groups {
		for _, r := range g.regs {
			g.ok = g.ok && !touched[r]
		}
		if !g.ok {
			continue
		}
		if p := planOf(g.m); p != nil && p.lines != nil {
			images[g] = &imageGroup{bit: 1 << bit, r0: g.regs[0], n: int32(len(p.lines)) * p.lineLen, plan: p}
		}
	}
	for i := range prog {
		for op, g := range operands[i] {
			prog[i].img[op] = images[g]
		}
	}
}

// fragRegs returns the register numbers of fragment operands, or nil if
// any is not a register.
func fragRegs(ops []srcOp) []int32 {
	regs := make([]int32, len(ops))
	for i, o := range ops {
		if o.kind != OperandReg {
			return nil
		}
		regs[i] = o.reg
	}
	return regs
}

// image returns the group's tile image.
func (w *Warp) image(g *imageGroup) []uint64 { return w.regs[int(g.r0)*32:][:g.n] }

// inImage reports whether the group is held as its image.
func (w *Warp) inImage(g *imageGroup) bool { return g != nil && w.imageForm&g.bit != 0 }

// materialize puts an image-form group back into register form: every
// lane's fragment registers receive their elements' words, as the per-lane
// path needs them. A group already in register form is left alone.
func (w *Warp) materialize(g *imageGroup) {
	if !w.inImage(g) {
		return
	}
	w.mmaWords = grow(w.mmaWords, int(g.n))
	img := w.mmaWords
	copy(img, w.image(g))
	for s, idx := range g.plan.idx {
		r := w.regVec(int(g.r0) + s)
		for lane := range r {
			r[lane] = img[idx[lane]]
		}
	}
	w.imageForm &^= g.bit
}

// fragVec reports whether the instruction takes the batched fragment
// path: no guard predicate, fully populated warp. Callers additionally
// require the image groups (wmma.mma) or the access shape
// (wmma.load/store) to exist.
func (w *Warp) fragVec(d *DInstr) bool {
	return d.predID < 0 && w.nLanes == 32
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
// bytes apart — the one definition of "run" the access emission
// (fragPieces) cuts pieces from.
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
type fragShape struct {
	lo, hi uint64 // every element lies inside base+[lo,hi)
	// groups are the slot-aligned piece groups of the access stream: piece
	// k of every lane, the Result.Batch layout.
	groups []fragGroup
	// lines[i] is the offset of memory line i of plan, the instruction's
	// own: plan.lineLen elements, image elements plan.lines[i] + j·step.
	// nil with the plan's.
	lines []uint64
	plan  *fragPlan
	// alias is set when two tile elements share an address (ld 0, say): a
	// store then keeps the per-lane loop's write order.
	alias bool
}

// fragGroup is piece k of every lane: its width and the lanes' offsets.
type fragGroup struct {
	bits int32
	off  [32]uint64
}

// fragSpanLimit bounds a shape's offsets: 2^31 elements of leading
// dimension over 32 rows of 4 bytes stay under it, a negative one does not.
const fragSpanLimit = 1 << 40

// shapeFragment builds the access shape by running the per-execution
// definitions — fragLaneAddrs and fragPieces — once at base 0: both are
// translation-invariant in uint64 arithmetic (addresses are base + offset,
// pieces compare differences), so base+off is what they produce at any
// base. It returns nil — the executor then keeps the per-lane path —
// without a plan, when lanes disagree on piece structure (the slot
// alignment of the batch cannot hold), or when an offset leaves
// [0, fragSpanLimit), which a negative leading dimension does.
func shapeFragment(p *fragPlan, ld int, elemBytes uint64, elemBits int) *fragShape {
	if p == nil {
		return nil
	}
	sh := &fragShape{lo: fragSpanLimit}
	addrs := make([]uint64, p.slots)
	var pieces []fragPiece
	for lane := 0; lane < 32; lane++ {
		fragLaneAddrs(addrs, p, lane, ld, 0, elemBytes)
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
	var offs []uint64
	sh.plan = p
	for i := range p.lines {
		sh.lines = append(sh.lines, uint64(i*ld)*elemBytes)
		for j := range p.lineLen {
			offs = append(offs, sh.lines[i]+uint64(j)*elemBytes)
		}
	}
	slices.Sort(offs)
	sh.alias = len(slices.Compact(offs)) < len(offs)
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
// execution is value-free — the data between memory and the fragment's
// image. It reports false, having done nothing, for what the shape does
// not cover: no shape (a register stride, lanes that disagree on piece
// structure), a guard predicate or a partial warp, a span that fragSpace
// leaves to the per-lane path, and values the image
// cannot carry: a fragment that is no image group, a store of one held in
// registers, a store whose elements alias.
func (w *Warp) execFragShape(d *DInstr, res *Result, base uint64, store bool) bool {
	sh, g := d.wshape, d.img[0]
	if sh == nil || !w.fragVec(d) {
		return false
	}
	values := !w.valueFree(d)
	if values && (g == nil || store && (sh.alias || !w.inImage(g))) {
		return false
	}
	sp, sub, ok := w.fragSpace(d.In.Space, base+sh.lo, base+sh.hi)
	if !ok {
		return false
	}
	for gi := range sh.groups {
		pg := &sh.groups[gi]
		var wa *WarpAccess
		res.Batch, wa = appendBatchSlot(res.Batch)
		wa.Mask, wa.Bits, wa.Space, wa.Store = fullMask, pg.bits, sp, store
		for lane := range wa.Addr {
			wa.Addr[lane] = base + pg.off[lane]
		}
	}
	if values {
		w.moveImage(d, g, sp, base-sub, store)
	}
	return true
}

// moveImage moves a fragment's image between memory and the group's
// register rows, line by line through the resolved space, in which the
// base operand is offset origin: one Memory call or one window slice per
// line, the 2- and 4-byte element codecs spelled out. A load leaves the
// group in image form.
func (w *Warp) moveImage(d *DInstr, g *imageGroup, sp Space, origin uint64, store bool) {
	p := d.wshape.plan
	nb, n, step := int(d.membytes), int(p.lineLen), int(p.step)
	signExt := d.In.WMap.Elem == wmma.S8 || d.In.WMap.Elem == wmma.S4
	img := w.image(g)
	for i, off := range d.wshape.lines {
		a, e := origin+off, int(p.lines[i])
		buf := w.bulk[:n*nb]
		if sp == Shared {
			buf = w.Env.Shared[a : a+uint64(n*nb)]
		}
		if store {
			for j := 0; j < n; j, e = j+1, e+step {
				switch v := img[e]; nb {
				case 2:
					binary.LittleEndian.PutUint16(buf[2*j:], uint16(v))
				case 4:
					binary.LittleEndian.PutUint32(buf[4*j:], uint32(v))
				default:
					buf[j] = byte(v)
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
		switch nb {
		case 2:
			for j := 0; j < n; j, e = j+1, e+step {
				img[e] = uint64(binary.LittleEndian.Uint16(buf[2*j:]))
			}
		case 4:
			for j := 0; j < n; j, e = j+1, e+step {
				img[e] = uint64(binary.LittleEndian.Uint32(buf[4*j:]))
			}
		default:
			for j := 0; j < n; j, e = j+1, e+step {
				v := uint64(buf[j])
				if signExt {
					// Signed integer operands live in registers as s32 values.
					v = uint64(uint32(int32(int8(v))))
				}
				img[e] = v
			}
		}
	}
	if !store {
		w.imageForm |= g.bit
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

// execWmmaMMAImages runs wmma.mma on the operands' images and writes D's:
// the A and B words widen to the kernel's operand form (the binary32 image
// of a binary16 element, an integer clamped to its range) in one pass into
// the step scratch, and C and D are the groups' images themselves — the
// same image when the mma accumulates in place. The arithmetic is the
// kernel the per-lane path reaches through wmma.MMAInto, so the two paths
// cannot disagree.
func (w *Warp) execWmmaMMAImages(d *DInstr) error {
	cfg := d.In.WConfig
	a, b := w.image(d.img[0]), w.image(d.img[1])
	c, out := w.image(d.img[2]), w.image(d.img[3])
	var err error
	if cfg.AType.IsInt() {
		w.mmaInts = grow(w.mmaInts, len(a)+len(b))
		n := w.mmaInts
		lo, hi := wmma.IntRange(cfg.AType)
		for i, v := range a {
			n[i] = min(max(int32(uint32(v)), lo), hi)
		}
		for i, v := range b {
			n[len(a)+i] = min(max(int32(uint32(v)), lo), hi)
		}
		err = wmma.MMAIntImages(cfg, n[:len(a)], n[len(a):], c, out)
	} else {
		w.mmaFloats = grow(w.mmaFloats, len(a)+len(b))
		f := w.mmaFloats
		for i, v := range a {
			f[i] = h16(v).Float32()
		}
		for i, v := range b {
			f[len(a)+i] = h16(v).Float32()
		}
		err = wmma.MMAImages(cfg, f[:len(a)], f[len(a):], c, out)
	}
	if err != nil {
		return err
	}
	w.imageForm |= d.img[3].bit
	return nil
}
