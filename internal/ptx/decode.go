package ptx

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/fp16"
)

// The decoded-instruction cache. Interpreting an Instr re-classifies its
// operand kinds, register indices and (op, type) pair on every dynamic
// execution — per warp, per lane — which dominates SIMT GEMM simulation
// (the fig17 bottleneck). Decoding resolves all of that once per static
// instruction into a flat DInstr: operands become pre-resolved register
// indices or immediates, the guard predicate becomes a register index,
// branch targets become instruction indexes, and the ALU (op, type)
// switch chains collapse into an index into a dispatch table of
// specialized warp-wide executors. The decoded program is cached on the
// Kernel — one decode per kernel, shared by every warp of every launch,
// never per warp — and is immutable after construction, which makes the
// cache safe under the parallel experiment engine's worker pools.

// DClass is the coarse execution class of a decoded instruction. The
// timing simulator dispatches its issue/unit decisions on the class
// instead of re-switching on Opcode every scheduler visit.
type DClass uint8

const (
	DClassALU DClass = iota
	DClassSFU        // div/rem: issues on the special-function unit
	DClassLd
	DClassSt
	DClassBar
	DClassBra
	DClassExit
	DClassWmmaLoad
	DClassWmmaStore
	DClassWmmaMMA
)

// srcOp is a pre-resolved source operand: the Operand's discriminated
// union flattened so the hot register path is a single array index.
type srcOp struct {
	kind  OperandKind
	reg   int32
	sreg  SReg
	imm   uint64
	splat *[32]uint64 // imm in every lane, for srcVec (immediates only)
}

// DInstr is the decoded, execution-ready form of one Instr. In points
// back to the source instruction for the attributes execution does not
// need per lane (wmma mappings, timing configuration, diagnostics).
// Decoded programs are cached per kernel and shared by every warp and
// every concurrent simulator, so the type is frozen: after decodeInstr
// returns, nothing may write its fields (internal/experiments'
// TestConcurrentSimulatorsRace holds that under -race).
type DInstr struct {
	In    *Instr
	Class DClass

	alu    aluKind
	cmp    CmpOp  // comparison operator (setp)
	mask   uint64 // destination truncation mask for integer/bitwise ops
	cvtFn  func(uint64) uint64
	dstID  int32 // first destination register, -1 if none
	predID int32 // guard predicate register, -1 = unguarded
	pneg   bool
	// skip is the instruction's skip class (see sliceKernel): the warps
	// whose mask (Warp.skip) shares a bit leave its values alone.
	skip uint8
	srcs []srcOp
	dsts []int32 // all destination registers, in Instr.Dst order
	wb   []int32 // dsts in the kernel's numbering, for the scoreboard (DstRegs)
	sb   []int32 // deduplicated scoreboard registers
	// The packed scoreboard set: sbMask holds the registers of sb with
	// IDs < 64 as a bitmask, sbWide the (rare) spill of larger IDs. The
	// timing model's hazard screen — and the issue-time hazard-clear
	// computation that parks blocked warps straight into the wake heap —
	// walk the mask's set bits instead of ranging the slice.
	sbMask uint64
	sbWide []int32
	target int32 // pre-resolved branch target index, -1 = unresolved

	membytes int32 // ld/st access bytes (wmma: fragment element bytes)
	words    int32 // ld/st 32-bit word count
	fragA    int32 // wmma.mma A-fragment length
	fragB    int32 // wmma.mma B-fragment length

	// The batched wmma path (see wmma_batch.go): wshape is the access shape
	// of a wmma.load/store with an immediate leading dimension, nil for a
	// register stride or an untamed one; img names the image groups of the
	// fragment operands — the loaded or stored one, or wmma.mma's A, B, C
	// and D — nil for an operand that cannot be held as its image.
	wshape *fragShape
	img    [4]*imageGroup

	// space is the ld/st static state space (Generic resolves per
	// execution).
	space Space
}

// ScoreboardRegs returns the deduplicated register IDs the instruction
// reads or writes, precomputed at decode time for the timing model's
// RAW/WAW hazard check.
func (d *DInstr) ScoreboardRegs() []int32 { return d.sb }

// ScoreboardSet returns the packed form of ScoreboardRegs: a bitmask of
// the register IDs below 64 plus the spill slice of larger IDs (nil for
// the kernels this repository generates, which stay under 64 virtual
// registers). Hazard screens iterate the mask's set bits — one
// TrailingZeros per register, no slice header chase.
func (d *DInstr) ScoreboardSet() (mask uint64, wide []int32) { return d.sbMask, d.sbWide }

// DstRegs returns the destination register IDs, in declaration order.
func (d *DInstr) DstRegs() []int32 { return d.wb }

// decodeKernel builds the decoded program of a kernel and reports whether
// the kernel is timing-separable and whether its TimingOnly warps may step
// ahead, with the TimingOnly register layout of a separable one (see
// sliceKernel).
func decodeKernel(k *Kernel) (prog []DInstr, separable, ahead bool, rows []int32, nrows int) {
	prog = make([]DInstr, len(k.Instrs))
	shapes := make(map[shapeKey]*fragShape)
	for i := range k.Instrs {
		decodeInstr(k, &k.Instrs[i], &prog[i], shapes)
	}
	groupFragments(k, prog)
	separable, ahead, rows, nrows = sliceKernel(k, prog)
	return prog, separable, ahead, rows, nrows
}

// Skip classes: the bits of DInstr.skip and of Warp.skip.
const (
	// skipTiming (dataOnly): nothing timing reads can see the values, so a
	// TimingOnly warp skips them.
	skipTiming uint8 = 1 << iota
	// skipDead: nothing a launch returns can see them either, so every warp
	// skips them.
	skipDead
)

// sliceKernel marks the skip classes (DESIGN.md "Value-free timing") with
// one backward liveness dataflow over the program, solved twice. Before
// every instruction it finds the registers whose value there can still be
// seen. Seeds are each instruction's own reads of the kind the solve looks
// for, plus its guard predicate; an instruction with a destination in the
// set after it pulls all of its sources in, and an unguarded ALU
// instruction kills its destination (it overwrites every populated lane,
// so no earlier value of that register survives it). Sets only grow, so
// iterating to a fixed point terminates.
//
// The control solve seeds controlOperands: what an address, a guard, a
// branch vote or a fault depends on. The kernel is timing-separable iff no
// ld or wmma.load writes a register that is in the set after it: every
// control-plane value is then a function of parameters, special registers
// and immediates alone, so a run that never computes or moves any other
// value takes the same branches, generates the same addresses and raises
// the same faults. Only then are instructions marked skipTiming — no
// destination in the set after them, executor unable to fail.
//
// The observable solve seeds storeOperands: the control reads plus the
// data a st or wmma.store writes, since global memory is what a launch
// returns and shared memory reaches it only through a load. An instruction
// with no destination in that set after it, and an executor unable to
// fail, is skipDead, separable kernel or not; its seeds contain the
// control solve's, so on a separable kernel it is skipTiming as well.
//
// On a separable kernel it also lays out the register file of the warps
// that honour skipTiming (timingRows), and decides whether such a warp may
// step ahead of the timing model: only if nothing it reads is %clock — the
// sources of every instruction it executes, the control operands of every
// one it skips — since a %clock value that reaches control depends on when
// the warp issues.
func sliceKernel(k *Kernel, prog []DInstr) (separable, ahead bool, rows []int32, nrows int) {
	n, words := len(prog), (k.NumRegs+63)/64
	in := make([]uint64, (n+1)*words) // row i: the set before instruction i; row n: empty
	out, cur := make([]uint64, words), make([]uint64, words)
	add := func(set []uint64, ops []srcOp) {
		for _, o := range ops {
			if o.kind == OperandReg {
				set[o.reg>>6] |= 1 << (o.reg & 63)
			}
		}
	}
	// flow leaves the set after instruction i — the union over its
	// successors — in out and reports whether i writes a register in it.
	flow := func(i int) (hit bool) {
		d := &prog[i]
		clear(out)
		if d.Class != DClassExit && d.Class != DClassBra || d.predID >= 0 {
			copy(out, in[(i+1)*words:])
		}
		if d.Class == DClassBra && d.target >= 0 {
			for j, v := range in[int(d.target)*words:][:words] {
				out[j] |= v
			}
		}
		for _, r := range d.dsts {
			hit = hit || out[r>>6]>>(r&63)&1 != 0
		}
		return hit
	}
	solve := func(seeds func(*DInstr) int) {
		clear(in)
		for changed := true; changed; {
			changed = false
			for i := n - 1; i >= 0; i-- {
				d := &prog[i]
				hit := flow(i)
				copy(cur, out)
				if hit {
					if d.predID < 0 && (d.Class == DClassALU || d.Class == DClassSFU) {
						cur[d.dstID>>6] &^= 1 << (d.dstID & 63)
					}
					add(cur, d.srcs)
				}
				add(cur, d.srcs[:seeds(d)])
				if d.predID >= 0 {
					cur[d.predID>>6] |= 1 << (d.predID & 63)
				}
				if row := in[i*words:][:words]; !slices.Equal(row, cur) {
					copy(row, cur)
					changed = true
				}
			}
		}
	}
	solve(controlOperands)
	separable = true
	for i := range prog {
		if d := &prog[i]; (d.Class == DClassLd || d.Class == DClassWmmaLoad) && flow(i) {
			separable = false
		}
	}
	for i := range prog {
		if separable && !flow(i) && infallible(&prog[i]) {
			prog[i].skip = skipTiming
		}
	}
	if separable {
		rows, nrows = timingRows(k, prog, in, flow, out)
		ahead = true
		for i := range prog {
			d := &prog[i]
			read := d.srcs
			if d.skip&skipTiming != 0 {
				read = d.srcs[:controlOperands(d)]
			}
			for _, o := range read {
				ahead = ahead && (o.kind != OperandSReg || o.sreg != SRegClock)
			}
		}
	}
	solve(storeOperands)
	for i := range prog {
		d := &prog[i]
		if d.Class != DClassSt && d.Class != DClassWmmaStore && !flow(i) && infallible(d) {
			d.skip |= skipDead
		}
	}
	return separable, ahead, rows, nrows
}

// infallible reports whether the instruction's executor cannot fail on
// whatever values its sources hold, so that skipping it loses no fault.
func infallible(d *DInstr) bool {
	switch d.Class {
	case DClassALU, DClassSFU:
		// aluGeneric's errors are static except division by zero, so it
		// always executes: a garbage operand cannot make it fail.
		return d.alu != aluGeneric
	case DClassLd, DClassSt, DClassWmmaLoad, DClassWmmaStore:
		return true
	case DClassWmmaMMA:
		// The config check is the only error either executor has.
		return d.In.WConfig.Validate() == nil
	}
	return false
}

// storeOperands is how many leading source operands the instruction reads
// for something a launch returns: every operand of a st or wmma.store, the
// control reads of anything else.
func storeOperands(d *DInstr) int {
	if d.Class == DClassSt || d.Class == DClassWmmaStore {
		return len(d.srcs)
	}
	return controlOperands(d)
}

// controlOperands is how many leading source operands the instruction
// reads for control: the address of ld/st, the base and stride of
// wmma.load/store, and both operands of an integer div/rem, the one
// executor that fails on a value.
func controlOperands(d *DInstr) int {
	n := 0
	switch d.Class {
	case DClassLd, DClassSt:
		n = 1
	case DClassWmmaLoad, DClassWmmaStore:
		n = 2
	case DClassSFU:
		if t := d.In.Type; t == U32 || t == S32 || t == U64 {
			n = 2
		}
	}
	return min(n, len(d.srcs))
}

// timingRows lays out the register file of a warp that honours skipTiming,
// from the control solve's sets (live, one row per program point) and its
// successor union (flow, out). Such a warp needs the value of a control
// register only — the operands of an integer div or rem are among them —
// and only while the register is live: two control registers share a row
// unless they are live at the same point or an instruction the warp
// executes writes one while the other is live after it. Greedy colouring
// gives the rows: the GEMM kernels' 29–36 control registers fit in 13–17.
// Every other register gets -1, the sink row packTiming appends. A dense row per control register would do too; the colouring
// keeps simt_gemm's peak RSS 6 % lower, the margin to the benchmark's
// bound.
func timingRows(k *Kernel, prog []DInstr, live []uint64, flow func(int) bool, out []uint64) (rows []int32, n int) {
	words := len(out)
	each := func(set []uint64, f func(r int)) {
		for w, v := range set {
			for ; v != 0; v &= v - 1 {
				f(w*64 + bits.TrailingZeros64(v))
			}
		}
	}
	adj := make([]uint64, k.NumRegs*words) // row r: the registers r interferes with
	join := func(r int, set []uint64) {
		for w, v := range set {
			adj[r*words+w] |= v
		}
	}
	control := make([]uint64, words)
	for at := 0; at < len(live); at += words {
		set := live[at:][:words]
		each(set, func(r int) { join(r, set) })
		for w, v := range set {
			control[w] |= v
		}
	}
	isControl := func(r int32) bool { return control[r>>6]>>(r&63)&1 != 0 }
	for i := range prog {
		if prog[i].skip&skipTiming != 0 {
			continue
		}
		flow(i)
		for _, d := range prog[i].dsts {
			if isControl(d) {
				join(int(d), out)
				each(out, func(r int) { adj[r*words+int(d>>6)] |= 1 << (d & 63) })
			}
		}
	}
	rows = make([]int32, k.NumRegs)
	taken := make([]bool, k.NumRegs+1)
	for r := range rows {
		rows[r] = -1
		if !isControl(int32(r)) {
			continue
		}
		clear(taken)
		each(adj[r*words:][:words], func(x int) {
			if x != r && rows[x] >= 0 {
				taken[rows[x]] = true
			}
		})
		c := 0
		for taken[c] {
			c++
		}
		rows[r] = int32(c)
		n = max(n, c+1)
	}
	return rows, n
}

// packTiming copies a separable kernel's decoded program for the warps that
// honour skipTiming, renumbered onto the rows timingRows laid out plus one
// sink row that every other register shares: n rows in all. Such a warp
// reads a data register only in an instruction it must execute for its
// fault, and those — the interpreted ALU ops with their static errors, an
// invalid wmma.mma config — fail or not whatever the operands hold (div and
// rem keep their operands' values), so what the sink holds is never seen.
// The operands executors read, the Instr-level ones of the per-lane paths
// included (on copies the copied instructions point at), are renumbered;
// the scoreboard set and DstRegs keep the kernel's numbering, so hazards
// are the program's.
func packTiming(k *Kernel, prog []DInstr, rows []int32, n int) (timing []DInstr, params []Reg, total int) {
	perm := make([]int32, k.NumRegs)
	total = n
	for r, row := range rows {
		perm[r] = row
		if row < 0 {
			perm[r], total = int32(n), n+1
		}
	}
	re := func(r Reg) Reg { return Reg{ID: int(perm[r.ID])} }
	timing = slices.Clone(prog)
	ins := make([]Instr, len(prog))
	for i := range timing {
		d, in := &timing[i], &ins[i]
		*in = *d.In
		in.Dst = make([]Reg, len(d.In.Dst))
		for j, r := range d.In.Dst {
			in.Dst[j] = re(r)
		}
		in.Src = slices.Clone(d.In.Src)
		for j := range in.Src {
			if in.Src[j].Kind == OperandReg {
				in.Src[j].Reg = re(in.Src[j].Reg)
			}
		}
		if in.Pred != nil {
			p := re(*in.Pred)
			in.Pred = &p
		}
		d.In = in
		d.srcs = slices.Clone(d.srcs)
		for j := range d.srcs {
			if d.srcs[j].kind == OperandReg {
				d.srcs[j].reg = perm[d.srcs[j].reg]
			}
		}
		d.dsts = make([]int32, len(in.Dst))
		for j, r := range in.Dst {
			d.dsts[j] = int32(r.ID)
		}
		if d.dstID >= 0 {
			d.dstID = perm[d.dstID]
		}
		if d.predID >= 0 {
			d.predID = perm[d.predID]
		}
	}
	for _, r := range k.ParamRegs {
		params = append(params, re(r))
	}
	return timing, params, total
}

// shapeKey is what a fragment access shape is a function of.
type shapeKey struct {
	plan      *fragPlan
	ld        int
	elemBytes uint64
}

// decodeInstr populates one decoded instruction in place; with sliceKernel
// and packTiming, it is the only code that writes a DInstr. shapes holds
// the access shapes the kernel's wmma.load/store instructions share.
func decodeInstr(k *Kernel, in *Instr, d *DInstr, shapes map[shapeKey]*fragShape) {
	d.In = in
	d.Class = classOf(in.Op)
	d.cmp = in.Cmp
	d.dstID, d.predID, d.target = -1, -1, -1
	if len(in.Dst) > 0 {
		d.dstID = int32(in.Dst[0].ID)
	}
	if in.Pred != nil {
		d.predID = int32(in.Pred.ID)
		d.pneg = in.PNeg
	}
	d.srcs = make([]srcOp, len(in.Src))
	for i, o := range in.Src {
		d.srcs[i] = srcOp{kind: o.Kind, reg: int32(o.Reg.ID), sreg: o.SReg, imm: o.Imm}
		if o.Kind == OperandImm {
			splat := new([32]uint64)
			for lane := range splat {
				splat[lane] = o.Imm
			}
			d.srcs[i].splat = splat
		}
	}
	d.dsts = make([]int32, len(in.Dst))
	for i, r := range in.Dst {
		d.dsts[i] = int32(r.ID)
	}
	d.wb = d.dsts
	d.sb = appendScoreboardRegs(nil, in)
	for _, id := range d.sb {
		if id < 64 {
			d.sbMask |= 1 << uint(id)
		} else {
			d.sbWide = append(d.sbWide, id)
		}
	}

	switch in.Op {
	case OpBra:
		if t, ok := k.Labels[in.Target]; ok {
			d.target = int32(t)
		}
	case OpLd, OpSt:
		d.membytes = int32(in.Width / 8)
		w := int32(in.Width / 32)
		if w == 0 {
			w = 1
		}
		d.words = w
		d.space = in.Space
	case OpWmmaLoad, OpWmmaStore:
		d.membytes = int32(cuda4BitBytes(in.WMap.Elem))
		if ld := in.Src[1]; ld.Kind == OperandImm {
			key := shapeKey{planOf(in.WMap), int(ld.Imm), uint64(d.membytes)}
			sh, ok := shapes[key]
			if !ok {
				sh = shapeFragment(key.plan, key.ld, key.elemBytes, in.WMap.Elem.Bits())
				shapes[key] = sh
			}
			d.wshape = sh
		}
	case OpWmmaMMA:
		d.fragA = int32(in.WMapA.FragmentLen())
		d.fragB = int32(in.WMapB.FragmentLen())
	}

	if d.Class == DClassALU || d.Class == DClassSFU {
		d.alu, d.mask, d.cvtFn = aluKindFor(in)
	}
}

func classOf(op Opcode) DClass {
	switch op {
	case OpLd:
		return DClassLd
	case OpSt:
		return DClassSt
	case OpBar:
		return DClassBar
	case OpBra:
		return DClassBra
	case OpExit:
		return DClassExit
	case OpWmmaLoad:
		return DClassWmmaLoad
	case OpWmmaStore:
		return DClassWmmaStore
	case OpWmmaMMA:
		return DClassWmmaMMA
	case OpDiv, OpRem:
		return DClassSFU
	default:
		return DClassALU
	}
}

// aluKind indexes the dispatch table of specialized warp-wide ALU
// executors. aluGeneric falls back to the per-lane interpreted path.
type aluKind uint8

const (
	aluGeneric aluKind = iota
	aluMov
	aluAddU32
	aluAddU64
	aluAddS32
	aluAddF32
	aluSubU32
	aluSubU64
	aluSubS32
	aluSubF32
	aluMulU32
	aluMulU64
	aluMulS32
	aluMulF32
	aluMulWide
	aluMadU32
	aluMadS32
	aluMadU64
	aluMadF32
	aluMadF16X2
	aluBitAnd
	aluBitOr
	aluBitXor
	aluShl
	aluShrU
	aluShrS32
	aluSetpU32
	aluSetpS32
	aluSetpU64
	aluSetpF32
	aluSelp
	aluCvt
	nALUKinds
)

// aluKindFor classifies an ALU instruction once, at decode time. It
// returns the dispatch index plus the precomputed truncation mask and
// conversion function the specialized executors need.
func aluKindFor(in *Instr) (aluKind, uint64, func(uint64) uint64) {
	mask := maskOf(in.Type)
	switch in.Op {
	case OpMov:
		if in.Type != Pred {
			return aluMov, mask, nil
		}
	case OpAdd:
		switch in.Type {
		case U32:
			return aluAddU32, mask, nil
		case U64:
			return aluAddU64, mask, nil
		case S32:
			return aluAddS32, mask, nil
		case F32:
			return aluAddF32, mask, nil
		}
	case OpSub:
		switch in.Type {
		case U32:
			return aluSubU32, mask, nil
		case U64:
			return aluSubU64, mask, nil
		case S32:
			return aluSubS32, mask, nil
		case F32:
			return aluSubF32, mask, nil
		}
	case OpMul:
		switch in.Type {
		case U32:
			return aluMulU32, mask, nil
		case U64:
			return aluMulU64, mask, nil
		case S32:
			return aluMulS32, mask, nil
		case F32:
			return aluMulF32, mask, nil
		}
	case OpMulWide:
		return aluMulWide, mask, nil
	case OpMad:
		switch in.Type {
		case U32:
			return aluMadU32, mask, nil
		case S32:
			return aluMadS32, mask, nil
		case U64:
			return aluMadU64, mask, nil
		case F32:
			return aluMadF32, mask, nil
		case F16X2:
			return aluMadF16X2, mask, nil
		}
	case OpAnd:
		if in.Type != Pred {
			return aluBitAnd, mask, nil
		}
	case OpOr:
		if in.Type != Pred {
			return aluBitOr, mask, nil
		}
	case OpXor:
		if in.Type != Pred {
			return aluBitXor, mask, nil
		}
	case OpShl:
		if in.Type != Pred {
			return aluShl, mask, nil
		}
	case OpShr:
		if in.Type == S32 {
			return aluShrS32, mask, nil
		}
		if in.Type != Pred {
			return aluShrU, mask, nil
		}
	case OpSetp:
		switch in.Type {
		case U32:
			return aluSetpU32, mask, nil
		case S32:
			return aluSetpS32, mask, nil
		case U64:
			return aluSetpU64, mask, nil
		case F32:
			return aluSetpF32, mask, nil
		}
	case OpSelp:
		if in.Type != Pred {
			return aluSelp, mask, nil
		}
	case OpCvt:
		if fn := cvtFnFor(in.Type, in.SrcType); fn != nil {
			return aluCvt, mask, fn
		}
	}
	return aluGeneric, mask, nil
}

// maskOf returns the destination truncation mask of a type; Pred has no
// plain mask (it normalizes to 0/1) and decodes to the generic path.
func maskOf(t Type) uint64 {
	switch t.Bits() {
	case 16:
		return 0xffff
	case 32:
		return 0xffffffff
	default:
		return ^uint64(0)
	}
}

// cvtFnFor resolves the conversion pair of a cvt to a direct function,
// mirroring convert's supported cases; nil falls back to the generic path
// (which also surfaces unsupported-pair errors at execution time).
func cvtFnFor(dst, src Type) func(uint64) uint64 {
	switch {
	case dst == src:
		m := maskOf(dst)
		if dst == Pred {
			return nil
		}
		return func(v uint64) uint64 { return v & m }
	case dst == U64 && src == U32:
		return func(v uint64) uint64 { return v & 0xffffffff }
	case dst == U64 && src == S32:
		return func(v uint64) uint64 { return uint64(int64(int32(uint32(v)))) }
	case (dst == U32 || dst == S32) && src == U64,
		dst == U32 && src == S32, dst == S32 && src == U32:
		return func(v uint64) uint64 { return v & 0xffffffff }
	case dst == F32 && src == F16:
		return func(v uint64) uint64 { return bitsF32(h16(v).Float32()) }
	case dst == F16 && src == F32:
		return func(v uint64) uint64 { return bitsH16(fp16.FromFloat32(f32bits(v))) }
	case dst == F32 && src == S32:
		return func(v uint64) uint64 { return bitsF32(float32(int32(uint32(v)))) }
	case dst == F32 && src == U32:
		return func(v uint64) uint64 { return bitsF32(float32(uint32(v))) }
	case (dst == U32 || dst == S32) && src == F32:
		return func(v uint64) uint64 { return uint64(uint32(int32(f32bits(v)))) }
	case dst == F16 && src == S32:
		return func(v uint64) uint64 { return bitsH16(fp16.FromFloat64(float64(int32(uint32(v))))) }
	case dst == F16 && src == U32:
		return func(v uint64) uint64 { return bitsH16(fp16.FromFloat64(float64(uint32(v)))) }
	}
	return nil
}

// guard resolves the instruction's guard to a lane mask: the populated
// lanes whose predicate (if any) enables them. Evaluating it once per
// instruction, before any lane writes, equals testing each lane in turn:
// a lane's guard reads only that lane's own predicate register.
func (d *DInstr) guard(w *Warp) uint32 {
	if d.predID < 0 {
		return w.active
	}
	var on, neg uint32
	if d.pneg {
		neg = 1
	}
	for lane, p := range w.regVec(int(d.predID)) {
		var b uint32
		if p != 0 {
			b = 1
		}
		on |= (b ^ neg) << lane
	}
	return on & w.active
}

// srcVec returns the i-th source operand as a 32-lane vector: the
// register's own vector, the immediate's decode-time splat, or — for a
// special register — its per-lane values computed into the warp's i-th
// scratch vector. Every operand being a vector is what lets the
// warp-wide executors run one loop shape whatever the operand kinds.
func (d *DInstr) srcVec(w *Warp, i int) *[32]uint64 {
	s := &d.srcs[i]
	switch s.kind {
	case OperandReg:
		return w.regVec(int(s.reg))
	case OperandImm:
		return s.splat
	}
	v := &w.vecs[i]
	for lane := range v {
		v[lane] = w.sreg(lane, s.sreg)
	}
	return v
}

// aluTable is the decoded ALU dispatch: one specialized warp-wide
// executor per (op, type) pair the generated kernels use. Entries left
// nil route through dALUGeneric (aluKindFor never returns them).
var aluTable = [nALUKinds]func(*Warp, *DInstr) error{
	aluGeneric: dALUGeneric,
	aluMov:     dMov,
	aluAddU32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return (x + y) & 0xffffffff })
		return nil
	},
	aluAddU64: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return x + y })
		return nil
	},
	aluAddS32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 {
			return uint64(uint32(int32(uint32(x)) + int32(uint32(y))))
		})
		return nil
	},
	aluAddF32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return bitsF32(f32bits(x) + f32bits(y)) })
		return nil
	},
	aluSubU32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return (x - y) & 0xffffffff })
		return nil
	},
	aluSubU64: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return x - y })
		return nil
	},
	aluSubS32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 {
			return uint64(uint32(int32(uint32(x)) - int32(uint32(y))))
		})
		return nil
	},
	aluSubF32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return bitsF32(f32bits(x) - f32bits(y)) })
		return nil
	},
	aluMulU32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return ((x & 0xffffffff) * (y & 0xffffffff)) & 0xffffffff })
		return nil
	},
	aluMulU64: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return x * y })
		return nil
	},
	aluMulS32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 {
			return uint64(uint32(int32(uint32(x)) * int32(uint32(y))))
		})
		return nil
	},
	aluMulF32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return bitsF32(f32bits(x) * f32bits(y)) })
		return nil
	},
	aluMulWide: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 { return uint64(uint32(x)) * uint64(uint32(y)) })
		return nil
	},
	aluMadU32:   dMadU32,
	aluMadS32:   dMadS32,
	aluMadU64:   dMadU64,
	aluMadF32:   dMadF32,
	aluMadF16X2: dMadF16X2,
	aluBitAnd: func(w *Warp, d *DInstr) error {
		m := d.mask
		dBin(w, d, func(x, y uint64) uint64 { return (x & y) & m })
		return nil
	},
	aluBitOr: func(w *Warp, d *DInstr) error {
		m := d.mask
		dBin(w, d, func(x, y uint64) uint64 { return (x | y) & m })
		return nil
	},
	aluBitXor: func(w *Warp, d *DInstr) error {
		m := d.mask
		dBin(w, d, func(x, y uint64) uint64 { return (x ^ y) & m })
		return nil
	},
	aluShl: func(w *Warp, d *DInstr) error {
		m := d.mask
		dBin(w, d, func(x, y uint64) uint64 { return (x << (y & 63)) & m })
		return nil
	},
	aluShrU: func(w *Warp, d *DInstr) error {
		m := d.mask
		dBin(w, d, func(x, y uint64) uint64 { return (x >> (y & 63)) & m })
		return nil
	},
	aluShrS32: func(w *Warp, d *DInstr) error {
		dBin(w, d, func(x, y uint64) uint64 {
			return uint64(uint32(int32(uint32(x)) >> (y & 31)))
		})
		return nil
	},
	aluSetpU32: func(w *Warp, d *DInstr) error {
		dSetp(w, d, func(x, y uint64) int { return cmpOrd(x&0xffffffff, y&0xffffffff) })
		return nil
	},
	aluSetpS32: func(w *Warp, d *DInstr) error {
		dSetp(w, d, func(x, y uint64) int { return cmpOrd(int32(uint32(x)), int32(uint32(y))) })
		return nil
	},
	aluSetpU64: func(w *Warp, d *DInstr) error {
		dSetp(w, d, cmpOrd[uint64])
		return nil
	},
	aluSetpF32: dSetpF32,
	aluSelp:    dSelp,
	aluCvt:     dCvt,
}

// dALUGeneric is the interpreted fallback: the per-lane execALU path for
// opcode/type pairs without a specialized executor.
func dALUGeneric(w *Warp, d *DInstr) error {
	for on := d.guard(w); on != 0; on &= on - 1 {
		if err := w.execALU(bits.TrailingZeros32(on), d.In); err != nil {
			return err
		}
	}
	return nil
}

// The warp-wide executors below share one shape: take the destination
// and source vectors, resolve the guard to a lane mask, then either run
// all 32 lanes in a tight loop (fully populated, unguarded — the common
// case) or walk the mask's set bits. Indexing *[32]uint64 by a lane the
// compiler knows is below 32 needs no bounds checks.

func dMov(w *Warp, d *DInstr) error {
	dst, x, m := w.regVec(int(d.dstID)), d.srcVec(w, 0), d.mask
	for on := d.guard(w); on != 0; on &= on - 1 {
		lane := bits.TrailingZeros32(on) & 31
		dst[lane] = x[lane] & m
	}
	return nil
}

// dBin runs a warp-wide two-source ALU op; f replicates the interpreted
// arithmetic exactly (including destination truncation).
func dBin(w *Warp, d *DInstr, f func(x, y uint64) uint64) {
	dst, x, y := w.regVec(int(d.dstID)), d.srcVec(w, 0), d.srcVec(w, 1)
	on := d.guard(w)
	if on == fullMask {
		for lane := range dst {
			dst[lane] = f(x[lane], y[lane])
		}
		return
	}
	for ; on != 0; on &= on - 1 {
		lane := bits.TrailingZeros32(on) & 31
		dst[lane] = f(x[lane], y[lane])
	}
}

// dTern runs a warp-wide three-source ALU op; f replicates the
// interpreted arithmetic exactly.
func dTern(w *Warp, d *DInstr, f func(x, y, z uint64) uint64) {
	dst, x, y, z := w.regVec(int(d.dstID)), d.srcVec(w, 0), d.srcVec(w, 1), d.srcVec(w, 2)
	on := d.guard(w)
	if on == fullMask {
		for lane := range dst {
			dst[lane] = f(x[lane], y[lane], z[lane])
		}
		return
	}
	for ; on != 0; on &= on - 1 {
		lane := bits.TrailingZeros32(on) & 31
		dst[lane] = f(x[lane], y[lane], z[lane])
	}
}

func dMadU32(w *Warp, d *DInstr) error {
	dTern(w, d, func(x, y, z uint64) uint64 { return (x*y + z) & 0xffffffff })
	return nil
}

func dMadS32(w *Warp, d *DInstr) error {
	dTern(w, d, func(x, y, z uint64) uint64 {
		return uint64(uint32(int32(uint32(x))*int32(uint32(y)) + int32(uint32(z))))
	})
	return nil
}

func dMadU64(w *Warp, d *DInstr) error {
	dTern(w, d, func(x, y, z uint64) uint64 { return x*y + z })
	return nil
}

// dMadF32 — the inner-loop instruction of the FP32 SIMT GEMM — is dTern
// with the arithmetic written into the loops: the full-warp loop spells
// fmaF32 out, so its fast half inlines with no call per lane.
func dMadF32(w *Warp, d *DInstr) error {
	dst, x, y, z := w.regVec(int(d.dstID)), d.srcVec(w, 0), d.srcVec(w, 1), d.srcVec(w, 2)
	on := d.guard(w)
	if on == fullMask {
		for lane := range dst {
			r, once := fmaF32Fast(x[lane], y[lane], z[lane])
			if !once {
				r = fmaF32Odd(x[lane], y[lane], z[lane])
			}
			dst[lane] = r
		}
		return nil
	}
	for ; on != 0; on &= on - 1 {
		lane := bits.TrailingZeros32(on) & 31
		dst[lane] = fmaF32(x[lane], y[lane], z[lane])
	}
	return nil
}

// fmaF32 is one lane's fma.rn.f32, the only binary32 multiply-add in the
// package: both executors call it (dMadF32's full-warp loop in its two
// halves).
func fmaF32(x, y, z uint64) uint64 {
	if r, once := fmaF32Fast(x, y, z); once {
		return r
	}
	return fmaF32Odd(x, y, z)
}

// fmaF32Fast is fma.rn.f32 through binary64, and whether that is the
// answer. The binary64 product of two binary32 images is exact (48
// significand bits, exponent in range), so the binary64 sum is the exact
// x·y+z rounded to 53 bits — math.FMA's value whether or not the compiler
// fuses the two, without its feature check in the loop. The conversion
// then rounds again to 24 bits, and the two roundings differ from the
// single one PTX specifies only when the first lands exactly on a
// midpoint between two binary32 values — low 29 significand bits
// 0x10000000, the overflow threshold included — or the result is
// binary32-subnormal, where the midpoints sit elsewhere. Those (nothing a
// GEMM on zeros, or on the bench's multiples of 1/32, ever produces)
// report false and go to fmaF32Odd.
func fmaF32Fast(x, y, z uint64) (r uint64, once bool) {
	f := float64(f32bits(x))*float64(f32bits(y)) + float64(f32bits(z))
	const minNormal32 = (1023 - 126) << 52 // the binary64 image of 2^-126
	abs := math.Float64bits(f) &^ (1 << 63)
	return bitsF32(float32(f)), abs&(1<<29-1) != 1<<28 && abs-1 >= minNormal32-1
}

// fmaF32Odd is fma.rn.f32 for the results fmaF32Fast declines: it rounds
// the binary64 sum to odd — when the sum was inexact and its last bit is
// even, one ulp towards the exact value — so the conversion to binary32
// (normal or subnormal: at least two bits narrower) rounds as if from the
// exact value. Knuth's TwoSum recovers the sum's residual exactly; it is
// NaN when the sum is not finite, which leaves the sum alone.
func fmaF32Odd(x, y, z uint64) uint64 {
	p, zf := float64(f32bits(x))*float64(f32bits(y)), float64(f32bits(z))
	r := p + zf
	zv := r - p // the part of r that came from z
	e := (p - (r - zv)) + (zf - zv)
	if b := math.Float64bits(r); e == e && e != 0 && b&1 == 0 {
		if (e > 0) == (r > 0) {
			b++
		} else {
			b--
		}
		r = math.Float64frombits(b)
	}
	return bitsF32(float32(r))
}

// dMadF16X2 — the inner-loop instruction of the packed-half SIMT GEMM —
// has dMadF32's shape: direct loops over the register vectors around one
// lane's arithmetic.
func dMadF16X2(w *Warp, d *DInstr) error {
	dst, x, y, z := w.regVec(int(d.dstID)), d.srcVec(w, 0), d.srcVec(w, 1), d.srcVec(w, 2)
	on := d.guard(w)
	if on == fullMask {
		for lane := range dst {
			dst[lane] = fmaF16X2(x[lane], y[lane], z[lane])
		}
		return nil
	}
	for ; on != 0; on &= on - 1 {
		lane := bits.TrailingZeros32(on) & 31
		dst[lane] = fmaF16X2(x[lane], y[lane], z[lane])
	}
	return nil
}

// fmaF16X2 is one lane's fma.rn.f16x2, the only packed-half multiply-add
// in the package: both executors call it. Each half is fp16.FMA's
// expression — the exact product plus the addend in binary64, rounded to
// binary16 once — with the rounding inlined: the product of two binary16
// values has at most 22 significand bits and an exponent binary32 holds,
// so the binary32 multiply of the table images is already exact (and
// whether the compiler fuses it with the add cannot matter); both halves
// round through fp16.RoundNormal64, and one branch sends the pair to
// fp16.FromFloat64 when either result is subnormal, overflows or is NaN.
// Every non-NaN result is bit-equal to fp16.FMA's; which payload a sum of
// two NaNs keeps follows the operand order the compiler picks for a
// commutative add, which the repo does not pin (see wmma's FEDP kernel).
func fmaF16X2(x, y, z uint64) uint64 {
	lo := float64(h16(x).Float32()*h16(y).Float32()) + float64(h16(z).Float32())
	hi := float64(h16(x>>16).Float32()*h16(y>>16).Float32()) + float64(h16(z>>16).Float32())
	l, okl := fp16.RoundNormal64(lo)
	h, okh := fp16.RoundNormal64(hi)
	if !(okl && okh) {
		l, h = fp16.FromFloat64(lo), fp16.FromFloat64(hi)
	}
	return bitsH16(h)<<16 | bitsH16(l)
}

// dSetp runs a warp-wide integer setp; ord returns the three-way
// comparison of the two raw source values.
func dSetp(w *Warp, d *DInstr, ord func(x, y uint64) int) {
	dst, x, y, cmp := w.regVec(int(d.dstID)), d.srcVec(w, 0), d.srcVec(w, 1), d.cmp
	for on := d.guard(w); on != 0; on &= on - 1 {
		lane := bits.TrailingZeros32(on) & 31
		dst[lane] = predBit(cmp, ord(x[lane], y[lane]))
	}
}

func dSetpF32(w *Warp, d *DInstr) error {
	dst, xs, ys, cmp := w.regVec(int(d.dstID)), d.srcVec(w, 0), d.srcVec(w, 1), d.cmp
	for on := d.guard(w); on != 0; on &= on - 1 {
		lane := bits.TrailingZeros32(on) & 31
		x, y := f32bits(xs[lane]), f32bits(ys[lane])
		if x != x || y != y { // NaN: only NE holds
			dst[lane] = 0
			if cmp == CmpNE {
				dst[lane] = 1
			}
			continue
		}
		dst[lane] = predBit(cmp, cmpOrd(x, y))
	}
	return nil
}

// predBit converts a three-way comparison into the setp predicate value.
func predBit(cmp CmpOp, c int) uint64 {
	var ok bool
	switch cmp {
	case CmpEQ:
		ok = c == 0
	case CmpNE:
		ok = c != 0
	case CmpLT:
		ok = c < 0
	case CmpLE:
		ok = c <= 0
	case CmpGT:
		ok = c > 0
	default:
		ok = c >= 0
	}
	if ok {
		return 1
	}
	return 0
}

func dSelp(w *Warp, d *DInstr) error {
	dst, x, y, p, m := w.regVec(int(d.dstID)), d.srcVec(w, 0), d.srcVec(w, 1), d.srcVec(w, 2), d.mask
	for on := d.guard(w); on != 0; on &= on - 1 {
		lane := bits.TrailingZeros32(on) & 31
		if p[lane] != 0 {
			dst[lane] = x[lane] & m
		} else {
			dst[lane] = y[lane] & m
		}
	}
	return nil
}

func dCvt(w *Warp, d *DInstr) error {
	dst, x, fn := w.regVec(int(d.dstID)), d.srcVec(w, 0), d.cvtFn
	for on := d.guard(w); on != 0; on &= on - 1 {
		lane := bits.TrailingZeros32(on) & 31
		dst[lane] = fn(x[lane])
	}
	return nil
}
