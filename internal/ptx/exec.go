package ptx

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/fp16"
	"repro/internal/tensor"
)

// Memory is the byte-addressable global store the executor reads and
// writes; internal/cuda provides the device-memory implementation.
type Memory interface {
	Read(addr uint64, buf []byte)
	Write(addr uint64, data []byte)
}

// Dim3 is a CUDA-style 3-component dimension.
type Dim3 struct{ X, Y, Z int }

// D1 builds a 1-D Dim3.
func D1(x int) Dim3 { return Dim3{x, 1, 1} }

// D2 builds a 2-D Dim3.
func D2(x, y int) Dim3 { return Dim3{x, y, 1} }

// Count returns the number of threads/blocks the dimension spans.
func (d Dim3) Count() int { return d.X * d.Y * d.Z }

// CheckLaunch rejects a launch whose grid or block has a component below
// one, naming the field: such a launch has no CTA or thread indices to
// give its warps.
func CheckLaunch(grid, block Dim3) error {
	for _, c := range [...]struct {
		field string
		n     int
	}{{"grid.X", grid.X}, {"grid.Y", grid.Y}, {"grid.Z", grid.Z}, {"block.X", block.X}, {"block.Y", block.Y}, {"block.Z", block.Z}} {
		if c.n < 1 {
			return fmt.Errorf("%s is %d, want at least 1", c.field, c.n)
		}
	}
	return nil
}

// Env is the execution environment of one CTA: the memories it can reach
// and its position in the grid. Clock supplies the value of %clock; the
// timing simulator wires it to the SM cycle counter, and functional runs
// use a step counter.
type Env struct {
	Global   Memory
	Shared   []byte
	Clock    func() uint64
	GridDim  Dim3
	BlockDim Dim3
	CtaID    Dim3
	// TimingOnly says nobody will read the values this CTA computes:
	// warps skip their skipTiming instructions' arithmetic and data movement,
	// so registers, Shared and Global end up holding nothing meaningful,
	// while every address, branch, barrier and fault stays what a full run
	// produces (DESIGN.md "Value-free timing").
	TimingOnly bool
	// scratch is shared by the CTA's warps (see stepScratch).
	scratch *stepScratch
}

// resolveSpace maps a generic address onto the shared window or global
// memory, like PTX generic addressing.
func (e *Env) resolveSpace(space Space, addr uint64) (Space, uint64) {
	if space == Shared {
		// Accept both window-relative offsets and generic addresses
		// (Builder.Shared hands out the latter).
		if addr >= SharedBase {
			addr -= SharedBase
		}
		return Shared, addr
	}
	if space == Generic && addr >= SharedBase && addr < SharedBase+uint64(len(e.Shared)) {
		return Shared, addr - SharedBase
	}
	if space == Generic {
		return Global, addr
	}
	return Global, addr
}

// Result reports the architectural effects of one executed instruction
// that the timing model needs. Batch holds its memory accesses as
// struct-of-arrays groups (WarpAccess); it aliases scratch the CTA's
// warps share, valid until the next Step of any warp on the same Env,
// which is the synchronous consumption pattern of the timing model.
type Result struct {
	Instr   *Instr
	Batch   []WarpAccess
	Barrier bool
	Exited  bool
}

// Warp executes one warp of a CTA instruction by instruction.
type Warp struct {
	Kernel *Kernel
	Env    *Env
	ID     int // warp index within the CTA
	PC     int
	Exited bool
	// AtBarrier is set when the warp executed bar.sync and is waiting for
	// the rest of the CTA; the CTA driver clears it.
	AtBarrier bool
	active    uint32 // bit per lane that holds a thread; fixed at construction
	nLanes    int
	// regs is the register file, register-major: register r of lane l
	// lives at regs[r*32+l], so one register across the warp is one
	// contiguous 256-byte vector. The accessor family below NewWarp
	// (reg, setReg, regVec, and val for decoded operands) is the only
	// code that knows the layout.
	regs []uint64
	// prog is the kernel's decoded-instruction cache (shared across all
	// warps of the kernel; see decode.go).
	prog []DInstr

	// skip is the mask of skip classes the warp honours, set at
	// construction: skipDead, plus skipTiming under Env.TimingOnly.
	skip uint8
	// imageForm has the bit of every image group (DInstr.img) the warp
	// holds as its tile image; the others are in register form. A new warp
	// holds every group in registers.
	imageForm uint64

	// Scratch buffers reused across Step calls so the hot execution path
	// stays allocation-free: what every warp of the CTA shares
	// (stepScratch), the address and piece lists of the per-lane
	// wmma.load/store loop, and the tiles of the per-lane wmma.mma.
	*stepScratch
	addrBuf  []uint64
	pieceBuf []fragPiece
	tiles    [4]*tensor.Matrix // per-lane wmma.mma A/B/C/D tile scratch
}

// stepScratch is what one step needs and no later step reads: the
// Result.Batch backing array, staging buffers for loads and stores
// (membuf for one element, bulk for a whole warp's contiguous runs), the
// special-register operand vectors and load offsets (vecs), and what the
// image path of wmma.mma widens its operands into or materialize copies
// an image to. A CTA's warps step one at a time, each Result consumed
// before the next step, so they share one, kept on their Env.
type stepScratch struct {
	batchBuf  []WarpAccess
	membuf    [16]byte
	bulk      [512]byte // 32 lanes × 16 bytes
	vecs      [3][32]uint64
	mmaFloats []float32 // wmma.mma A and B images, floating-point configs
	mmaInts   []int32   // … integer configs
	mmaWords  []uint64  // a fragment image being materialized
}

// NewWarp builds warp id of a CTA, loading kernel arguments into the
// parameter registers of every lane. args must match the kernel's
// parameter list.
func NewWarp(k *Kernel, env *Env, id int, args []uint64) (*Warp, error) {
	return NewWarpOn(k, env, id, args, func(words int) []uint64 { return make([]uint64, words) })
}

// NewWarpOn is NewWarp on a register file the caller owns: regs returns
// words zeroed words, which the warp uses until the caller takes them back
// (the value side of a pipelined timing launch hands a retired CTA's files,
// cleared, to the next one). A warp that skips what timing never reads asks only for the
// registers it touches (packTiming); any other, for 32·k.NumRegs words.
func NewWarpOn(k *Kernel, env *Env, id int, args []uint64, regs func(words int) []uint64) (*Warp, error) {
	if len(args) != len(k.Params) {
		return nil, fmt.Errorf("ptx: kernel %s takes %d args, got %d", k.Name, len(k.Params), len(args))
	}
	if env.scratch == nil {
		env.scratch = new(stepScratch)
	}
	w := &Warp{Kernel: k, Env: env, ID: id, stepScratch: env.scratch}
	w.skip = skipDead
	if env.TimingOnly {
		w.skip |= skipTiming
	}
	w.prog = k.prog
	numRegs, params := k.NumRegs, k.ParamRegs
	if w.prog == nil {
		// Hand-assembled kernels (no Builder.Build pass) decode a private
		// program; built kernels share the per-kernel cache.
		w.prog, _, _, _, _ = decodeKernel(k)
	}
	if w.skip&skipTiming != 0 && k.timing != nil {
		w.prog, numRegs, params = k.timing, k.timingRegs, k.timingParams
	}
	w.regs = regs(32 * numRegs)
	if n := env.BlockDim.Count() - id*32; n >= 32 {
		w.active = fullMask
	} else if n > 0 {
		w.active = 1<<n - 1
	}
	w.nLanes = bits.OnesCount32(w.active)
	for i, r := range params {
		v := w.regVec(r.ID)
		for m := w.active; m != 0; m &= m - 1 {
			v[bits.TrailingZeros32(m)&31] = args[i]
		}
	}
	if w.nLanes == 0 {
		w.Exited = true
	}
	return w, nil
}

// fullMask is the lane mask of a fully populated, unguarded warp.
const fullMask = ^uint32(0)

func (w *Warp) reg(lane int, r Reg) uint64       { return w.regs[r.ID*32+lane] }
func (w *Warp) setReg(lane int, r Reg, v uint64) { w.regs[r.ID*32+lane] = v }

// regVec returns register id across all 32 lanes. Warp-wide executors
// take one view per operand and index it by lane with no bounds checks.
func (w *Warp) regVec(id int) *[32]uint64 { return (*[32]uint64)(w.regs[id*32:]) }

// val fetches one lane of a decoded source operand. The register case
// spells the layout out instead of calling reg because it must stay
// within the inlining budget of the per-lane store and fallback loops;
// immediates and special registers take the outlined slow path.
func (d *DInstr) val(w *Warp, lane int, s *srcOp) uint64 {
	if s.kind == OperandReg {
		return w.regs[int(s.reg)*32+lane]
	}
	return valSlow(w, lane, s)
}

//go:noinline
func valSlow(w *Warp, lane int, s *srcOp) uint64 {
	if s.kind == OperandImm {
		return s.imm
	}
	return w.sreg(lane, s.sreg)
}

// tid returns the 3-D thread index of a lane.
func (w *Warp) tid(lane int) Dim3 {
	linear := w.ID*32 + lane
	bd := w.Env.BlockDim
	return Dim3{
		X: linear % bd.X,
		Y: (linear / bd.X) % bd.Y,
		Z: linear / (bd.X * bd.Y),
	}
}

func (w *Warp) sreg(lane int, s SReg) uint64 {
	e := w.Env
	switch s {
	case SRegTidX:
		return uint64(w.tid(lane).X)
	case SRegTidY:
		return uint64(w.tid(lane).Y)
	case SRegTidZ:
		return uint64(w.tid(lane).Z)
	case SRegNTidX:
		return uint64(e.BlockDim.X)
	case SRegNTidY:
		return uint64(e.BlockDim.Y)
	case SRegNTidZ:
		return uint64(e.BlockDim.Z)
	case SRegCtaIDX:
		return uint64(e.CtaID.X)
	case SRegCtaIDY:
		return uint64(e.CtaID.Y)
	case SRegCtaIDZ:
		return uint64(e.CtaID.Z)
	case SRegNCtaIDX:
		return uint64(e.GridDim.X)
	case SRegNCtaIDY:
		return uint64(e.GridDim.Y)
	case SRegNCtaIDZ:
		return uint64(e.GridDim.Z)
	case SRegLaneID:
		return uint64(lane)
	case SRegWarpID:
		return uint64(w.ID)
	case SRegClock:
		return w.Env.Clock()
	}
	return 0
}

func (w *Warp) operand(lane int, o *Operand) uint64 {
	switch o.Kind {
	case OperandReg:
		return w.reg(lane, o.Reg)
	case OperandImm:
		return o.Imm
	default:
		return w.sreg(lane, o.SReg)
	}
}

// laneEnabled reports whether the lane executes the instruction under its
// guard predicate.
func (w *Warp) laneEnabled(lane int, in *Instr) bool {
	if w.active>>lane&1 == 0 {
		return false
	}
	return in.Pred == nil || (w.reg(lane, *in.Pred) != 0) != in.PNeg
}

// PeekD returns the decoded form of the instruction the warp will execute
// next, or nil if the warp has exited. The timing model schedules on the
// decoded form (unit class, precomputed scoreboard registers) instead of
// re-classifying the Instr every cycle.
func (w *Warp) PeekD() *DInstr {
	if w.Exited || w.PC >= len(w.prog) {
		return nil
	}
	return &w.prog[w.PC]
}

// Step executes the next instruction and advances the PC. Branches, exits
// and barriers must be warp-uniform over enabled lanes (the kernels in this
// repository use predication for per-lane conditionals); a guard that
// diverges is an error.
func (w *Warp) Step() (Result, error) {
	var res Result
	err := w.StepInto(&res)
	return res, err
}

// StepInto is Step writing into a caller-owned Result, so the hot
// issue loop moves no Result copies (the struct carries a slice header
// and crosses two call boundaries per instruction otherwise). *res is
// fully overwritten.
func (w *Warp) StepInto(res *Result) error {
	err := w.step(res)
	if cap(res.Batch) > cap(w.batchBuf) {
		w.batchBuf = res.Batch[:0]
	}
	return err
}

func (w *Warp) step(res *Result) error {
	d := w.PeekD()
	if d == nil {
		w.Exited = true
		*res = Result{Exited: true}
		return nil
	}
	in := d.In
	// The kernel's own instruction: a packed program's copy numbers its
	// registers differently.
	*res = Result{Instr: &w.Kernel.Instrs[w.PC], Batch: w.batchBuf[:0]}

	switch d.Class {
	case DClassBra:
		taken, uniform := w.branchVote(d)
		if !uniform {
			return fmt.Errorf("ptx: divergent branch at %d in %s", w.PC, w.Kernel.Name)
		}
		if taken {
			if d.target < 0 {
				_, err := w.Kernel.TargetIndex(in.Target)
				return err
			}
			w.PC = int(d.target)
			return nil
		}
	case DClassExit, DClassBar:
		// Guarded like bra: all lanes take it, none do, or it diverges.
		taken, uniform := w.branchVote(d)
		if !uniform {
			what := "exit"
			if d.Class == DClassBar {
				what = "barrier"
			}
			return fmt.Errorf("ptx: divergent %s at %d in %s", what, w.PC, w.Kernel.Name)
		}
		if taken && d.Class == DClassExit {
			w.Exited, res.Exited = true, true
			return nil
		}
		w.AtBarrier, res.Barrier = taken, taken // a barrier, or an exit no lane takes
	case DClassWmmaLoad:
		if err := w.execWmmaLoad(d, res); err != nil {
			return err
		}
	case DClassWmmaStore:
		if err := w.execWmmaStore(d, res); err != nil {
			return err
		}
	case DClassWmmaMMA:
		if w.valueFree(d) {
			break
		}
		if err := w.execWmmaMMA(d); err != nil {
			return err
		}
	case DClassLd:
		if err := w.execLoadBatched(d, res); err != nil {
			return err
		}
	case DClassSt:
		if err := w.execStoreBatched(d, res); err != nil {
			return err
		}
	default:
		// ALU and SFU classes: direct table-driven dispatch on the decoded
		// kind; aluGeneric is the per-lane interpreted fallback.
		if w.valueFree(d) {
			break
		}
		if err := aluTable[d.alu](w, d); err != nil {
			return err
		}
	}
	w.PC++
	return nil
}

// valueFree reports whether this execution of d computes and moves no
// values: any warp on a dead instruction, a TimingOnly warp on one nothing
// timing reads depends on. Memory instructions still generate and resolve
// every address and keep their bounds checks.
func (w *Warp) valueFree(d *DInstr) bool { return w.skip&d.skip != 0 }

// branchVote evaluates the branch guard across the populated lanes.
func (w *Warp) branchVote(d *DInstr) (taken, uniform bool) {
	on := d.guard(w)
	return on != 0, on == 0 || on == w.active
}

func (w *Warp) execALU(lane int, in *Instr) error {
	get := func(i int) uint64 { return w.operand(lane, &in.Src[i]) }
	set := func(v uint64) { w.setReg(lane, in.Dst[0], v) }

	switch in.Op {
	case OpMov:
		set(truncate(get(0), in.Type))
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpMin, OpMax:
		v, err := arith(in.Op, in.Type, get(0), get(1))
		if err != nil {
			return err
		}
		set(v)
	case OpMulWide:
		set(uint64(uint32(get(0))) * uint64(uint32(get(1))))
	case OpMad:
		v, err := mad(in.Type, get(0), get(1), get(2))
		if err != nil {
			return err
		}
		set(v)
	case OpAnd:
		set(truncate(get(0)&get(1), in.Type))
	case OpOr:
		set(truncate(get(0)|get(1), in.Type))
	case OpXor:
		set(truncate(get(0)^get(1), in.Type))
	case OpShl:
		set(truncate(get(0)<<(get(1)&63), in.Type))
	case OpShr:
		if in.Type == S32 {
			set(uint64(uint32(int32(uint32(get(0))) >> (get(1) & 31))))
		} else {
			set(truncate(get(0)>>(get(1)&63), in.Type))
		}
	case OpCvt:
		v, err := convert(in.Type, in.SrcType, get(0))
		if err != nil {
			return err
		}
		set(v)
	case OpSetp:
		ok, err := compare(in.Type, in.Cmp, get(0), get(1))
		if err != nil {
			return err
		}
		if ok {
			set(1)
		} else {
			set(0)
		}
	case OpSelp:
		if get(2) != 0 {
			set(truncate(get(0), in.Type))
		} else {
			set(truncate(get(1), in.Type))
		}
	default:
		return fmt.Errorf("ptx: unhandled opcode %d", in.Op)
	}
	return nil
}

func truncate(v uint64, t Type) uint64 {
	switch t.Bits() {
	case 16:
		return v & 0xffff
	case 32:
		return v & 0xffffffff
	case 1:
		if v != 0 {
			return 1
		}
		return 0
	}
	return v
}

func f32bits(v uint64) float32      { return math.Float32frombits(uint32(v)) }
func bitsF32(f float32) uint64      { return uint64(math.Float32bits(f)) }
func h16(v uint64) fp16.Float16     { return fp16.FromBits(uint16(v)) }
func bitsH16(h fp16.Float16) uint64 { return uint64(h.Bits()) }

func arith(op Opcode, t Type, a, b uint64) (uint64, error) {
	switch t {
	case U32, U64:
		x, y := a, b
		if t == U32 {
			x, y = a&0xffffffff, b&0xffffffff
		}
		var v uint64
		switch op {
		case OpAdd:
			v = x + y
		case OpSub:
			v = x - y
		case OpMul:
			v = x * y
		case OpDiv:
			if y == 0 {
				return 0, fmt.Errorf("ptx: integer division by zero")
			}
			v = x / y
		case OpRem:
			if y == 0 {
				return 0, fmt.Errorf("ptx: integer remainder by zero")
			}
			v = x % y
		case OpMin:
			v = min(x, y)
		case OpMax:
			v = max(x, y)
		}
		return truncate(v, t), nil
	case S32:
		x, y := int32(uint32(a)), int32(uint32(b))
		var v int32
		switch op {
		case OpAdd:
			v = x + y
		case OpSub:
			v = x - y
		case OpMul:
			v = x * y
		case OpDiv:
			if y == 0 {
				return 0, fmt.Errorf("ptx: integer division by zero")
			}
			v = x / y
		case OpRem:
			if y == 0 {
				return 0, fmt.Errorf("ptx: integer remainder by zero")
			}
			v = x % y
		case OpMin:
			v = min(x, y)
		case OpMax:
			v = max(x, y)
		}
		return uint64(uint32(v)), nil
	case F32:
		x, y := f32bits(a), f32bits(b)
		var v float32
		switch op {
		case OpAdd:
			v = x + y
		case OpSub:
			v = x - y
		case OpMul:
			v = x * y
		case OpDiv:
			v = x / y
		case OpMin, OpMax:
			// Without .NaN, PTX min/max return the non-NaN operand, and
			// NaN only when both are.
			switch {
			case x != x:
				v = y
			case y != y:
				v = x
			case op == OpMin:
				v = float32(math.Min(float64(x), float64(y)))
			default:
				v = float32(math.Max(float64(x), float64(y)))
			}
		}
		return bitsF32(v), nil
	case F16:
		x, y := h16(a), h16(b)
		var v fp16.Float16
		switch op {
		case OpAdd:
			v = x.Add(y)
		case OpSub:
			v = x.Sub(y)
		case OpMul:
			v = x.Mul(y)
		case OpDiv:
			v = x.Div(y)
		case OpMin, OpMax:
			// As for F32: a lone NaN loses to the other operand.
			switch {
			case x.IsNaN():
				v = y
			case y.IsNaN():
				v = x
			case op == OpMin && x.Less(y), op == OpMax && y.Less(x):
				v = x
			default:
				v = y
			}
		}
		return bitsH16(v), nil
	case F16X2:
		lo, err := arith(op, F16, a&0xffff, b&0xffff)
		if err != nil {
			return 0, err
		}
		hi, err := arith(op, F16, a>>16&0xffff, b>>16&0xffff)
		if err != nil {
			return 0, err
		}
		return hi<<16 | lo, nil
	}
	return 0, fmt.Errorf("ptx: arithmetic on unsupported type %v", t)
}

func mad(t Type, a, b, c uint64) (uint64, error) {
	switch t {
	case U32:
		return truncate(a*b+c, U32), nil
	case S32:
		return uint64(uint32(int32(uint32(a))*int32(uint32(b)) + int32(uint32(c)))), nil
	case U64:
		return a*b + c, nil
	case F32:
		return fmaF32(a, b, c), nil
	case F16:
		return bitsH16(fp16.FMA(h16(a), h16(b), h16(c))), nil
	case F16X2:
		return fmaF16X2(a, b, c), nil
	}
	return 0, fmt.Errorf("ptx: mad on unsupported type %v", t)
}

func compare(t Type, cmp CmpOp, a, b uint64) (bool, error) {
	var c int
	switch t {
	case U32:
		c = cmpOrd(a&0xffffffff, b&0xffffffff)
	case U64:
		c = cmpOrd(a, b)
	case S32:
		c = cmpOrd(int32(uint32(a)), int32(uint32(b)))
	case F32:
		x, y := f32bits(a), f32bits(b)
		if x != x || y != y { // NaN: only NE holds
			return cmp == CmpNE, nil
		}
		c = cmpOrd(x, y)
	case F16:
		x, y := h16(a), h16(b)
		if x.IsNaN() || y.IsNaN() {
			return cmp == CmpNE, nil
		}
		c = cmpOrd(x.Float32(), y.Float32())
	default:
		return false, fmt.Errorf("ptx: setp on unsupported type %v", t)
	}
	switch cmp {
	case CmpEQ:
		return c == 0, nil
	case CmpNE:
		return c != 0, nil
	case CmpLT:
		return c < 0, nil
	case CmpLE:
		return c <= 0, nil
	case CmpGT:
		return c > 0, nil
	default:
		return c >= 0, nil
	}
}

func cmpOrd[T int32 | uint64 | float32](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func convert(dst, src Type, v uint64) (uint64, error) {
	switch {
	case dst == src:
		return truncate(v, dst), nil
	case dst == U64 && src == U32:
		return v & 0xffffffff, nil
	case dst == U64 && src == S32:
		return uint64(int64(int32(uint32(v)))), nil
	case (dst == U32 || dst == S32) && src == U64:
		return v & 0xffffffff, nil
	case dst == U32 && src == S32, dst == S32 && src == U32:
		return v & 0xffffffff, nil
	case dst == F32 && src == F16:
		return bitsF32(h16(v).Float32()), nil
	case dst == F16 && src == F32:
		return bitsH16(fp16.FromFloat32(f32bits(v))), nil
	case dst == F32 && (src == U32 || src == S32):
		if src == S32 {
			return bitsF32(float32(int32(uint32(v)))), nil
		}
		return bitsF32(float32(uint32(v))), nil
	case (dst == U32 || dst == S32) && src == F32:
		return uint64(uint32(int32(f32bits(v)))), nil
	case dst == F16 && (src == U32 || src == S32):
		if src == S32 {
			return bitsH16(fp16.FromFloat64(float64(int32(uint32(v))))), nil
		}
		return bitsH16(fp16.FromFloat64(float64(uint32(v)))), nil
	}
	return 0, fmt.Errorf("ptx: unsupported cvt.%v.%v", dst, src)
}
