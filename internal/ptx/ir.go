// Package ptx implements the PTX-level instruction set the paper's
// GPGPU-Sim changes model: a register-based, warp-executed IR with the
// three wmma instructions of Section II-C (wmma.load, wmma.mma,
// wmma.store) alongside the ordinary arithmetic, memory, predicate,
// barrier and clock instructions GEMM kernels and the paper's
// microbenchmarks need.
//
// Kernels are built programmatically with Builder (the analog of writing
// CUDA and compiling to PTX) or parsed from a textual PTX-like syntax (see
// Parse). Execution is warp-granular: internal/gpu drives one Warp per
// simulated warp, calling Execute once per issued instruction, which makes
// the functional model execution-driven and the timing model
// timing-directed, the same split GPGPU-Sim uses.
package ptx

import (
	"fmt"

	"repro/internal/wmma"
)

// Type is a PTX value type. Registers are untyped 64-bit containers; the
// type lives on the instruction, as in PTX.
type Type int

const (
	U32 Type = iota
	S32
	U64
	F16
	F16X2 // two packed binary16 values in the low 32 bits
	F32
	Pred
)

func (t Type) String() string {
	switch t {
	case U32:
		return "u32"
	case S32:
		return "s32"
	case U64:
		return "u64"
	case F16:
		return "f16"
	case F16X2:
		return "f16x2"
	case F32:
		return "f32"
	case Pred:
		return "pred"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// Bits returns the value width of the type in bits.
func (t Type) Bits() int {
	switch t {
	case F16:
		return 16
	case U64:
		return 64
	case Pred:
		return 1
	default:
		return 32
	}
}

// Space is a PTX state space for memory operations.
type Space int

const (
	Global Space = iota
	Shared
	// Generic resolves to Shared when the address falls inside the
	// shared-memory window and Global otherwise, like PTX generic
	// addressing. wmma.load/store use it.
	Generic
)

func (s Space) String() string {
	switch s {
	case Global:
		return "global"
	case Shared:
		return "shared"
	}
	return "generic"
}

// SharedBase is the virtual address where the shared-memory window of a
// thread block begins under generic addressing.
const SharedBase uint64 = 0x7fff_0000_0000

// SReg is a special (read-only) register.
type SReg int

const (
	SRegTidX SReg = iota
	SRegTidY
	SRegTidZ
	SRegNTidX
	SRegNTidY
	SRegNTidZ
	SRegCtaIDX
	SRegCtaIDY
	SRegCtaIDZ
	SRegNCtaIDX
	SRegNCtaIDY
	SRegNCtaIDZ
	SRegLaneID
	SRegWarpID
	SRegClock // %clock: the SM cycle counter (CS2R SR_CLOCKLO at SASS level)
)

func (s SReg) String() string {
	names := [...]string{"%tid.x", "%tid.y", "%tid.z", "%ntid.x", "%ntid.y", "%ntid.z",
		"%ctaid.x", "%ctaid.y", "%ctaid.z", "%nctaid.x", "%nctaid.y", "%nctaid.z",
		"%laneid", "%warpid", "%clock"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("%%sreg(%d)", int(s))
}

// Reg is a virtual register id within a kernel.
type Reg struct{ ID int }

func (r Reg) String() string { return fmt.Sprintf("%%r%d", r.ID) }

// Operand is a register, an immediate, or a special register source.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Imm  uint64 // raw bits for immediates (f32 immediates are Float32bits)
	SReg SReg
}

// OperandKind discriminates Operand.
type OperandKind int

const (
	OperandReg OperandKind = iota
	OperandImm
	OperandSReg
)

// R wraps a register as an operand.
func R(r Reg) Operand { return Operand{Kind: OperandReg, Reg: r} }

// Imm builds an integer immediate operand.
func Imm(v uint64) Operand { return Operand{Kind: OperandImm, Imm: v} }

// ImmS builds a signed integer immediate operand.
func ImmS(v int64) Operand { return Operand{Kind: OperandImm, Imm: uint64(v)} }

// SR wraps a special register as an operand.
func SR(s SReg) Operand { return Operand{Kind: OperandSReg, SReg: s} }

func (o Operand) String() string {
	switch o.Kind {
	case OperandReg:
		return o.Reg.String()
	case OperandImm:
		return fmt.Sprintf("%d", int64(o.Imm))
	default:
		return o.SReg.String()
	}
}

// CmpOp is a setp comparison operator.
type CmpOp int

const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (c CmpOp) String() string {
	return [...]string{"eq", "ne", "lt", "le", "gt", "ge"}[c]
}

// Opcode enumerates the modeled PTX instructions.
type Opcode int

const (
	OpMov Opcode = iota
	OpAdd
	OpSub
	OpMul
	OpMulWide // mul.wide.u32: u32 × u32 → u64
	OpMad     // d = a*b + c (fused for floats)
	OpDiv
	OpRem
	OpMin
	OpMax
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpCvt  // convert between types (Type is destination, SrcType source)
	OpSetp // predicate = a <cmp> b
	OpSelp // d = p ? a : b
	OpLd
	OpSt
	OpBar // bar.sync 0
	OpBra // branch to Target (optionally predicated)
	OpExit
	OpWmmaLoad  // wmma.load.{a,b,c}
	OpWmmaStore // wmma.store.d
	OpWmmaMMA   // wmma.mma
)

// Instr is one PTX instruction.
type Instr struct {
	Op      Opcode
	Type    Type // operation type (destination type for cvt)
	SrcType Type // source type for cvt
	Cmp     CmpOp

	Dst  []Reg // most ops have one; wmma.load/mma write whole fragments
	Src  []Operand
	Pred *Reg // optional guard predicate: execute lane only when true...
	PNeg bool // ...or, with PNeg, when false

	// Memory attributes (OpLd/OpSt).
	Space Space
	Width int // access width in bits: 16, 32, 64 or 128

	// wmma attributes, precomputed at build time: WMap is the fragment
	// mapping for load/store and the C-operand mapping for mma; mma
	// additionally carries the A, B and D mappings used to gather its
	// source fragments and scatter its result.
	WMap                *wmma.Mapping
	WMapA, WMapB, WMapD *wmma.Mapping
	WConfig             wmma.Config

	Target  string // branch target label
	Comment string
}

// appendScoreboardRegs collects the deduplicated register IDs an
// instruction reads or writes (register sources, destinations and the
// guard predicate), for RAW/WAW hazard checks. It runs once per static
// instruction, at decode time; the timing model reads the packed copy
// through DInstr.ScoreboardSet.
func appendScoreboardRegs(ids []int32, in *Instr) []int32 {
	add := func(id int) {
		for _, x := range ids {
			if int(x) == id {
				return
			}
		}
		ids = append(ids, int32(id))
	}
	for _, o := range in.Src {
		if o.Kind == OperandReg {
			add(o.Reg.ID)
		}
	}
	for _, r := range in.Dst {
		add(r.ID)
	}
	if in.Pred != nil {
		add(in.Pred.ID)
	}
	return ids
}

// Kernel is a compiled PTX entry function.
type Kernel struct {
	Name string
	// Params are the kernel parameters in declaration order; at launch
	// each is materialized into the register of the same index before the
	// first instruction.
	Params      []Param
	ParamRegs   []Reg
	Instrs      []Instr
	Labels      map[string]int
	NumRegs     int
	SharedBytes int // static .shared allocation per CTA

	// prog is the kernel's decoded-instruction cache (see decode.go):
	// one decode per kernel, shared read-only by every warp of every
	// launch. Builder.Build populates it; hand-assembled kernels decode
	// privately per warp in NewWarp.
	prog []DInstr
	// separable: no loaded value reaches the control plane (see
	// sliceKernel), set with prog.
	separable bool
	// timing is prog renumbered for the warps that honour skipTiming (see
	// packTiming): their register files hold timingRegs registers, and
	// timingParams are the parameters' registers there. Set with prog for
	// a separable kernel, nil otherwise.
	timing       []DInstr
	timingParams []Reg
	timingRegs   int
	// ahead: separable, and no TimingOnly warp reads %clock (see
	// sliceKernel).
	ahead bool
	// digest is the kernel's content address (see digest.go), set with
	// prog by Builder.Build.
	digest string
}

// Program returns the kernel's decoded instruction cache, or nil for
// hand-assembled kernels that skipped Builder.Build.
func (k *Kernel) Program() []DInstr { return k.prog }

// TimingSeparable reports whether a TimingOnly launch of the kernel skips
// its operand values (see sliceKernel); false for kernels that let a
// loaded value steer an address, a guard or a fault, and for
// hand-assembled kernels that skipped Builder.Build.
func (k *Kernel) TimingSeparable() bool { return k.separable }

// StepsAhead reports whether every TimingOnly warp of a launch of the
// kernel takes the same pcs, exits, barriers, faults and addresses however
// far ahead of the timing model it is stepped: the kernel is separable and
// no such warp reads %clock.
func (k *Kernel) StepsAhead() bool {
	return k.ahead
}

// TimingProgram returns the decoded program a TimingOnly warp of a
// separable kernel steps through (the packed copy of Program), nil for
// any other kernel.
func (k *Kernel) TimingProgram() []DInstr { return k.timing }

// Param is one kernel parameter.
type Param struct {
	Name string
	Type Type
}

// TargetIndex resolves a label to an instruction index.
func (k *Kernel) TargetIndex(label string) (int, error) {
	i, ok := k.Labels[label]
	if !ok {
		return 0, fmt.Errorf("ptx: kernel %s has no label %q", k.Name, label)
	}
	return i, nil
}
