package ptx

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/wmma"
)

// Builder assembles a Kernel instruction by instruction, playing the role
// of nvcc's CUDA→PTX stage for the kernels in internal/kernels.
//
// The zero value is not usable; call NewBuilder.
type Builder struct {
	k    Kernel
	errs []error
	pred *Reg // pending guard for the next instruction
	pneg bool
}

// NewBuilder starts a kernel with the given entry name.
func NewBuilder(name string) *Builder {
	return &Builder{k: Kernel{Name: name, Labels: make(map[string]int)}}
}

// Param declares a kernel parameter and returns the register holding its
// value at launch.
func (b *Builder) Param(name string, t Type) Reg {
	r := b.Reg()
	b.k.Params = append(b.k.Params, Param{Name: name, Type: t})
	b.k.ParamRegs = append(b.k.ParamRegs, r)
	return r
}

// Reg allocates a fresh virtual register.
func (b *Builder) Reg() Reg {
	r := Reg{ID: b.k.NumRegs}
	b.k.NumRegs++
	return r
}

// Regs allocates n fresh registers.
func (b *Builder) Regs(n int) []Reg {
	out := make([]Reg, n)
	for i := range out {
		out[i] = b.Reg()
	}
	return out
}

// Shared reserves n bytes of static shared memory and returns its byte
// offset within the CTA's shared window.
func (b *Builder) Shared(n int) uint64 {
	// Keep 16-byte alignment for vectorized accesses.
	off := uint64((b.k.SharedBytes + 15) &^ 15)
	b.k.SharedBytes = int(off) + n
	return SharedBase + off
}

// Label marks the next instruction with a branch target name.
func (b *Builder) Label(name string) {
	if _, dup := b.k.Labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("ptx: duplicate label %q", name))
	}
	b.k.Labels[name] = len(b.k.Instrs)
}

// At guards the next emitted instruction with @p (or @!p when neg).
func (b *Builder) At(p Reg, neg bool) *Builder {
	b.pred, b.pneg = &p, neg
	return b
}

func (b *Builder) emit(in Instr) {
	if b.pred != nil {
		in.Pred, in.PNeg = b.pred, b.pneg
		b.pred, b.pneg = nil, false
	}
	b.k.Instrs = append(b.k.Instrs, in)
}

// Mov emits mov.<t> d, a.
func (b *Builder) Mov(t Type, d Reg, a Operand) {
	b.emit(Instr{Op: OpMov, Type: t, Dst: []Reg{d}, Src: []Operand{a}})
}

// Arithmetic emitters. All are d = a <op> b in type t.

func (b *Builder) Add(t Type, d Reg, a, c Operand) {
	b.emit(Instr{Op: OpAdd, Type: t, Dst: []Reg{d}, Src: []Operand{a, c}})
}
func (b *Builder) Sub(t Type, d Reg, a, c Operand) {
	b.emit(Instr{Op: OpSub, Type: t, Dst: []Reg{d}, Src: []Operand{a, c}})
}
func (b *Builder) Mul(t Type, d Reg, a, c Operand) {
	b.emit(Instr{Op: OpMul, Type: t, Dst: []Reg{d}, Src: []Operand{a, c}})
}

// MulWide emits mul.wide.u32: a 32×32→64-bit multiply for addressing.
func (b *Builder) MulWide(d Reg, a, c Operand) {
	b.emit(Instr{Op: OpMulWide, Type: U64, Dst: []Reg{d}, Src: []Operand{a, c}})
}

// Mad emits d = a*b + c (fused multiply-add for float types).
func (b *Builder) Mad(t Type, d Reg, a, x, c Operand) {
	b.emit(Instr{Op: OpMad, Type: t, Dst: []Reg{d}, Src: []Operand{a, x, c}})
}

func (b *Builder) Div(t Type, d Reg, a, c Operand) {
	b.emit(Instr{Op: OpDiv, Type: t, Dst: []Reg{d}, Src: []Operand{a, c}})
}
func (b *Builder) Rem(t Type, d Reg, a, c Operand) {
	b.emit(Instr{Op: OpRem, Type: t, Dst: []Reg{d}, Src: []Operand{a, c}})
}
func (b *Builder) Min(t Type, d Reg, a, c Operand) {
	b.emit(Instr{Op: OpMin, Type: t, Dst: []Reg{d}, Src: []Operand{a, c}})
}
func (b *Builder) Max(t Type, d Reg, a, c Operand) {
	b.emit(Instr{Op: OpMax, Type: t, Dst: []Reg{d}, Src: []Operand{a, c}})
}
func (b *Builder) And(t Type, d Reg, a, c Operand) {
	b.emit(Instr{Op: OpAnd, Type: t, Dst: []Reg{d}, Src: []Operand{a, c}})
}
func (b *Builder) Or(t Type, d Reg, a, c Operand) {
	b.emit(Instr{Op: OpOr, Type: t, Dst: []Reg{d}, Src: []Operand{a, c}})
}
func (b *Builder) Xor(t Type, d Reg, a, c Operand) {
	b.emit(Instr{Op: OpXor, Type: t, Dst: []Reg{d}, Src: []Operand{a, c}})
}
func (b *Builder) Shl(t Type, d Reg, a, c Operand) {
	b.emit(Instr{Op: OpShl, Type: t, Dst: []Reg{d}, Src: []Operand{a, c}})
}
func (b *Builder) Shr(t Type, d Reg, a, c Operand) {
	b.emit(Instr{Op: OpShr, Type: t, Dst: []Reg{d}, Src: []Operand{a, c}})
}

// Cvt emits cvt.<dst>.<src> d, a.
func (b *Builder) Cvt(dst, src Type, d Reg, a Operand) {
	b.emit(Instr{Op: OpCvt, Type: dst, SrcType: src, Dst: []Reg{d}, Src: []Operand{a}})
}

// Setp emits setp.<cmp>.<t> p, a, b.
func (b *Builder) Setp(t Type, cmp CmpOp, p Reg, a, c Operand) {
	b.emit(Instr{Op: OpSetp, Type: t, Cmp: cmp, Dst: []Reg{p}, Src: []Operand{a, c}})
}

// Selp emits selp.<t> d, a, b, p.
func (b *Builder) Selp(t Type, d Reg, a, c, p Operand) {
	b.emit(Instr{Op: OpSelp, Type: t, Dst: []Reg{d}, Src: []Operand{a, c, p}})
}

// Ld emits ld.<space>.<width-bits> filling len(dst) registers with
// consecutive 32-bit words (64/128-bit loads are vectorized, like
// ld.global.v2/v4). For Width 16, the low half-word is loaded zero-
// extended.
func (b *Builder) Ld(space Space, width int, dst []Reg, addr Operand) {
	b.emit(Instr{Op: OpLd, Space: space, Width: width, Dst: dst, Src: []Operand{addr}})
}

// St emits st.<space>.<width-bits> from len(src)-1 source registers (the
// first operand is the address).
func (b *Builder) St(space Space, width int, addr Operand, src []Operand) {
	b.emit(Instr{Op: OpSt, Space: space, Width: width, Src: append([]Operand{addr}, src...)})
}

// Bar emits bar.sync 0.
func (b *Builder) Bar() { b.emit(Instr{Op: OpBar}) }

// Bra emits an unconditional branch.
func (b *Builder) Bra(target string) { b.emit(Instr{Op: OpBra, Target: target}) }

// BraIf emits @p bra target (or @!p with neg).
func (b *Builder) BraIf(p Reg, neg bool, target string) {
	b.emit(Instr{Op: OpBra, Target: target, Pred: &p, PNeg: neg})
}

// Exit emits exit.
func (b *Builder) Exit() { b.emit(Instr{Op: OpExit}) }

// Clock reads the SM cycle counter into d (mov.u32 d, %clock).
func (b *Builder) Clock(d Reg) { b.Mov(U32, d, SR(SRegClock)) }

// WmmaLoad emits wmma.load.<op>.sync.<layout>.<shape>.<type> frag, [addr],
// stride. It returns the fragment registers it allocates (one register
// per fragment element).
func (b *Builder) WmmaLoad(arch wmma.Arch, shape wmma.Shape, op wmma.Operand,
	layout tensor.Layout, elem wmma.Precision, addr, stride Operand) []Reg {
	m, err := wmma.Map(arch, shape, op, layout, elem)
	if err != nil {
		b.errs = append(b.errs, err)
		return nil
	}
	frag := b.Regs(m.FragmentLen())
	b.emit(Instr{Op: OpWmmaLoad, WMap: m, Dst: frag, Src: []Operand{addr, stride}, Space: Generic})
	return frag
}

// WmmaStore emits wmma.store.d.sync.<layout>.<shape>.<type> [addr], frag,
// stride. The fragment must follow the C-operand mapping.
func (b *Builder) WmmaStore(arch wmma.Arch, shape wmma.Shape,
	layout tensor.Layout, elem wmma.Precision, addr Operand, frag []Reg, stride Operand) {
	m, err := wmma.Map(arch, shape, wmma.MatrixC, layout, elem)
	if err != nil {
		b.errs = append(b.errs, err)
		return
	}
	if len(frag) != m.FragmentLen() {
		b.errs = append(b.errs, fmt.Errorf("ptx: wmma.store fragment has %d regs, mapping needs %d", len(frag), m.FragmentLen()))
		return
	}
	src := []Operand{addr, stride}
	for _, r := range frag {
		src = append(src, R(r))
	}
	b.emit(Instr{Op: OpWmmaStore, WMap: m, Src: src, Space: Generic})
}

// WmmaMMA emits wmma.mma.sync computing fragD = fragA×fragB + fragC under
// cfg. It returns the destination fragment registers (fresh; wmma.mma may
// also accumulate in place by passing dst == fragC — then no new registers
// are allocated).
func (b *Builder) WmmaMMA(cfg wmma.Config, fragA, fragB, fragC []Reg) []Reg {
	cm, err := wmma.Map(cfg.Arch, cfg.Shape, wmma.MatrixC, tensor.RowMajor, cfg.CType)
	if err != nil {
		b.errs = append(b.errs, err)
		return nil
	}
	if err := cfg.Validate(); err != nil {
		b.errs = append(b.errs, err)
		return nil
	}
	am, err := wmma.Map(cfg.Arch, cfg.Shape, wmma.MatrixA, cfg.ALayout, cfg.AType)
	if err != nil {
		b.errs = append(b.errs, err)
		return nil
	}
	bm, err := wmma.Map(cfg.Arch, cfg.Shape, wmma.MatrixB, cfg.BLayout, cfg.AType)
	if err != nil {
		b.errs = append(b.errs, err)
		return nil
	}
	dm, err := wmma.Map(cfg.Arch, cfg.Shape, wmma.MatrixC, tensor.RowMajor, cfg.DType)
	if err != nil {
		b.errs = append(b.errs, err)
		return nil
	}
	if len(fragA) != am.FragmentLen() || len(fragB) != bm.FragmentLen() || len(fragC) != cm.FragmentLen() {
		b.errs = append(b.errs, fmt.Errorf("ptx: wmma.mma fragment sizes %d/%d/%d, want %d/%d/%d",
			len(fragA), len(fragB), len(fragC), am.FragmentLen(), bm.FragmentLen(), cm.FragmentLen()))
		return nil
	}
	dst := fragC
	if cfg.DType != cfg.CType {
		dst = b.Regs(dm.FragmentLen())
	}
	var src []Operand
	for _, r := range fragA {
		src = append(src, R(r))
	}
	for _, r := range fragB {
		src = append(src, R(r))
	}
	for _, r := range fragC {
		src = append(src, R(r))
	}
	b.emit(Instr{Op: OpWmmaMMA, WConfig: cfg, WMap: cm, WMapA: am, WMapB: bm, WMapD: dm, Dst: dst, Src: src})
	return dst
}

// Build finalizes the kernel, verifying label targets resolve.
func (b *Builder) Build() (*Kernel, error) {
	for _, err := range b.errs {
		return nil, err
	}
	for i, in := range b.k.Instrs {
		if in.Op == OpBra {
			if _, ok := b.k.Labels[in.Target]; !ok {
				return nil, fmt.Errorf("ptx: instruction %d branches to unknown label %q", i, in.Target)
			}
		}
	}
	k := b.k
	// Decode once per kernel: every warp of every launch shares this
	// read-only program instead of re-classifying operands per execution.
	prog, separable, rows, nrows := decodeKernel(&k)
	k.prog, k.separable = prog, separable
	if separable {
		k.timing, k.timingParams, k.timingRegs = packTiming(&k, prog, rows, nrows)
	}
	k.digest = digestKernel(&k)
	return &k, nil
}

// MustBuild is Build but panics on error.
func (b *Builder) MustBuild() *Kernel {
	k, err := b.Build()
	if err != nil {
		panic(err)
	}
	return k
}
