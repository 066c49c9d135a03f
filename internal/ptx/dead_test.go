package ptx_test

import (
	"slices"
	"testing"

	"repro/internal/cutlass"
	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// The dead-value slice (DESIGN.md "Value-free timing"): the instructions
// every launch skips, because nothing a launch returns — no store, branch,
// address or fault — can see what they compute.

// kernelOf returns the unwrapper of a generator's result.
func kernelOf(t *testing.T) func(*kernels.Launch, error) *ptx.Kernel {
	return func(l *kernels.Launch, err error) *ptx.Kernel {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return l.Kernel
	}
}

// stressKernels are the generators whose tensor-core results nothing
// stores: Fig 12c's mma loop, Section V-C's MAX PERF kernel and Fig 6's
// clocked chain, in both tensor precisions.
func stressKernels(t *testing.T) []*ptx.Kernel {
	must := kernelOf(t)
	var ks []*ptx.Kernel
	for _, p := range []kernels.GemmPrecision{kernels.TensorMixed, kernels.TensorFP16} {
		ks = append(ks,
			must(kernels.MMALoop(p, 8, 16, 3)),
			must(kernels.MaxPerf(p, 4, 4, 16)),
			must(kernels.ClockedMMA(p, 4)))
	}
	return ks
}

// gemmKernels are the other generators bench, tcsim and the experiment
// registry launch: SGEMM, HGEMM, both WMMA GEMMs and CUTLASS, in every
// precision, tile policy and buffering. (bench's mem_stride copies are PTX
// text inside the bench command, whose outputs it verifies.)
func gemmKernels(t *testing.T) []*ptx.Kernel {
	must := kernelOf(t)
	ks := []*ptx.Kernel{
		must(kernels.SGEMMSimt(128, 128, 64)),
		must(kernels.HGEMMSimt(128, 128, 64)),
	}
	for _, p := range []kernels.GemmPrecision{kernels.TensorMixed, kernels.TensorFP16} {
		ks = append(ks,
			must(kernels.WMMAGemmShared(p, 128, 128, 64)),
			must(kernels.WMMAGemmNaive(p, 128, 128, 64)))
		for _, pol := range cutlass.DefaultPolicies() {
			for _, db := range []bool{false, true} {
				pol.DoubleBuffer = db
				ks = append(ks, must(cutlass.Build(cutlass.GemmConfig{Policy: pol, Precision: p, M: 256, N: 256, K: 128})))
			}
		}
	}
	for _, c := range cutlass.TestSuite() {
		ks = append(ks, must(cutlass.Build(c)))
	}
	return ks
}

// redefinition stores a register whose first definition is overwritten,
// under a guard or not, before the store: the first definition is the
// kernel's first mov.
func redefinition(guarded bool) *ptx.Kernel {
	b := ptx.NewBuilder("redefinition")
	out := b.Param("out", ptx.U64)
	p, v, a := b.Reg(), b.Reg(), b.Reg()
	b.Setp(ptx.U32, ptx.CmpLT, p, ptx.SR(ptx.SRegTidX), ptx.Imm(16))
	b.Mov(ptx.U32, v, ptx.Imm(7))
	if guarded {
		b.At(p, false) // lanes 16.. keep the 7
	}
	b.Mov(ptx.U32, v, ptx.Imm(9))
	b.MulWide(a, ptx.SR(ptx.SRegTidX), ptx.Imm(4))
	b.Add(ptx.U64, a, ptx.R(a), ptx.R(out))
	b.St(ptx.Global, 32, ptx.R(a), []ptx.Operand{ptx.R(v)})
	b.Exit()
	return b.MustBuild()
}

// storeOnly computes a value and a fragment that only a store's data
// operands read.
func storeOnly() *ptx.Kernel {
	b := ptx.NewBuilder("store_only")
	out := b.Param("out", ptx.U64)
	a, v := b.Reg(), b.Reg()
	b.MulWide(a, ptx.SR(ptx.SRegTidX), ptx.Imm(4))
	b.Add(ptx.U64, a, ptx.R(a), ptx.R(out))
	b.Mad(ptx.U32, v, ptx.SR(ptx.SRegTidX), ptx.Imm(3), ptx.Imm(1))
	b.St(ptx.Global, 32, ptx.R(a), []ptx.Operand{ptx.R(v)})
	frag := b.WmmaLoad(wmma.Volta, wmma.M16N16K16, wmma.MatrixC, tensor.RowMajor, wmma.F32, ptx.R(out), ptx.Imm(16))
	b.WmmaStore(wmma.Volta, wmma.M16N16K16, tensor.RowMajor, wmma.F32, ptx.R(out), frag, ptx.Imm(16))
	b.Exit()
	return b.MustBuild()
}

func TestDeadSlice(t *testing.T) {
	tensorWork := func(op ptx.Opcode) bool { return op == ptx.OpWmmaLoad || op == ptx.OpWmmaMMA }

	t.Run("stress-tensor-work-dead", func(t *testing.T) {
		for _, k := range stressKernels(t) {
			dead, _ := ptx.SkipClasses(k)
			for i, in := range k.Instrs {
				if tensorWork(in.Op) && !dead[i] {
					t.Errorf("%s: instruction %d (op %d) is live; nothing stores a fragment", k.Name, i, in.Op)
				}
			}
		}
	})

	// The loop counter, its setp and bra, and ClockedMMA's %clock reads, sub
	// and st: everything but the tensor work.
	t.Run("stress-control-live", func(t *testing.T) {
		for _, k := range stressKernels(t) {
			dead, _ := ptx.SkipClasses(k)
			for i, in := range k.Instrs {
				if !tensorWork(in.Op) && dead[i] {
					t.Errorf("%s: instruction %d (op %d) decodes dead", k.Name, i, in.Op)
				}
			}
		}
	})

	t.Run("gemm-generators-nothing-dead", func(t *testing.T) {
		for _, k := range gemmKernels(t) {
			dead, _ := ptx.SkipClasses(k)
			if i := slices.Index(dead, true); i >= 0 {
				t.Errorf("%s: instruction %d (op %d) decodes dead", k.Name, i, k.Instrs[i].Op)
			}
		}
	})

	// The old value survives in the lanes the guard disables, so only an
	// unguarded redefinition kills the first definition.
	t.Run("guarded-redefinition-does-not-kill", func(t *testing.T) {
		for _, guarded := range []bool{true, false} {
			k := redefinition(guarded)
			dead, _ := ptx.SkipClasses(k)
			first := slices.IndexFunc(k.Instrs, func(in ptx.Instr) bool { return in.Op == ptx.OpMov })
			if dead[first] == guarded {
				t.Errorf("guarded %v: first definition dead = %v", guarded, dead[first])
			}
		}
	})

	// Nothing timing reads sees the values (dataOnly), but a store does.
	t.Run("store-data-operand-is-live", func(t *testing.T) {
		k := storeOnly()
		dead, dataOnly := ptx.SkipClasses(k)
		for i, in := range k.Instrs {
			if in.Op != ptx.OpMad && in.Op != ptx.OpWmmaLoad {
				continue
			}
			if dead[i] || !dataOnly[i] {
				t.Errorf("instruction %d (op %d): dead %v, dataOnly %v; want live data", i, in.Op, dead[i], dataOnly[i])
			}
		}
	})

	// The observable slice's seeds contain the control slice's, so a dead
	// instruction is dataOnly wherever the kernel is separable.
	t.Run("dead-within-dataonly", func(t *testing.T) {
		ks := slices.Concat(stressKernels(t), gemmKernels(t),
			[]*ptx.Kernel{redefinition(true), redefinition(false), storeOnly()})
		for _, k := range ks {
			if !k.TimingSeparable() {
				t.Fatalf("%s is not separable", k.Name)
			}
			dead, dataOnly := ptx.SkipClasses(k)
			for i := range dead {
				if dead[i] && !dataOnly[i] {
					t.Errorf("%s: instruction %d (op %d) is dead but not dataOnly", k.Name, i, k.Instrs[i].Op)
				}
			}
		}
	})
}
