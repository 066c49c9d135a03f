package ptx_test

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// wmmaOperands counts the fragment operands of k's wmma instructions: one
// per load or store, four per mma.
func wmmaOperands(k *ptx.Kernel) (n int) {
	for _, in := range k.Instrs {
		switch in.Op {
		case ptx.OpWmmaLoad, ptx.OpWmmaStore:
			n++
		case ptx.OpWmmaMMA:
			n += 4
		}
	}
	return n
}

// TestGeneratorFragmentsAreImages pins where the image path applies: every
// fragment of the GEMM generators — both WMMA GEMMs and CUTLASS in every
// precision, tile policy and buffering — is an image group, and Fig 4's
// FragmentDecode, which converts and stores fragment registers with
// ordinary instructions, has none: it reads the registers the per-lane
// loads write, so Figs 7/8 decode as ever.
func TestGeneratorFragmentsAreImages(t *testing.T) {
	for _, k := range gemmKernels(t) {
		if n := wmmaOperands(k); ptx.ImageOperands(k) != n {
			t.Errorf("%s: %d of %d fragment operands are image groups", k.Name, ptx.ImageOperands(k), n)
		}
	}
	must := kernelOf(t)
	for _, arch := range []wmma.Arch{wmma.Volta, wmma.Turing} {
		for _, op := range []wmma.Operand{wmma.MatrixA, wmma.MatrixB, wmma.MatrixC} {
			elem := wmma.F16
			if op == wmma.MatrixC {
				elem = wmma.F32
			}
			k := must(kernels.FragmentDecode(arch, wmma.M16N16K16, op, tensor.RowMajor, elem))
			if n := ptx.ImageOperands(k); n != 0 {
				t.Errorf("%s: %d fragment operands are image groups, want none", k.Name, n)
			}
		}
	}
}
