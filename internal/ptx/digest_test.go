package ptx

import (
	"strings"
	"testing"

	"repro/internal/keytest"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// digestExceptions are the exported Kernel and Instr fields (by keytest
// path prefix) the digest deliberately leaves out, each with the reason
// it is safe — the list digest.go documents.
var digestExceptions = map[string]string{
	"Instrs[0].Comment":     "documentation; neither the executor nor the timing model reads it",
	"Instrs[0].WMap.Lanes":  "a pure function of the mapping's identity fields through wmma.Map",
	"Instrs[0].WMapA.Lanes": "as WMap.Lanes",
	"Instrs[0].WMapB.Lanes": "as WMap.Lanes",
	"Instrs[0].WMapD.Lanes": "as WMap.Lanes",
}

// Flipping any exported field of Kernel or Instr — reached by
// reflection, so a field added later is covered without touching this
// test — changes the digest, unless the field is a documented exception,
// in which case it must not.
func TestDigestCoversEveryField(t *testing.T) {
	// Identity-only mappings: the walk writes through these pointers, and
	// wmma.Map's own tables are frozen.
	mapping := func(op wmma.Operand) *wmma.Mapping {
		return &wmma.Mapping{Arch: wmma.Volta, Shape: wmma.M16N16K16, Op: op, Layout: tensor.RowMajor, Elem: wmma.F16}
	}
	pred := Reg{ID: 3}
	k := Kernel{
		Name:      "k",
		Params:    []Param{{Name: "a", Type: U64}},
		ParamRegs: []Reg{{ID: 0}},
		Instrs: []Instr{{
			Op: OpWmmaMMA, Type: F32, SrcType: F16, Cmp: CmpLT,
			Dst: []Reg{{ID: 1}}, Src: []Operand{R(Reg{ID: 2})}, Pred: &pred,
			Space: Shared, Width: 32,
			WMap: mapping(wmma.MatrixC), WMapA: mapping(wmma.MatrixA), WMapB: mapping(wmma.MatrixB), WMapD: mapping(wmma.MatrixC),
			Target: "loop", Comment: "c",
		}},
		Labels:      map[string]int{"loop": 0},
		NumRegs:     4,
		SharedBytes: 64,
	}
	base := digestKernel(&k)
	if digestKernel(&k) != base {
		t.Fatal("digest is not a function of the kernel")
	}
	seen := 0
	keytest.EachField(&k, func(path string) {
		seen++
		changed := digestKernel(&k) != base
		for prefix, why := range digestExceptions {
			if strings.HasPrefix(path, prefix) {
				if changed {
					t.Errorf("%s is excepted (%s) but changes the digest", path, why)
				}
				return
			}
		}
		if !changed {
			t.Errorf("changing %s leaves the digest unchanged: encode it in digest.go or document the exception", path)
		}
	})
	if seen < 40 {
		t.Errorf("walk visited only %d fields; the fixture no longer reaches the IR", seen)
	}
}

// Build and Parse seal the kernel with its digest: equal programs agree,
// different ones do not, and a hand-assembled kernel has none.
func TestDigestSetByBuildAndParse(t *testing.T) {
	build := func(imm uint64) *Kernel {
		b := NewBuilder("k")
		r := b.Reg()
		b.Mov(U32, r, Imm(imm))
		b.Exit()
		return b.MustBuild()
	}
	a, same, other := build(1), build(1), build(2)
	if a.Digest() == "" || a.Digest() != same.Digest() {
		t.Error("two builds of one program disagree on the digest")
	}
	if a.Digest() == other.Digest() {
		t.Error("programs differing in an immediate share a digest")
	}
	const src = ".entry k ()\n{\n\tmov.u32 %r0, 1;\n\texit;\n}\n"
	if p := MustParse(src); p.Digest() == "" || p.Digest() != MustParse(src).Digest() {
		t.Error("Parse does not seal the kernel with a stable digest")
	}
	if (&Kernel{Name: "hand"}).Digest() != "" {
		t.Error("a hand-assembled kernel reports a digest")
	}
}
