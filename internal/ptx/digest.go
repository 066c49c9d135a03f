package ptx

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"repro/internal/wmma"
)

// The kernel digest: a content address of everything about a Kernel the
// functional executor or the timing model reads, computed once in
// Builder.Build (and so in Parse). Two kernels with equal digests
// simulate identically under equal launches, which is what lets
// internal/experiments memoize a launch by content instead of by the
// experiment that issued it.
//
// Every exported field of Kernel and Instr is encoded, with one named
// exception: Instr.Comment is documentation the simulator never reads.
// A wmma.Mapping is encoded by its identity (Arch, Shape, Op, Layout,
// Elem); its Lanes table is a pure function of those through wmma.Map.
// TestDigestCoversEveryField flips each field by reflection, so a field
// added later is either encoded here or added to the exception list.

// Digest returns the kernel's content address, or "" for a
// hand-assembled kernel that skipped Builder.Build.
func (k *Kernel) Digest() string { return k.digest }

// digestEnc is the digest's byte encoding: signed varints, and strings
// and lists prefixed by their length so field boundaries cannot alias.
type digestEnc []byte

func (e *digestEnc) int(v int)    { *e = binary.AppendVarint(*e, int64(v)) }
func (e *digestEnc) u64(v uint64) { *e = binary.AppendUvarint(*e, v) }
func (e *digestEnc) str(s string) { e.int(len(s)); *e = append(*e, s...) }
func (e *digestEnc) bool(b bool) {
	if b {
		*e = append(*e, 1)
	} else {
		*e = append(*e, 0)
	}
}

func (e *digestEnc) mapping(m *wmma.Mapping) {
	e.bool(m != nil)
	if m == nil {
		return
	}
	e.int(int(m.Arch))
	e.int(m.Shape.M)
	e.int(m.Shape.N)
	e.int(m.Shape.K)
	e.int(int(m.Op))
	e.int(int(m.Layout))
	e.int(int(m.Elem))
}

func (e *digestEnc) instr(in *Instr) {
	e.int(int(in.Op))
	e.int(int(in.Type))
	e.int(int(in.SrcType))
	e.int(int(in.Cmp))
	e.int(len(in.Dst))
	for _, r := range in.Dst {
		e.int(r.ID)
	}
	e.int(len(in.Src))
	for _, o := range in.Src {
		e.int(int(o.Kind))
		e.int(o.Reg.ID)
		e.u64(o.Imm)
		e.int(int(o.SReg))
	}
	e.bool(in.Pred != nil)
	if in.Pred != nil {
		e.int(in.Pred.ID)
	}
	e.bool(in.PNeg)
	e.int(int(in.Space))
	e.int(in.Width)
	e.mapping(in.WMap)
	e.mapping(in.WMapA)
	e.mapping(in.WMapB)
	e.mapping(in.WMapD)
	c := in.WConfig
	e.int(int(c.Arch))
	e.int(c.Shape.M)
	e.int(c.Shape.N)
	e.int(c.Shape.K)
	e.int(int(c.ALayout))
	e.int(int(c.BLayout))
	e.int(int(c.AType))
	e.int(int(c.CType))
	e.int(int(c.DType))
	e.bool(c.Satf)
	e.str(in.Target)
}

// digestKernel computes the content address Digest reports.
func digestKernel(k *Kernel) string {
	e := make(digestEnc, 0, 64+48*len(k.Instrs))
	e.str(k.Name)
	e.int(len(k.Params))
	for _, p := range k.Params {
		e.str(p.Name)
		e.int(int(p.Type))
	}
	e.int(len(k.ParamRegs))
	for _, r := range k.ParamRegs {
		e.int(r.ID)
	}
	e.int(k.NumRegs)
	e.int(k.SharedBytes)
	labels := make([]string, 0, len(k.Labels))
	//simlint:ordered the names are sorted below before they are encoded
	for name := range k.Labels {
		labels = append(labels, name)
	}
	sort.Strings(labels)
	e.int(len(labels))
	for _, name := range labels {
		e.str(name)
		e.int(k.Labels[name])
	}
	e.int(len(k.Instrs))
	for i := range k.Instrs {
		e.instr(&k.Instrs[i])
	}
	sum := sha256.Sum256(e)
	return string(sum[:])
}
