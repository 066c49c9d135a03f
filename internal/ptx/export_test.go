package ptx

// The seam of the package's external tests (package ptx_test), which build
// kernels with internal/kernels and internal/cutlass — packages that import
// this one.

// SkipClasses reports, per instruction of k's decoded program, whether it
// decodes dead and whether it decodes dataOnly (skipTiming).
func SkipClasses(k *Kernel) (dead, dataOnly []bool) {
	for i := range k.prog {
		dead = append(dead, k.prog[i].skip&skipDead != 0)
		dataOnly = append(dataOnly, k.prog[i].skip&skipTiming != 0)
	}
	return dead, dataOnly
}

// ImageOperands counts the wmma fragment operands of k's decoded program
// that name an image group: the operands the batched path may hold as
// tile images.
func ImageOperands(k *Kernel) (n int) {
	for i := range k.prog {
		for _, g := range k.prog[i].img {
			if g != nil {
				n++
			}
		}
	}
	return n
}

// FragmentShapes returns, per wmma.load/store of k's decoded program, its
// access shape and that shape's fragment plan as opaque pointers, for
// identity comparisons.
func FragmentShapes(k *Kernel) (shapes, plans []any) {
	for i := range k.prog {
		if sh := k.prog[i].wshape; sh != nil {
			shapes, plans = append(shapes, sh), append(plans, sh.plan)
		}
	}
	return shapes, plans
}

// PerLaneFragments returns a copy of k whose wmma instructions all take
// the per-lane fragment loops: no instruction has an access shape or an
// image group, none is skipped, and the copy is neither separable nor
// steps ahead, so a TimingOnly warp runs the full program. It is the
// reference the batched fragment path is compared against. The copy keeps
// k's digest; k is unchanged.
func PerLaneFragments(k *Kernel) *Kernel {
	c := *k
	c.prog, _, _, _, _ = decodeKernel(&c)
	for i := range c.prog {
		d := &c.prog[i]
		d.wshape, d.img, d.skip = nil, [4]*imageGroup{}, 0
	}
	c.timing, c.timingParams, c.timingRegs = nil, nil, 0
	c.separable, c.ahead = false, false
	return &c
}

// InterpretedALU returns a copy of k whose ALU and SFU instructions all
// decode to the per-lane interpreted executor (aluGeneric), sliced again
// as Builder.Build slices: the reference the decoded dispatch is compared
// against. The copy keeps k's digest; k is unchanged.
func InterpretedALU(k *Kernel) *Kernel {
	c := *k
	prog, _, _, _, _ := decodeKernel(&c)
	for i := range prog {
		if d := &prog[i]; d.Class == DClassALU || d.Class == DClassSFU {
			d.alu = aluGeneric
		}
		prog[i].skip = 0
	}
	separable, ahead, rows, nrows := sliceKernel(&c, prog)
	c.prog, c.separable, c.ahead = prog, separable, ahead
	c.timing, c.timingParams, c.timingRegs = nil, nil, 0
	if separable {
		c.timing, c.timingParams, c.timingRegs = packTiming(&c, prog, rows, nrows)
	}
	return &c
}

// Interpreted reports whether d decodes to the per-lane interpreted ALU
// executor.
func Interpreted(d *DInstr) bool { return d.alu == aluGeneric }
