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
