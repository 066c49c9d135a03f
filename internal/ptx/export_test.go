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
