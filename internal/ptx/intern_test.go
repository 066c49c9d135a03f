package ptx_test

import (
	"runtime"
	"testing"

	"repro/internal/cutlass"
	"repro/internal/kernels"
	"repro/internal/ptx"
)

// cutlass64 is the 64×64-tile mixed-precision CUTLASS kernel.
var cutlass64 = cutlass.GemmConfig{Policy: cutlass.TilePolicy{BlockM: 64, BlockN: 64, WarpM: 32, WarpN: 32},
	Precision: kernels.TensorMixed, M: 64, N: 64, K: 64}

func buildKernel(t *testing.T, c cutlass.GemmConfig) *ptx.Kernel {
	t.Helper()
	l, err := cutlass.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	return l.Kernel
}

// Fragment plans are per mapping, not per instruction: two builds of the
// same kernel have equal digests and point at the same plans, and within
// a kernel the fragment accesses of one plan, leading dimension and
// element size share one access shape.
func TestBuildsShareFragmentPlans(t *testing.T) {
	a, b := buildKernel(t, cutlass64), buildKernel(t, cutlass64)
	if a.Digest() != b.Digest() {
		t.Fatalf("digests differ: %s vs %s", a.Digest(), b.Digest())
	}
	shA, plA := ptx.FragmentShapes(a)
	_, plB := ptx.FragmentShapes(b)
	if len(plA) == 0 || len(plA) != len(plB) {
		t.Fatalf("%d and %d fragment accesses", len(plA), len(plB))
	}
	for i := range plA {
		if plA[i] != plB[i] {
			t.Errorf("access %d: the two builds hold different plans", i)
		}
	}
	distinct := make(map[any]bool)
	for _, sh := range shA {
		distinct[sh] = true
	}
	if len(distinct) >= len(shA) {
		t.Errorf("%d fragment accesses hold %d access shapes: none shared", len(shA), len(distinct))
	}
}

// maxCutlass64Bytes bounds the heap a built cutlass64 kernel retains once
// the process's mapping and plan tables are warm. Per-instruction copies of
// mappings and plans took it to about 470 KiB.
const maxCutlass64Bytes = 256 << 10

func TestBuiltKernelRetainedBytes(t *testing.T) {
	buildKernel(t, cutlass64) // fill the shared tables
	least := int64(-1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		k := buildKernel(t, cutlass64)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(k)
		if n := int64(after.HeapAlloc) - int64(before.HeapAlloc); least < 0 || n < least {
			least = n
		}
	}
	if least > maxCutlass64Bytes {
		t.Errorf("a built %v retains %d bytes, bound %d", cutlass64, least, maxCutlass64Bytes)
	}
	t.Logf("a built %v retains %d bytes", cutlass64, least)
}
