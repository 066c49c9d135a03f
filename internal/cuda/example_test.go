package cuda_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// A mixed-precision tensor-core GEMM (FP16 inputs, FP32 accumulate) on a
// 2-SM Titan V slice: upload the operands, launch the generated WMMA
// kernel on the timing simulator and compare the result with the float64
// reference.
func ExampleDevice_Launch() {
	const m, n, k = 64, 64, 64
	l, err := kernels.WMMAGemmShared(kernels.TensorMixed, m, n, k)
	if err != nil {
		panic(err)
	}
	cfg := gpu.TitanV()
	cfg.NumSMs = 2
	dev := cuda.MustNewDevice(cfg)

	rng := rand.New(rand.NewSource(1))
	a := tensor.New(m, k, tensor.RowMajor)
	b := tensor.New(k, n, tensor.RowMajor)
	c := tensor.New(m, n, tensor.RowMajor)
	a.FillRandomFP16(rng)
	b.FillRandomFP16(rng)
	c.FillRandomFP16(rng)
	da := dev.UploadMatrix(a, wmma.F16)
	db := dev.UploadMatrix(b, wmma.F16)
	dc := dev.UploadMatrix(c, wmma.F32)
	dd := dev.MallocMatrix(m, n, wmma.F32)

	st, err := dev.Launch(l.Kernel, l.Grid, l.Block, da, db, dc, dd)
	if err != nil {
		panic(err)
	}
	d := dev.ReadMatrix(dd, m, n, tensor.RowMajor, wmma.F32)
	fmt.Printf("%d cycles, %d warp instructions, %d wmma.mma\n", st.Cycles, st.WarpInstructions, st.TensorOps)
	fmt.Printf("max |error| vs float64 reference: %g\n", tensor.MaxAbsDiff(d, tensor.Gemm(a, b, c, tensor.RowMajor)))
	// Output:
	// 3778 cycles, 1520 warp instructions, 64 wmma.mma
	// max |error| vs float64 reference: 0
}

// saxpy, y[i] = 2·x[i] + y[i], written as PTX-subset text: the path a
// kernel emitted by a compiler takes into the simulator.
const saxpy = `
.target sm_70
.entry saxpy(.param .u64 x, .param .u64 y, .param .u32 n)
{
  mov.u32      %i, %tid.x;
  setp.ge.u32  %done, %i, %n;
@%done bra out;
  mul.wide.u32 %off, %i, 4;
  add.u64      %xp, %off, %x;
  add.u64      %yp, %off, %y;
  ld.global.32 %xv, [%xp];
  ld.global.32 %yv, [%yp];
  mov.f32      %a, 0f40000000;      // 2.0
  mad.f32      %yv, %a, %xv, %yv;
  st.global.32 [%yp], %yv;
out:
  exit;
}`

// Assemble PTX text with ptx.Parse and launch it: one 128-thread block
// over 96 elements, so the fourth warp only evaluates the guard and exits.
func Example_ptxText() {
	kernel, err := ptx.Parse(saxpy)
	if err != nil {
		panic(err)
	}
	cfg := gpu.TitanV()
	cfg.NumSMs = 1
	dev := cuda.MustNewDevice(cfg)
	const n = 96
	x := dev.Mem.Malloc(4 * n)
	y := dev.Mem.Malloc(4 * n)
	buf := make([]byte, 4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf, math.Float32bits(float32(i)))
		dev.Mem.Write(x+uint64(4*i), buf)
		binary.LittleEndian.PutUint32(buf, math.Float32bits(100))
		dev.Mem.Write(y+uint64(4*i), buf)
	}

	st, err := dev.Launch(kernel, ptx.D1(1), ptx.D1(128), x, y, n)
	if err != nil {
		panic(err)
	}
	var maxErr float64
	for i := 0; i < n; i++ {
		dev.Mem.Read(y+uint64(4*i), buf)
		got := float64(math.Float32frombits(binary.LittleEndian.Uint32(buf)))
		maxErr = max(maxErr, math.Abs(got-(2*float64(i)+100)))
	}
	fmt.Printf("%s: %d instructions\n", kernel.Name, len(kernel.Instrs))
	fmt.Printf("%d cycles, %d warp instructions\n", st.Cycles, st.WarpInstructions)
	fmt.Printf("max |error|: %g\n", maxErr)
	// Output:
	// saxpy: 12 instructions
	// 582 cycles, 40 warp instructions
	// max |error|: 0
}
