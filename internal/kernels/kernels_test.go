package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/ptx"
	"repro/internal/tcore"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// gemmElems returns the element precisions (a/b, c/d) of a GEMM flavour.
func gemmElems(p GemmPrecision) (ab, cd wmma.Precision) {
	switch p {
	case TensorMixed:
		return wmma.F16, wmma.F32
	case TensorFP16:
		return wmma.F16, wmma.F16
	case SimtFP32:
		return wmma.F32, wmma.F32
	default:
		return wmma.F16, wmma.F16
	}
}

// runGemm uploads random matrices, runs the launch (functionally or on
// the timing simulator), and returns (got, want).
func runGemm(t *testing.T, l *Launch, p GemmPrecision, m, n, k int, timed bool) (*tensor.Matrix, *tensor.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*31 + n*7 + k)))
	a := tensor.New(m, k, tensor.RowMajor)
	bm := tensor.New(k, n, tensor.RowMajor)
	c := tensor.New(m, n, tensor.RowMajor)
	a.FillRandomFP16(rng)
	bm.FillRandomFP16(rng)
	c.FillRandomFP16(rng)

	cfg := gpu.TitanV()
	cfg.NumSMs = 4
	dev := cuda.MustNewDevice(cfg)
	abP, cdP := gemmElems(p)
	da := dev.UploadMatrix(a, abP)
	db := dev.UploadMatrix(bm, abP)
	dc := dev.UploadMatrix(c, cdP)
	dd := dev.MallocMatrix(m, n, cdP)

	if timed {
		if _, err := dev.Launch(l.Kernel, l.Grid, l.Block, da, db, dc, dd); err != nil {
			t.Fatal(err)
		}
	} else if err := dev.RunFunctional(l.Kernel, l.Grid, l.Block, da, db, dc, dd); err != nil {
		t.Fatal(err)
	}
	got := dev.ReadMatrix(dd, m, n, tensor.RowMajor, cdP)
	want := tensor.Gemm(a, bm, c, tensor.RowMajor)
	return got, want
}

func gemmTol(p GemmPrecision, k int) float64 {
	switch p {
	case TensorMixed, SimtFP32:
		return 1e-3
	default: // fp16 accumulation rounds per step
		return float64(k) * 0.03
	}
}

func TestWMMAGemmNaiveCorrect(t *testing.T) {
	for _, p := range []GemmPrecision{TensorMixed, TensorFP16} {
		for _, sz := range [][3]int{{32, 32, 32}, {64, 48, 32}} {
			m, n, k := sz[0], sz[1], sz[2]
			l, err := WMMAGemmNaive(p, m, n, k)
			if err != nil {
				t.Fatal(err)
			}
			got, want := runGemm(t, l, p, m, n, k, false)
			if d := tensor.MaxAbsDiff(got, want); d > gemmTol(p, k) {
				t.Errorf("%v %dx%dx%d: max diff %g", p, m, n, k, d)
			}
		}
	}
}

func TestWMMAGemmSharedCorrect(t *testing.T) {
	for _, p := range []GemmPrecision{TensorMixed, TensorFP16} {
		m, n, k := 64, 64, 48
		l, err := WMMAGemmShared(p, m, n, k)
		if err != nil {
			t.Fatal(err)
		}
		got, want := runGemm(t, l, p, m, n, k, false)
		if d := tensor.MaxAbsDiff(got, want); d > gemmTol(p, k) {
			t.Errorf("%v: max diff %g", p, d)
		}
	}
}

func TestWMMAGemmSharedUnderTiming(t *testing.T) {
	m, n, k := 64, 64, 32
	l, err := WMMAGemmShared(TensorMixed, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	got, want := runGemm(t, l, TensorMixed, m, n, k, true)
	if d := tensor.MaxAbsDiff(got, want); d > 1e-3 {
		t.Errorf("timed run diverged: %g", d)
	}
}

func TestSGEMMSimtCorrect(t *testing.T) {
	m, n, k := 64, 64, 32
	l, err := SGEMMSimt(m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	got, want := runGemm(t, l, SimtFP32, m, n, k, false)
	if d := tensor.MaxAbsDiff(got, want); d > 1e-3 {
		t.Errorf("sgemm: max diff %g", d)
	}
	if l.FLOPs != 2*64*64*32 {
		t.Errorf("FLOPs = %v", l.FLOPs)
	}
}

func TestHGEMMSimtCorrect(t *testing.T) {
	m, n, k := 64, 128, 32
	l, err := HGEMMSimt(m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	got, want := runGemm(t, l, SimtFP16, m, n, k, false)
	if d := tensor.MaxAbsDiff(got, want); d > gemmTol(SimtFP16, k) {
		t.Errorf("hgemm: max diff %g", d)
	}
}

func TestGemmDimChecks(t *testing.T) {
	if _, err := WMMAGemmNaive(TensorMixed, 17, 16, 16); err == nil {
		t.Error("non-multiple M should fail")
	}
	if _, err := WMMAGemmShared(TensorMixed, 16, 16, 16); err == nil {
		t.Error("shared kernel needs 32-multiples")
	}
	if _, err := WMMAGemmNaive(SimtFP32, 16, 16, 16); err == nil {
		t.Error("naive wmma should reject SIMT precision")
	}
	if _, err := HGEMMSimt(64, 64, 32); err == nil {
		t.Error("hgemm needs N multiple of 128")
	}
}

func TestMMALoopAndMaxPerf(t *testing.T) {
	l, err := MMALoop(TensorMixed, 4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.Block.Count() != 128 {
		t.Errorf("block = %v", l.Block)
	}
	wantFLOPs := float64(4*8*2) * 2 * 4096
	if l.FLOPs != wantFLOPs {
		t.Errorf("FLOPs = %v, want %v", l.FLOPs, wantFLOPs)
	}
	mp, err := MaxPerf(TensorFP16, 10, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Grid.Count() != 10 || mp.FLOPs != 10*wantFLOPs {
		t.Errorf("maxperf grid %v flops %v", mp.Grid, mp.FLOPs)
	}
	cfg := gpu.TitanV()
	cfg.NumSMs = 2
	dev := cuda.MustNewDevice(cfg)
	scratch := dev.Mem.Malloc(2048)
	st, err := dev.Launch(mp.Kernel, mp.Grid, mp.Block, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if st.TensorOps != 10*4*8*2 {
		t.Errorf("tensor ops = %d, want %d", st.TensorOps, 10*4*8*2)
	}
}

func TestClockedMMA(t *testing.T) {
	l, err := ClockedMMA(TensorMixed, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.TitanV()
	cfg.NumSMs = 1
	dev := cuda.MustNewDevice(cfg)
	scratch := dev.Mem.Malloc(2048)
	out := dev.Mem.Malloc(64)
	if _, err := dev.Launch(l.Kernel, l.Grid, l.Block, scratch, out); err != nil {
		t.Fatal(err)
	}
	var buf [4]byte
	dev.Mem.Read(out, buf[:])
	delta := uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
	// Four dependent mma ops: at least 4×54 cycles must elapse.
	if delta < 4*54 {
		t.Errorf("clocked delta = %d, want ≥ %d", delta, 4*54)
	}
}

func TestFragmentDecodeRecoversMapping(t *testing.T) {
	shape := wmma.M16N16K16
	mapping := wmma.MustMap(wmma.Volta, shape, wmma.MatrixA, tensor.RowMajor, wmma.F16)
	l, err := FragmentDecode(wmma.Volta, shape, wmma.MatrixA, tensor.RowMajor, wmma.F16)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(16, 16, tensor.RowMajor)
	in.FillSequential() // distinct values: value decodes the coordinate
	cfg := gpu.TitanV()
	cfg.NumSMs = 1
	dev := cuda.MustNewDevice(cfg)
	din := dev.UploadMatrix(in, wmma.F16)
	fragLen := mapping.FragmentLen()
	dout := dev.Mem.Malloc(32 * fragLen * 4)
	if err := dev.RunFunctional(l.Kernel, l.Grid, l.Block, din, dout); err != nil {
		t.Fatal(err)
	}
	out := dev.ReadMatrix(dout, 32, fragLen, tensor.RowMajor, wmma.F32)
	for lane := 0; lane < 32; lane++ {
		for slot := 0; slot < fragLen; slot++ {
			c := mapping.Lanes[lane][slot]
			if got, want := out.At(lane, slot), in.At(c.Row, c.Col); got != want {
				t.Fatalf("lane %d slot %d: decoded %v, mapping says %v at %v", lane, slot, got, want, c)
			}
		}
	}
}

func TestMaxPerfApproachesPeak(t *testing.T) {
	// One SM, 4 warps (one per sub-core), long loop: sustained throughput
	// should approach the paper's ~88 % of peak.
	cfg := gpu.TitanV()
	cfg.NumSMs = 1
	l, err := MMALoop(TensorMixed, 4, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	dev := cuda.MustNewDevice(cfg)
	scratch := dev.Mem.Malloc(2048)
	st, err := dev.Launch(l.Kernel, l.Grid, l.Block, scratch)
	if err != nil {
		t.Fatal(err)
	}
	flopPerCycle := l.FLOPs / float64(st.Cycles)
	peak := float64(cfg.SubCores * tcore.TensorCoresPerSubCore * tcore.FEDPPerTensorCore * 8)
	frac := flopPerCycle / peak
	if frac < 0.80 || frac > 0.95 {
		t.Errorf("sustained fraction = %.3f of peak, want ≈ 0.88 (paper: 109.6/125)", frac)
	}
	_ = ptx.D1 // keep ptx imported for geometry helpers used above
}
