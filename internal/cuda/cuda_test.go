package cuda

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/ptx"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	cfg := gpu.TitanV()
	cfg.NumSMs = 2
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMallocAlignmentAndGrowth(t *testing.T) {
	m := NewDeviceMemory()
	a := m.Malloc(10)
	b := m.Malloc(10)
	if a%256 != 0 || b%256 != 0 {
		t.Errorf("allocations not 256-aligned: %d, %d", a, b)
	}
	if b <= a {
		t.Errorf("allocator did not advance: %d then %d", a, b)
	}
	// Writing far beyond current size must grow transparently.
	m.Write(1<<20, []byte{42})
	buf := make([]byte, 1)
	m.Read(1<<20, buf)
	if buf[0] != 42 {
		t.Errorf("read back %d", buf[0])
	}
	// Reads beyond written extent return zeros.
	m.Read(1<<21, buf)
	if buf[0] != 0 {
		t.Error("unwritten memory should read zero")
	}
}

// A read never grows the image: a wild address reads zeros instead of
// asking the runtime for the span up to it (a 4-byte read at 1<<36 used to
// die with an unrecoverable out-of-memory), and a read that straddles the
// image's end gets the bytes inside it.
func TestReadDoesNotGrow(t *testing.T) {
	m := NewDeviceMemory()
	a := m.Malloc(16)
	m.Write(a, []byte{1, 2, 3, 4})
	size := len(m.data)
	buf := []byte{9, 9, 9, 9}
	m.Read(1<<36, buf)
	if string(buf) != "\x00\x00\x00\x00" {
		t.Errorf("wild read = %v, want zeros", buf)
	}
	end := uint64(size) - 2
	m.Write(end, []byte{5, 6})
	buf = []byte{9, 9, 9, 9}
	m.Read(end, buf)
	if string(buf) != "\x05\x06\x00\x00" {
		t.Errorf("read across the image's end = %v, want [5 6 0 0]", buf)
	}
	if len(m.data) != size {
		t.Errorf("reads grew the image from %d to %d bytes", size, len(m.data))
	}
}

func TestMatrixRoundTripAllPrecisions(t *testing.T) {
	d := testDevice(t)
	for _, p := range []wmma.Precision{wmma.F16, wmma.F32, wmma.S32, wmma.S8, wmma.U8} {
		src := tensor.New(5, 7, tensor.RowMajor)
		switch {
		case p == wmma.U8:
			src.FillFunc(func(i, j int) float64 { return float64((i*7 + j) % 200) })
		case p.IsInt():
			src.FillFunc(func(i, j int) float64 { return float64((i*7+j)%200 - 100) })
		default:
			src.FillFunc(func(i, j int) float64 { return float64(i*7+j) / 8 })
		}
		addr := d.UploadMatrix(src, p)
		got := d.ReadMatrix(addr, 5, 7, tensor.RowMajor, p)
		if diff := tensor.MaxAbsDiff(src, got); diff != 0 {
			t.Errorf("%v: round trip differs by %g", p, diff)
		}
	}
}

func TestMatrixLayoutsPreserved(t *testing.T) {
	d := testDevice(t)
	src := tensor.New(4, 6, tensor.ColMajor)
	src.FillSequential()
	addr := d.UploadMatrix(src, wmma.F32)
	got := d.ReadMatrix(addr, 4, 6, tensor.ColMajor, wmma.F32)
	if !tensor.Equal(src, got, 0) {
		t.Error("column-major round trip failed")
	}
	// Reading with the other layout must still see the same logical
	// values only if re-encoded; reading raw col-major data as row-major
	// gives transposed-ish garbage — verify they differ to catch layout
	// bugs that would silently alias.
	rowView := d.ReadMatrix(addr, 4, 6, tensor.RowMajor, wmma.F32)
	if tensor.Equal(src, rowView, 0) {
		t.Error("layout mismatch should change element positions for a non-symmetric fill")
	}
}

func TestElemBytes(t *testing.T) {
	cases := map[wmma.Precision]int{
		wmma.F16: 2, wmma.F32: 4, wmma.S32: 4, wmma.S8: 1, wmma.U8: 1,
		wmma.S4: 1, wmma.U4: 1, // sub-byte stored one per byte
	}
	for p, want := range cases {
		if got := ElemBytes(p); got != want {
			t.Errorf("ElemBytes(%v) = %d, want %d", p, got, want)
		}
	}
}

func TestLaunchAndFunctionalAgree(t *testing.T) {
	// The same kernel must produce identical memory through the timed
	// and functional paths.
	b := ptx.NewBuilder("square")
	out := b.Param("out", ptx.U64)
	tid, v, addr := b.Reg(), b.Reg(), b.Reg()
	b.Mov(ptx.U32, tid, ptx.SR(ptx.SRegTidX))
	b.Mul(ptx.U32, v, ptx.R(tid), ptx.R(tid))
	b.MulWide(addr, ptx.R(tid), ptx.Imm(4))
	b.Add(ptx.U64, addr, ptx.R(addr), ptx.R(out))
	b.St(ptx.Global, 32, ptx.R(addr), []ptx.Operand{ptx.R(v)})
	b.Exit()
	k := b.MustBuild()

	dTimed := testDevice(t)
	a1 := dTimed.Mem.Malloc(256)
	if _, err := dTimed.Launch(k, ptx.D1(1), ptx.D1(64), a1); err != nil {
		t.Fatal(err)
	}
	dFunc := testDevice(t)
	a2 := dFunc.Mem.Malloc(256)
	if err := dFunc.RunFunctional(k, ptx.D1(1), ptx.D1(64), a2); err != nil {
		t.Fatal(err)
	}
	g1 := dTimed.ReadMatrix(a1, 1, 64, tensor.RowMajor, wmma.S32)
	g2 := dFunc.ReadMatrix(a2, 1, 64, tensor.RowMajor, wmma.S32)
	if !tensor.Equal(g1, g2, 0) {
		t.Error("timed and functional executions disagree")
	}
	if g1.At(0, 9) != 81 {
		t.Errorf("square(9) = %v", g1.At(0, 9))
	}
}

// A Turing INT8 mma kernel must run end to end on the RTX 2080 timing
// configuration.
func TestTuringInt8UnderTiming(t *testing.T) {
	cfgW := wmma.Config{Arch: wmma.Turing, Shape: wmma.M16N16K16,
		ALayout: tensor.RowMajor, BLayout: tensor.ColMajor,
		AType: wmma.S8, CType: wmma.S32, DType: wmma.S32}
	b := ptx.NewBuilder("turing_int8")
	pa := b.Param("a", ptx.U64)
	pb := b.Param("b", ptx.U64)
	pc := b.Param("c", ptx.U64)
	pd := b.Param("d", ptx.U64)
	fa := b.WmmaLoad(cfgW.Arch, cfgW.Shape, wmma.MatrixA, cfgW.ALayout, cfgW.AType, ptx.R(pa), ptx.Imm(16))
	fb := b.WmmaLoad(cfgW.Arch, cfgW.Shape, wmma.MatrixB, cfgW.BLayout, cfgW.AType, ptx.R(pb), ptx.Imm(16))
	fc := b.WmmaLoad(cfgW.Arch, cfgW.Shape, wmma.MatrixC, tensor.RowMajor, cfgW.CType, ptx.R(pc), ptx.Imm(16))
	fd := b.WmmaMMA(cfgW, fa, fb, fc)
	b.WmmaStore(cfgW.Arch, cfgW.Shape, tensor.RowMajor, cfgW.DType, ptx.R(pd), fd, ptx.Imm(16))
	b.Exit()
	k := b.MustBuild()

	cfg := gpu.RTX2080()
	cfg.NumSMs = 1
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.New(16, 16, tensor.RowMajor)
	bm := tensor.New(16, 16, tensor.ColMajor)
	c := tensor.New(16, 16, tensor.RowMajor)
	a.FillFunc(func(i, j int) float64 { return float64((i+j)%16 - 8) })
	bm.FillFunc(func(i, j int) float64 { return float64((i*j)%16 - 8) })
	c.FillConst(5)
	da := dev.UploadMatrix(a, wmma.S8)
	db := dev.UploadMatrix(bm, wmma.S8)
	dc := dev.UploadMatrix(c, wmma.S32)
	dd := dev.MallocMatrix(16, 16, wmma.S32)
	st, err := dev.Launch(k, ptx.D1(1), ptx.D1(32), da, db, dc, dd)
	if err != nil {
		t.Fatal(err)
	}
	got := dev.ReadMatrix(dd, 16, 16, tensor.RowMajor, wmma.S32)
	want := tensor.Gemm(a, bm, c, tensor.RowMajor)
	if d := tensor.MaxAbsDiff(got, want); d != 0 {
		t.Errorf("turing int8 mma differs by %g", d)
	}
	// Table I: the 8-bit 16×16×16 sequence totals 59 cycles; the end to
	// end latency must be at least that.
	if st.Cycles < 59 {
		t.Errorf("cycles = %d, below the Table I floor", st.Cycles)
	}
	if st.TensorOps != 1 {
		t.Errorf("tensor ops = %d", st.TensorOps)
	}
}
