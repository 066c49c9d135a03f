package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/ptx"
)

// The mem_stride kernels are written as PTX text and assembled with
// ptx.Parse, so the memory system sees access geometries no generated
// GEMM produces and the parser has a consumer in the benchmark.

// copyStrideSrc copies src[j] to dst[j] for a per-thread word index j
// that starts at gid*stride and advances by step words each iteration,
// wrapped to the buffer: lane stride 1 is a fully coalesced stream,
// 2 wastes half of every sector, 32 and 33 touch one sector per lane.
const copyStrideSrc = `
.target sm_70
.entry copy_stride_%[1]d(.param .u64 src, .param .u64 dst)
{
  mov.u32      %%tid, %%tid.x;
  mov.u32      %%cta, %%ctaid.x;
  mov.u32      %%nt, %%ntid.x;
  mad.u32      %%gid, %%cta, %%nt, %%tid;
  mul.u32      %%j, %%gid, %[1]d;
  mov.u32      %%it, 0;
loop:
  and.u32      %%w, %%j, %[2]d;
  mul.wide.u32 %%off, %%w, 4;
  add.u64      %%sp, %%off, %%src;
  add.u64      %%dp, %%off, %%dst;
  ld.global.32 %%v, [%%sp];
  st.global.32 [%%dp], %%v;
  add.u32      %%j, %%j, %[3]d;
  add.u32      %%it, %%it, 1;
  setp.lt.u32  %%p, %%it, %[4]d;
@%%p bra loop;
  exit;
}`

// sharedStrideSrc has every thread store to and reload from its own
// shared-memory word at tid*stride: stride 1 is conflict free, 2 is
// two-way, 32 puts a whole warp on one bank. The running sum lands in
// out[gid] so the result can be checked.
const sharedStrideSrc = `
.target sm_70
.entry shared_stride_%[1]d(.param .u64 out)
{
  .shared buf %[2]d
  mov.u32      %%tid, %%tid.x;
  mov.u32      %%cta, %%ctaid.x;
  mov.u32      %%nt, %%ntid.x;
  mad.u32      %%gid, %%cta, %%nt, %%tid;
  mul.u32      %%w, %%tid, %[1]d;
  mul.wide.u32 %%off, %%w, 4;
  add.u64      %%sp, %%off, buf;
  mov.u32      %%acc, 0;
  mov.u32      %%it, 0;
loop:
  add.u32      %%v, %%it, %%gid;
  st.shared.32 [%%sp], %%v;
  ld.shared.32 %%r, [%%sp];
  add.u32      %%acc, %%acc, %%r;
  add.u32      %%it, %%it, 1;
  setp.lt.u32  %%p, %%it, %[3]d;
@%%p bra loop;
  mul.wide.u32 %%goff, %%gid, 4;
  add.u64      %%gp, %%goff, %%out;
  st.global.32 [%%gp], %%acc;
  exit;
}`

func parseLaunch(src string, ctas, threads int) (*kernels.Launch, error) {
	k, err := ptx.Parse(src)
	if err != nil {
		return nil, err
	}
	return &kernels.Launch{Kernel: k, Grid: ptx.D1(ctas), Block: ptx.D1(threads)}, nil
}

func memStrideLaunches(tiny bool, rng *rand.Rand) []*simLaunch {
	const threads = 256
	ctas, iters, words := 32, 128, 1<<20
	if tiny {
		ctas, iters, words = 2, 4, 1<<14
	}
	cfg := titanVSlice(4, gpu.GTO)
	nthreads := ctas * threads

	// The copy source: seeded random words.
	pattern := make([]byte, 4*words)
	rng.Read(pattern)

	var ls []*simLaunch
	for _, stride := range []int{1, 2, 32, 33} {
		step := nthreads * stride
		src := fmt.Sprintf(copyStrideSrc, stride, words-1, step, iters)
		ls = append(ls, &simLaunch{
			name: fmt.Sprintf("copy_stride_%d", stride), buildSpan: "ptx.parse", cfg: cfg,
			build: func() (*kernels.Launch, error) { return parseLaunch(src, ctas, threads) },
			upload: func(dev *cuda.Device) []uint64 {
				s, d := dev.Mem.Malloc(len(pattern)), dev.Mem.Malloc(len(pattern))
				dev.Mem.Write(s, pattern)
				return []uint64{s, d}
			},
			verify: func(dev *cuda.Device, args []uint64) error {
				want := make([]byte, len(pattern))
				for gid := 0; gid < nthreads; gid++ {
					for it := 0; it < iters; it++ {
						w := (gid*stride + it*step) & (words - 1)
						copy(want[4*w:4*w+4], pattern[4*w:])
					}
				}
				got := make([]byte, len(pattern))
				dev.Mem.Read(args[1], got)
				return checkBytes(got, want)
			},
		})
	}
	for _, stride := range []int{1, 2, 32} {
		src := fmt.Sprintf(sharedStrideSrc, stride, 4*threads*stride, iters)
		ls = append(ls, &simLaunch{
			name: fmt.Sprintf("shared_stride_%d", stride), buildSpan: "ptx.parse", cfg: cfg,
			build: func() (*kernels.Launch, error) { return parseLaunch(src, ctas, threads) },
			upload: func(dev *cuda.Device) []uint64 {
				return []uint64{dev.Mem.Malloc(4 * nthreads)}
			},
			verify: func(dev *cuda.Device, args []uint64) error {
				want := make([]byte, 4*nthreads)
				for gid := 0; gid < nthreads; gid++ {
					binary.LittleEndian.PutUint32(want[4*gid:], uint32(iters*gid+iters*(iters-1)/2))
				}
				got := make([]byte, len(want))
				dev.Mem.Read(args[0], got)
				return checkBytes(got, want)
			},
		})
	}
	return ls
}

// checkBytes compares a copy kernel's output with the expected image.
func checkBytes(got, want []byte) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("output byte %d is %#02x, want %#02x", i, got[i], want[i])
		}
	}
	return nil
}
