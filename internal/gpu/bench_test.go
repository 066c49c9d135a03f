package gpu

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/ptx"
)

// issueKernel is scheduler food: a loop of cheap ALU work whose
// functional cost is small beside the issue path's, mixing independent
// adds (back-to-back issue, port contention between warps) with a
// dependent mad chain (scoreboard parks and wake-heap traffic). After the
// loop every register it computes is stored to out[0..4]: a value no store
// sees is dead, and a warp skips a dead instruction's arithmetic.
func issueKernel(iters int) *ptx.Kernel {
	b := ptx.NewBuilder("issue")
	out := b.Param("out", ptx.U64)
	ind, dep := b.Regs(4), b.Reg()
	i, p := b.Reg(), b.Reg()
	b.Label("top")
	for _, r := range ind {
		b.Add(ptx.U32, r, ptx.R(r), ptx.Imm(1))
	}
	b.Mad(ptx.U32, dep, ptx.R(dep), ptx.Imm(3), ptx.R(ind[0]))
	b.Mad(ptx.U32, dep, ptx.R(dep), ptx.Imm(5), ptx.R(ind[1]))
	b.Add(ptx.U32, i, ptx.R(i), ptx.Imm(1))
	b.Setp(ptx.U32, ptx.CmpLT, p, ptx.R(i), ptx.Imm(uint64(iters)))
	b.BraIf(p, false, "top")
	a := b.Reg()
	for j, r := range append(ind, dep) {
		b.Add(ptx.U64, a, ptx.R(out), ptx.Imm(uint64(4*j)))
		b.St(ptx.Global, 32, ptx.R(a), []ptx.Operand{ptx.R(r)})
	}
	b.Exit()
	return b.MustBuild()
}

// checkIssueResults compares what issueKernel(iters) stored with the loop's
// arithmetic: a wrong word means a loop instruction computed nothing.
func checkIssueResults(mem []byte, iters int) error {
	var want [5]uint32 // the four counters, then the mad chain
	for it := 0; it < iters; it++ {
		for j := range 4 {
			want[j]++
		}
		want[4] = want[4]*3 + want[0]
		want[4] = want[4]*5 + want[1]
	}
	for j, w := range want {
		if got := binary.LittleEndian.Uint32(mem[4*j:]); got != w {
			return fmt.Errorf("issue kernel stored %d in word %d, want %d", got, j, w)
		}
	}
	return nil
}

// BenchmarkIssue times issue selection, the scoreboard and the issue
// bookkeeping per scheduler policy on one SM at both occupancy extremes:
// 4 resident warps (one per sub-core) and the 64-warp cap (16 per
// sub-core). issueKernel keeps most warps ready, so a pick rarely passes
// over a parked older warp; the sgemm=256 rows launch
// kernels.SGEMMSimt(256, 256, 256) TimingOnly instead, 64 resident warps
// over two waves whose shared-memory loads and barriers park most of
// them, as the SIMT GEMMs of the experiments do. The metric is host ns
// per simulated warp instruction.
func BenchmarkIssue(b *testing.B) {
	const iters = 256
	k := issueKernel(iters)
	sgemm, err := kernels.SGEMMSimt(256, 256, 256)
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range Schedulers() {
		for _, warps := range []int{4, 64} {
			b.Run(fmt.Sprintf("%v/warps=%d", pol, warps), func(b *testing.B) {
				mem := ptx.NewFlatMemory(64)
				spec := LaunchSpec{Kernel: k, Grid: ptx.D1(1), Block: ptx.D1(32 * warps), Global: mem, Args: []uint64{0}}
				// Five words per warp are the kernel's only memory traffic:
				// next to nothing stays warm between runs.
				benchIssue(b, pol, spec, func() error { return checkIssueResults(mem.Data, iters) })
			})
		}
		b.Run(fmt.Sprintf("%v/sgemm=256", pol), func(b *testing.B) {
			spec := LaunchSpec{Kernel: sgemm.Kernel, Grid: sgemm.Grid, Block: sgemm.Block,
				Args: []uint64{0, 256 << 10, 512 << 10, 768 << 10}, Global: ptx.NewFlatMemory(1 << 20), TimingOnly: true}
			benchIssue(b, pol, spec, func() error { return nil })
		})
	}
}

// benchIssue times spec on one SM under pol and reports ns/warp-instr.
// check runs after an untimed first launch.
func benchIssue(b *testing.B, pol SchedulerPolicy, spec LaunchSpec, check func() error) {
	cfg := TitanV()
	cfg.NumSMs = 1
	cfg.Scheduler = pol
	sim, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Untimed: check reads what the first launch stored.
	if _, err := sim.Run(spec); err != nil {
		b.Fatal(err)
	}
	if err := check(); err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := sim.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.WarpInstructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/warp-instr")
}
