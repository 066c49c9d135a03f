package gpu

import (
	"fmt"
	"testing"

	"repro/internal/ptx"
)

// issueKernel is scheduler food: a loop of cheap ALU work whose
// functional cost is small beside the issue path's, mixing independent
// adds (back-to-back issue, port contention between warps) with a
// dependent mad chain (scoreboard parks and wake-heap traffic).
func issueKernel(iters int) *ptx.Kernel {
	b := ptx.NewBuilder("issue")
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
	b.Exit()
	return b.MustBuild()
}

// BenchmarkIssue times issue selection, the scoreboard and the issue
// bookkeeping per scheduler policy on one SM at both occupancy extremes:
// 4 resident warps (one per sub-core) and the 64-warp cap (16 per
// sub-core). The metric is host ns per simulated warp instruction.
func BenchmarkIssue(b *testing.B) {
	k := issueKernel(256)
	for _, pol := range Schedulers() {
		for _, warps := range []int{4, 64} {
			b.Run(fmt.Sprintf("%v/warps=%d", pol, warps), func(b *testing.B) {
				cfg := TitanV()
				cfg.NumSMs = 1
				cfg.Scheduler = pol
				spec := LaunchSpec{Kernel: k, Grid: ptx.D1(1), Block: ptx.D1(32 * warps), Global: ptx.NewFlatMemory(64)}
				sim, err := New(cfg) // the kernel touches no memory: nothing stays warm between runs
				if err != nil {
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
			})
		}
	}
}
