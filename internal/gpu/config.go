// Package gpu is the cycle-level GPU timing simulator — the analog of the
// paper's modified GPGPU-Sim. It models Volta-class streaming
// multiprocessors with four sub-cores each (Figure 1): pluggable
// per-sub-core warp schedulers (greedy-then-oldest, loose round-robin,
// two-level) driven by event-driven ready-set bookkeeping, a register
// scoreboard for RAW/WAW hazards, per-unit initiation intervals, the
// two-tensor-cores-per-sub-core arrangement inferred in Section IV, and
// the memory system of internal/mem. Kernels are the PTX-subset programs
// of internal/ptx; functional execution happens at issue
// (execution-driven, timing-directed), exactly the split the paper's
// GPGPU-Sim changes use.
package gpu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/tcore"
	"repro/internal/wmma"
)

// SchedulerPolicy selects the warp scheduling policy of each sub-core.
type SchedulerPolicy int

const (
	// GTO is greedy-then-oldest: keep issuing the same warp until it
	// stalls, then switch to the least recently issued ready warp.
	GTO SchedulerPolicy = iota
	// LRR is loose round robin.
	LRR
	// TwoLevel is two-level warp scheduling: only a small active subset
	// of each sub-core's warps competes for issue (round-robin within the
	// subset); warps move between the active subset and the pending pool
	// when the whole subset stalls. Config.TwoLevelActive sizes the
	// subset.
	TwoLevel
)

func (p SchedulerPolicy) String() string {
	switch p {
	case GTO:
		return "gto"
	case LRR:
		return "lrr"
	case TwoLevel:
		return "twolevel"
	}
	return fmt.Sprintf("scheduler(%d)", int(p))
}

// Schedulers returns every scheduling policy, in sweep order.
func Schedulers() []SchedulerPolicy { return []SchedulerPolicy{GTO, LRR, TwoLevel} }

// ParseSchedulerPolicy maps the CLI -sched spelling to a policy.
func ParseSchedulerPolicy(s string) (SchedulerPolicy, error) {
	for _, p := range Schedulers() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("gpu: unknown scheduler %q (want gto, lrr or twolevel)", s)
}

// Config describes the simulated GPU.
type Config struct {
	Name string
	Arch wmma.Arch

	NumSMs        int
	SubCores      int // sub-cores (processing blocks) per SM
	MaxWarpsPerSM int
	MaxCTAsPerSM  int
	SharedPerSM   int // bytes of shared memory per SM
	ClockMHz      float64

	Scheduler SchedulerPolicy

	// TwoLevelActive is the size of the TwoLevel scheduler's active
	// subset per sub-core (0 = default 4). Ignored by GTO and LRR.
	TwoLevelActive int

	// TensorCoresPerSubCore is 2 on Volta (Section IV); setting it to 1
	// is the paper's implicit ablation — each warp then pushes its octets
	// through half the FEDP capacity, doubling HMMA occupancy.
	TensorCoresPerSubCore int

	// HMMAIIScale stretches the HMMA initiation intervals for ablation
	// studies (1 = calibrated behaviour).
	HMMAIIScale int

	// ReuseCache models the operand reuse cache flagged by ".reuse": when
	// disabled, each HMMA set re-fetches its operands, adding
	// ReuseMissPenalty cycles per set boundary.
	ReuseCache       bool
	ReuseMissPenalty int

	// ALU parameters: a 32-thread warp on 16 FP32 lanes has a 2-cycle
	// initiation interval.
	ALULatency int
	ALUII      int
	SFULatency int
	SFUII      int

	// Fixed front-end overheads.
	IssueLatency   int // decode/dispatch depth before results are visible
	BarrierLatency int

	// WmmaMemOverhead is the extra fragment-distribution latency of
	// wmma.load/store beyond the raw memory access (the sync qualifier's
	// warp synchronization plus layout shuffling); calibrated so the
	// minimum observed wmma.load latency approaches the paper's 125
	// cycles.
	WmmaMemOverhead int

	Mem mem.Config
}

// TitanV returns the calibrated Volta (Titan V) configuration: 80 SMs,
// 4 sub-cores each, 2 tensor cores per sub-core, 1530 MHz.
func TitanV() Config {
	return Config{
		Name:                  "Titan V",
		Arch:                  wmma.Volta,
		NumSMs:                80,
		SubCores:              4,
		MaxWarpsPerSM:         64,
		MaxCTAsPerSM:          32,
		SharedPerSM:           96 << 10,
		ClockMHz:              1530,
		Scheduler:             GTO,
		TwoLevelActive:        4,
		TensorCoresPerSubCore: 2,
		HMMAIIScale:           1,
		ReuseCache:            true,
		ReuseMissPenalty:      4,
		ALULatency:            4,
		ALUII:                 2,
		SFULatency:            21,
		SFUII:                 8,
		IssueLatency:          4,
		BarrierLatency:        5,
		WmmaMemOverhead:       36,
		Mem:                   mem.TitanV(),
	}
}

// RTX2080 returns the Turing (RTX 2080) configuration: 46 SMs with the
// Table I tensor core timings.
func RTX2080() Config {
	c := TitanV()
	c.Name = "RTX 2080"
	c.Arch = wmma.Turing
	c.NumSMs = 46
	c.ClockMHz = 1710
	c.SharedPerSM = 64 << 10
	return c
}

// PeakTensorTFLOPS returns the configuration's theoretical tensor-core
// peak: SMs × subcores × tensor cores × 16 FEDPs × 8 FLOPs per FEDP per
// cycle (4 multiplies + 4 adds) × clock.
func (c Config) PeakTensorTFLOPS() float64 {
	flopsPerCycle := float64(c.NumSMs * c.SubCores * c.TensorCoresPerSubCore * tcore.FEDPPerTensorCore * 2 * wmma.FEDPWidth)
	return flopsPerCycle * c.ClockMHz * 1e6 / 1e12
}

// Validate rejects configurations the simulator cannot honour.
func (c Config) Validate() error {
	if c.NumSMs < 1 || c.SubCores < 1 {
		return fmt.Errorf("gpu: need at least one SM and sub-core")
	}
	if c.MaxWarpsPerSM < 1 {
		return fmt.Errorf("gpu: MaxWarpsPerSM must be ≥ 1")
	}
	if c.MaxCTAsPerSM < 1 {
		return fmt.Errorf("gpu: MaxCTAsPerSM must be ≥ 1")
	}
	if c.SharedPerSM < 0 {
		return fmt.Errorf("gpu: SharedPerSM must be ≥ 0")
	}
	if !(c.ClockMHz > 0) {
		return fmt.Errorf("gpu: ClockMHz must be > 0")
	}
	if c.Scheduler < GTO || c.Scheduler > TwoLevel {
		return fmt.Errorf("gpu: unknown scheduler policy %d", int(c.Scheduler))
	}
	if c.TwoLevelActive < 0 {
		return fmt.Errorf("gpu: TwoLevelActive must be ≥ 0 (0 = default)")
	}
	if c.BarrierLatency < 1 {
		// The schedulers re-arm released warps strictly after the release
		// cycle; a zero-latency barrier would let a sub-core stepped later
		// in the releasing cycle issue a released warp within that cycle,
		// so the result would depend on the order sub-cores are visited.
		return fmt.Errorf("gpu: BarrierLatency must be ≥ 1")
	}
	if c.TensorCoresPerSubCore < 1 || c.TensorCoresPerSubCore > 2 {
		return fmt.Errorf("gpu: tensor cores per sub-core must be 1 or 2")
	}
	if c.HMMAIIScale < 1 {
		return fmt.Errorf("gpu: HMMAIIScale must be ≥ 1")
	}
	return c.Mem.Validate()
}

// AppendLaunchKey appends the config's part of a launch's content
// address (internal/experiments' launch memo): two configs with equal
// keys simulate every launch identically. The whole struct is printed
// in Go syntax, mem.Config included, so a field added later is keyed
// by default; the only canonicalisation is the exception list below.
func (c Config) AppendLaunchKey(b []byte) []byte {
	// Name labels reports; the simulator never reads it.
	c.Name = ""
	// New copies TwoLevelActive into the sub-cores' tlCap, which only
	// the TwoLevel policy consults.
	if c.Scheduler != TwoLevel {
		c.TwoLevelActive = 0
	}
	return fmt.Appendf(b, "%#v", c)
}

// tensorOccupancy returns how many cycles one wmma.mma holds the
// sub-core's tensor-core issue bandwidth — the back-to-back initiation
// interval between mma operations of different warps sharing the unit.
//
// A warp drives 32 FEDPs per cycle through its two tensor cores, so the
// floor is M·N·K/4 FEDP operations / 32 = M·N·K/128 cycles (32 for the
// 16×16×16 tile), plus a small set-transition overhead. The +4 calibrates
// sustained throughput to the paper's measured 109.6 of 125 TFLOPS
// (87.7 %): 8192 FLOP per mma / 36 cycles ≈ 89 % of the 256 FLOP/cycle
// sub-core peak.
func (c *Config) tensorOccupancy(w wmma.Config) uint64 {
	fedpCycles := w.Shape.M * w.Shape.N * w.Shape.K / (32 * wmma.FEDPWidth)
	if c.TensorCoresPerSubCore == 1 {
		fedpCycles *= 2
	}
	occ := fedpCycles*c.HMMAIIScale + 4
	if !c.ReuseCache {
		occ += (tcore.NumSets - 1) * c.ReuseMissPenalty
	}
	return uint64(occ)
}

// tensorTiming returns the calibrated HMMA timing for a wmma.mma under
// this configuration, applying the ablation knobs.
func (c *Config) tensorTiming(cfg wmma.Config) (tcore.Timing, error) {
	t, err := tcore.TimingFor(cfg)
	if err != nil {
		return t, err
	}
	if c.HMMAIIScale > 1 {
		scaled := append([]int(nil), t.Cumulative...)
		for i := range scaled {
			scaled[i] = t.Cumulative[0] + (t.Cumulative[i]-t.Cumulative[0])*c.HMMAIIScale
		}
		t.Cumulative = scaled
	}
	if !c.ReuseCache {
		// Without the operand reuse cache every set boundary refetches.
		scaled := append([]int(nil), t.Cumulative...)
		sets := (t.NumHMMA() + t.StepsPerSet - 1) / t.StepsPerSet
		for s := 1; s < sets; s++ {
			for i := s * t.StepsPerSet; i < len(scaled); i++ {
				scaled[i] += c.ReuseMissPenalty
			}
		}
		t.Cumulative = scaled
	}
	if c.TensorCoresPerSubCore == 1 {
		// Half the FEDP capacity: the octets of a warp time-share one
		// tensor core, doubling every interval past the first result.
		scaled := append([]int(nil), t.Cumulative...)
		for i := range scaled {
			scaled[i] = t.Cumulative[0] + (t.Cumulative[i]-t.Cumulative[0])*2
		}
		t.Cumulative = scaled
	}
	return t, nil
}
