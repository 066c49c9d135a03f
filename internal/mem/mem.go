// Package mem models the GPU memory system the paper's GPGPU-Sim
// extension runs against: per-lane access coalescing into 32-byte sectors,
// a sectored per-SM L1 cache, a banked chip-wide L2, a bandwidth-limited
// DRAM (HBM2 on the Titan V), and the 32-bank shared memory with conflict
// serialization. The model is latency/bandwidth-accurate rather than
// protocol-accurate: caches fill instantly on miss and contention appears
// as queueing delay on the L2 banks and DRAM channels, which is the level
// of detail the paper's experiments exercise (Figures 14–17).
package mem

import (
	"fmt"
	"reflect"
	"strings"
)

// Request is one lane's memory access as the coalescer sees it.
type Request struct {
	Addr  uint64
	Bits  int
	Store bool
}

// Config sets the hierarchy's geometry and timing. Defaults follow the
// Titan V numbers the paper and its companion characterization (Jia et
// al.) report.
type Config struct {
	SectorBytes int // coalescing and cache-fill granularity

	L1SizeBytes   int
	L1LineBytes   int
	L1Ways        int
	L1HitLatency  int
	SharedLatency int
	SharedBanks   int
	BankWidth     int // bytes per shared-memory bank word

	L2SizeBytes  int
	L2LineBytes  int
	L2Ways       int
	L2HitLatency int
	L2Banks      int
	// L2BytesPerCycle is the per-bank service bandwidth.
	L2BytesPerCycle int

	DRAMLatency int
	// DRAMBytesPerCycle is the aggregate DRAM bandwidth per core cycle:
	// 652.8 GB/s at 1.53 GHz ≈ 427 B/cycle for the whole chip.
	DRAMBytesPerCycle int
	DRAMChannels      int
}

// TitanV returns the Volta-class default configuration.
func TitanV() Config {
	return Config{
		SectorBytes:       32,
		L1SizeBytes:       128 << 10,
		L1LineBytes:       128,
		L1Ways:            4,
		L1HitLatency:      28,
		SharedLatency:     19,
		SharedBanks:       32,
		BankWidth:         4,
		L2SizeBytes:       4608 << 10,
		L2LineBytes:       128,
		L2Ways:            16,
		L2HitLatency:      193,
		L2Banks:           32,
		L2BytesPerCycle:   32,
		DRAMLatency:       290,
		DRAMBytesPerCycle: 427,
		DRAMChannels:      24,
	}
}

// Validate rejects a geometry the model cannot honour: a non-positive
// size, count or rate, a negative latency, and cache lines and sectors
// Cache cannot shift by (DESIGN.md "Cache model").
func (c Config) Validate() error {
	v := reflect.ValueOf(c)
	for i := range v.NumField() {
		name, min := v.Type().Field(i).Name, int64(1)
		if strings.HasSuffix(name, "Latency") {
			min = 0
		}
		if x := v.Field(i).Int(); x < min {
			return fmt.Errorf("mem: %s = %d, want ≥ %d", name, x, min)
		}
	}
	if err := cacheGeometry("L1", c.L1LineBytes, c.L1Ways, c.SectorBytes); err != nil {
		return err
	}
	return cacheGeometry("L2", c.L2LineBytes, c.L2Ways, c.SectorBytes)
}

// cacheGeometry checks one cache level. A line of ≥ 2 bytes keeps every
// tag below 2⁶³, so Cache stores it with its validity bit in one word.
func cacheGeometry(level string, lineBytes, ways, sectorBytes int) error {
	switch {
	case sectorBytes < 1 || sectorBytes&(sectorBytes-1) != 0:
		return fmt.Errorf("mem: SectorBytes = %d, want a power of two", sectorBytes)
	case lineBytes < 2 || lineBytes&(lineBytes-1) != 0:
		return fmt.Errorf("mem: %sLineBytes = %d, want a power of two ≥ 2", level, lineBytes)
	case lineBytes < sectorBytes || lineBytes > 32*sectorBytes:
		return fmt.Errorf("mem: %sLineBytes = %d, want 1 to 32 sectors of %d bytes", level, lineBytes, sectorBytes)
	case ways < 1 || ways > maxWays:
		return fmt.Errorf("mem: %sWays = %d, want 1 to %d", level, ways, maxWays)
	}
	return nil
}

// Coalesce merges the per-lane requests of one warp instruction into the
// distinct memory sectors they touch, in first-touch order — the number of
// memory transactions the instruction generates. Requests wider than a
// sector span several sectors.
func Coalesce(cfg Config, reqs []Request) []uint64 {
	return coalesceInto(nil, &cfg, reqs)
}

// coalesceInto is Coalesce appending into a reusable buffer. A warp
// touches at most a few dozen sectors per instruction, so linear
// first-touch dedup beats a map both in time and allocation.
func coalesceInto(out []uint64, cfg *Config, reqs []Request) []uint64 {
	sec := uint64(cfg.SectorBytes)
	for _, r := range reqs {
		bytes := uint64(r.Bits+7) / 8
		if bytes == 0 {
			bytes = 1
		}
		first := r.Addr / sec
		last := (r.Addr + bytes - 1) / sec
	sectors:
		for s := first; s <= last; s++ {
			addr := s * sec
			for _, seen := range out {
				if seen == addr {
					continue sectors
				}
			}
			out = append(out, addr)
		}
	}
	return out
}

// SharedConflictPasses returns how many serialized passes the shared
// memory needs for one warp access: the maximum, over banks, of distinct
// bank words addressed (identical words broadcast in one pass).
func SharedConflictPasses(cfg Config, reqs []Request) int {
	return sharedConflictPasses(&bankScratch{}, &cfg, reqs)
}

// bankScratch holds per-bank distinct-word lists, reused across accesses.
type bankScratch struct {
	words [][]uint64
}

func sharedConflictPasses(scratch *bankScratch, cfg *Config, reqs []Request) int {
	if len(scratch.words) < cfg.SharedBanks {
		scratch.words = make([][]uint64, cfg.SharedBanks)
	}
	banks := scratch.words[:cfg.SharedBanks]
	for i := range banks {
		banks[i] = banks[i][:0]
	}
	// Shift/mask fast path for the universal 4-byte × 32-bank geometry.
	pow2 := cfg.BankWidth == 4 && cfg.SharedBanks == 32
	passes := 0
	for _, r := range reqs {
		bytes := uint64(r.Bits+7) / 8
		for off := uint64(0); off < bytes; off += uint64(cfg.BankWidth) {
			var word uint64
			var b int
			if pow2 {
				word = (r.Addr + off) >> 2
				b = int(word & 31)
			} else {
				word = (r.Addr + off) / uint64(cfg.BankWidth)
				b = int(word % uint64(cfg.SharedBanks))
			}
			dup := false
			for _, seen := range banks[b] {
				if seen == word {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			banks[b] = append(banks[b], word)
			if len(banks[b]) > passes {
				passes = len(banks[b])
			}
		}
	}
	if passes == 0 {
		passes = 1
	}
	return passes
}
