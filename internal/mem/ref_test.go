package mem

// The per-lane reference of the warp access path: one Request per lane,
// in lane order, coalesced and conflict-counted by linear scans. The
// simulator runs only the vector forms (vec.go); these are their oracle
// (FuzzVecMatchesReference, checkAgainstReference), defined on the
// lane-major expansion of the vectors (expand).

// Request is one lane's memory access as the coalescer sees it.
type Request struct {
	Addr  uint64
	Bits  int
	Store bool
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

// SharedPasses is SharedConflictPasses on the classifier's scratch.
func (c *Classifier) SharedPasses(reqs []Request) int {
	return sharedConflictPasses(&c.banks, &c.cfg, reqs)
}

// Sectors appends Coalesce's sector list to out.
func (c *Classifier) Sectors(out []uint64, reqs []Request) []uint64 {
	return coalesceInto(out, &c.cfg, reqs)
}
