package mem

import (
	"math/rand"
	"strings"
	"testing"
)

// refCache is the reference for Cache: the per-set slice-of-lines cache
// with a per-access tick and a lastUse scan on every miss, kept verbatim
// (renamed) from before the flat layout replaced it.
type refCache struct {
	lineBytes   int
	sectorBytes int
	ways        int
	nSets       uint64
	sets        []refCacheSet
	tick        uint64

	Hits, Misses uint64
}

type refCacheSet struct {
	lines []refCacheLine
}

type refCacheLine struct {
	tag     uint64
	valid   bool
	sectors uint32 // bitmask of valid sectors
	lastUse uint64
}

func newRefCache(size, lineBytes, ways, sectorBytes int) *refCache {
	nSets := size / (lineBytes * ways)
	if nSets < 1 {
		nSets = 1
	}
	c := &refCache{
		lineBytes:   lineBytes,
		sectorBytes: sectorBytes,
		ways:        ways,
		nSets:       uint64(nSets),
		sets:        make([]refCacheSet, nSets),
	}
	for i := range c.sets {
		c.sets[i].lines = make([]refCacheLine, ways)
	}
	return c
}

func (c *refCache) Access(addr uint64) bool {
	c.tick++
	lineAddr := addr / uint64(c.lineBytes)
	set := &c.sets[lineAddr%c.nSets]
	tag := lineAddr / c.nSets
	sector := uint32(1) << ((addr % uint64(c.lineBytes)) / uint64(c.sectorBytes))

	for i := range set.lines {
		l := &set.lines[i]
		if l.valid && l.tag == tag {
			l.lastUse = c.tick
			if l.sectors&sector != 0 {
				c.Hits++
				return true
			}
			l.sectors |= sector // sector miss within a present line
			c.Misses++
			return false
		}
	}
	// Miss without a matching line: fill an invalid way, else evict LRU.
	victim := &set.lines[0]
	for i := range set.lines {
		l := &set.lines[i]
		if !l.valid {
			victim = l
			break
		}
		if l.lastUse < victim.lastUse {
			victim = l
		}
	}
	victim.valid = true
	victim.tag = tag
	victim.sectors = sector
	victim.lastUse = c.tick
	c.Misses++
	return false
}

func (c *refCache) Invalidate(addr uint64) {
	lineAddr := addr / uint64(c.lineBytes)
	set := &c.sets[lineAddr%c.nSets]
	tag := lineAddr / c.nSets
	for i := range set.lines {
		if set.lines[i].valid && set.lines[i].tag == tag {
			set.lines[i].valid = false
			set.lines[i].sectors = 0
			return
		}
	}
}

// FuzzCacheMatchesReference drives Cache and refCache through the same
// seeded stream of accesses and invalidations — ways 1–16, lines 32–256 B,
// 1–300 sets (non-powers of two included, and a size that is not a whole
// number of sets), addresses from a working set of half to four times the
// capacity placed near zero, at 2⁴⁰ and at the top of the address space —
// and requires the same hit or miss on every access and the same
// Hits/Misses.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(uint8(15), uint8(2), uint16(114), uint8(3), int64(1)) // the 4-SM slice's L2 bank
	f.Add(uint8(3), uint8(2), uint16(255), uint8(1), int64(2))  // Titan V L1
	f.Add(uint8(0), uint8(0), uint16(0), uint8(7), int64(3))    // one direct-mapped set
	f.Add(uint8(6), uint8(3), uint16(299), uint8(4), int64(4))
	f.Fuzz(func(t *testing.T, waysSel, lineSel uint8, setsSel uint16, spanSel uint8, seed int64) {
		ways, line, nSets := 1+int(waysSel)%16, 32<<(lineSel%4), 1+int(setsSel)%300
		size := nSets*line*ways + int(seed)&(line-1)
		span := uint64(nSets*line*ways) * uint64(1+spanSel%8) / 2
		got, want := NewCache(size, line, ways, 32), newRefCache(size, line, ways, 32)
		rng := rand.New(rand.NewSource(seed))
		bases := [4]uint64{0, 0, 1 << 40, -span}
		for op := 0; op < 3000; op++ {
			r := rng.Uint64()
			addr := bases[r>>1%4] + rng.Uint64()%span
			if r%8 == 0 {
				got.Invalidate(addr)
				want.Invalidate(addr)
				continue
			}
			if g, w := got.Access(addr), want.Access(addr); g != w {
				t.Fatalf("%d sets × %d ways × %d B, op %d: Access(%#x) hit = %v, reference %v",
					nSets, ways, line, op, addr, g, w)
			}
		}
		if got.Hits != want.Hits || got.Misses != want.Misses {
			t.Fatalf("hits/misses %d/%d, reference %d/%d", got.Hits, got.Misses, want.Hits, want.Misses)
		}
	})
}

// The reciprocal division is exact: every divisor 1–4096 and a few huge
// ones, against / and % at the edges of each quotient and of the 32- and
// 64-bit ranges.
func TestSetIndexMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(d uint64) {
		v := newDivisor(int(d))
		k := ^uint64(0) / d
		xs := []uint64{0, 1, d - 1, d, d + 1, 2*d - 1, 2*d + 1, 1000*d - 1, 1000*d + 1,
			k*d - 1, k * d, k*d + 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 63, ^uint64(0)}
		for range 8 {
			xs = append(xs, rng.Uint64(), rng.Uint64()>>rng.Intn(64))
		}
		for _, x := range xs {
			if q, r := v.divmod(x); q != x/d || r != x%d {
				t.Fatalf("divmod(%d) by %d = %d, %d; want %d, %d", x, d, q, r, x/d, x%d)
			}
		}
	}
	for d := uint64(1); d <= 4096; d++ {
		check(d)
	}
	for _, d := range []uint64{1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, ^uint64(0) >> 1} {
		check(d)
	}
}

// Validate names the field of every geometry the model cannot honour and
// accepts the shipped configurations.
func TestConfigValidate(t *testing.T) {
	if err := TitanV().Validate(); err != nil {
		t.Fatalf("TitanV: %v", err)
	}
	for _, c := range []struct {
		field string
		mod   func(*Config)
	}{
		{"SectorBytes", func(c *Config) { c.SectorBytes = 0 }},
		{"SectorBytes", func(c *Config) { c.SectorBytes = 24 }},
		{"L1SizeBytes", func(c *Config) { c.L1SizeBytes = -1 }},
		{"L1LineBytes", func(c *Config) { c.L1LineBytes = 0 }},
		{"L1LineBytes", func(c *Config) { c.L1LineBytes = 96 }},
		{"L1LineBytes", func(c *Config) { c.L1LineBytes = 16 }},
		{"L1LineBytes", func(c *Config) { c.L1LineBytes = 2048 }}, // 64 sectors
		{"L1Ways", func(c *Config) { c.L1Ways = 0 }},
		{"L1Ways", func(c *Config) { c.L1Ways = maxWays + 1 }},
		{"SharedBanks", func(c *Config) { c.SharedBanks = 0 }},
		{"BankWidth", func(c *Config) { c.BankWidth = 0 }},
		{"L2SizeBytes", func(c *Config) { c.L2SizeBytes = 0 }},
		{"L2LineBytes", func(c *Config) { c.L2LineBytes = 100 }},
		{"L2Ways", func(c *Config) { c.L2Ways = 0 }},
		{"L2Banks", func(c *Config) { c.L2Banks = 0 }},
		{"L2BytesPerCycle", func(c *Config) { c.L2BytesPerCycle = 0 }},
		{"DRAMBytesPerCycle", func(c *Config) { c.DRAMBytesPerCycle = 0 }},
		{"DRAMChannels", func(c *Config) { c.DRAMChannels = 0 }},
		{"DRAMLatency", func(c *Config) { c.DRAMLatency = -1 }},
	} {
		cfg := TitanV()
		c.mod(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("bad %s: Validate() = %v, want an error naming it", c.field, err)
		}
	}
	// Non-power-of-two counts the model divides by stay valid.
	cfg := TitanV()
	cfg.L2Banks, cfg.DRAMChannels, cfg.SharedBanks = 5, 3, 24
	if err := cfg.Validate(); err != nil {
		t.Errorf("non-power-of-two banks and channels: %v", err)
	}
}
