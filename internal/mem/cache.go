package mem

import "math/bits"

// Cache is a sectored set-associative cache with LRU replacement. Tags are
// tracked per line; validity per 32-byte sector within the line, matching
// Volta's sectored caches. Lookups fill immediately (latency is charged by
// the caller), so the model captures hit rates and bandwidth, not MSHR
// protocol detail. The sets are flat set-major arrays indexed without a
// division, and the victim is found in O(1) (DESIGN.md "Cache model").
type Cache struct {
	lineShift, sectorShift uint
	offMask                uint64 // lineBytes-1
	ways                   int
	sets                   divisor

	tags    []uint64 // [set*ways+way]: tag<<1|1, or 0 for an invalid way
	sectors []uint32 // [set*ways+way]: bitmask of valid sectors
	state   []setState

	Hits, Misses uint64
}

// setState is a set's replacement state. order lists its ways MRU first,
// a 4-bit way number per nibble (nibbles past the last way are junk); an
// invalidated way keeps its place.
type setState struct {
	order uint64
	valid uint32 // bitmask of valid ways
}

// maxWays bounds associativity: a set's recency order packs one 4-bit way
// number per way into one word.
const maxWays = 16

// NewCache builds a cache of size bytes with the given line size,
// associativity and sector granularity. It panics on a geometry Validate
// rejects.
func NewCache(size, lineBytes, ways, sectorBytes int) *Cache {
	if err := cacheGeometry("", lineBytes, ways, sectorBytes); err != nil {
		panic(err)
	}
	nSets := max(1, size/(lineBytes*ways))
	c := &Cache{
		lineShift:   log2(lineBytes),
		sectorShift: log2(sectorBytes),
		offMask:     uint64(lineBytes - 1),
		ways:        ways,
		sets:        newDivisor(nSets),
		tags:        make([]uint64, nSets*ways),
		sectors:     make([]uint32, nSets*ways),
		state:       make([]setState, nSets),
	}
	for i := range c.state {
		c.state[i].order = 0xfedcba9876543210 // ways 0, 1, … in order
	}
	return c
}

// Access looks up the sector containing addr, filling it on a miss, and
// reports whether it hit. Stores allocate too (write-allocate), keeping
// the model simple and symmetric.
//
//simlint:hotpath
func (c *Cache) Access(addr uint64) bool {
	tag, set := c.sets.divmod(addr >> c.lineShift)
	sector := uint32(1) << (addr & c.offMask >> c.sectorShift)
	base := int(set) * c.ways
	tags := c.tags[base : base+c.ways]
	st := &c.state[set]
	want := tag<<1 | 1
	for w, t := range tags {
		if t == want {
			st.order = promote(st.order, w)
			s := &c.sectors[base+w]
			if *s&sector != 0 {
				c.Hits++
				return true
			}
			*s |= sector // sector miss within a present line
			c.Misses++
			return false
		}
	}
	// Miss without a matching line: fill the first invalid way, else
	// evict the LRU way, the last in order, which rotates to the front
	// (the nibble pushed past the last way is never read).
	var w int
	if st.valid != 1<<c.ways-1 {
		w = bits.TrailingZeros32(^st.valid)
		st.valid |= 1 << w
		st.order = promote(st.order, w)
	} else {
		w = int(st.order >> (4*c.ways - 4) & 15)
		st.order = st.order<<4 | uint64(w)
	}
	tags[w] = want
	c.sectors[base+w] = sector
	c.Misses++
	return false
}

// promote moves way w to the front of a recency order: the nibbles below
// w's place (the lowest zero nibble of order^w·0x11…1) shift up by one.
//
//simlint:hotpath
func promote(order uint64, w int) uint64 {
	if order&15 == uint64(w) {
		return order
	}
	const nib = 0x1111111111111111
	x := order ^ nib*uint64(w)
	pos := uint(bits.TrailingZeros64((x-nib)&^x&(nib<<3))) &^ 3 // 4 × w's place
	below := order & (1<<pos - 1)
	return order&^(1<<pos<<4-1) | below<<4 | uint64(w)
}

// Invalidate drops the line containing addr if present (used for
// write-evict policies).
//
//simlint:hotpath
func (c *Cache) Invalidate(addr uint64) {
	tag, set := c.sets.divmod(addr >> c.lineShift)
	base := int(set) * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag<<1|1 {
			c.tags[base+w], c.sectors[base+w] = 0, 0
			c.state[set].valid &^= 1 << w
			return
		}
	}
}

// HitRate returns hits / (hits+misses), or 0 before any access.
func (c *Cache) HitRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Hits) / float64(t)
}

// divisor divides by a constant d ≥ 1 without a hardware division: with
// m = ⌊(2⁶⁴−1)/d⌋, ⌊x·m/2⁶⁴⌋ is ⌊x/d⌋ or one less for every 64-bit x.
type divisor struct{ d, m uint64 }

func newDivisor(d int) divisor { return divisor{uint64(d), ^uint64(0) / uint64(d)} }

//simlint:hotpath
func (v divisor) divmod(x uint64) (q, r uint64) {
	q, _ = bits.Mul64(x, v.m)
	r = x - q*v.d
	if r >= v.d {
		q, r = q+1, r-v.d
	}
	return q, r
}

// log2 returns the shift of a power of two.
func log2(n int) uint { return uint(bits.TrailingZeros(uint(n))) }
