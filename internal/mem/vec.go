package mem

import "math/bits"

// The warp access path, in struct-of-arrays form. A per-lane request
// list would force the coalescer and the shared-memory conflict counter
// to re-discover warp structure — uniform broadcasts, unit-stride
// streams — one lane at a time, with a linear dedup scan per touched
// sector that degenerates to O(sectors²) for scattered warps. AddrVec
// keeps the whole warp's addresses in one fixed vector with an
// active-lane bitmask, so both consumers can classify the access shape
// once and take an arithmetic fast path (uniform, unit-stride) or a
// hash/sorted-run dedup that stays O(sectors) even for fully scattered
// warps.
//
// Equivalence contract: both are defined on the lane-major expansion of
// the vectors — lane 0's accesses in group order, then lane 1's, and so
// on — which is the per-lane access list of the instruction, also where
// a wmma fragment falls back to one-lane groups. For any address vectors,
// masks and geometry, CoalesceVecs returns exactly the first-touch sector
// list of a linear per-lane coalescer over that expansion, and
// SharedConflictPassesVecs exactly its per-bank distinct-word pass count.
// The per-lane reference lives in the package's tests (Coalesce,
// SharedConflictPasses), checked by FuzzVecMatchesReference.

// AddrVec is the struct-of-arrays form of one warp access group: 32 lane
// addresses (stale in unmasked lanes), an active-lane bitmask and the
// shared width/store attributes. Addr points at the producer's vector —
// typically ptx.WarpAccess scratch — so building an AddrVec copies no
// lane data; it is valid for the synchronous duration of the access call.
type AddrVec struct {
	Addr  *[32]uint64
	Mask  uint32
	Bits  int32
	Store bool
}

const fullMask = ^uint32(0)

// vecShape classifies the masked address pattern of one AddrVec.
type vecShape uint8

const (
	vecScattered  vecShape = iota
	vecSorted              // non-decreasing over masked lanes
	vecUniform             // every masked lane holds the same address
	vecUnitStride          // full warp, addr[i+1] = addr[i] + bytes
)

// classifyVec inspects the masked lanes once. Uniform holds for any mask;
// unit-stride is only claimed for fully active warps (a mask gap breaks
// byte-range contiguity); sorted is the weakest useful property.
func classifyVec(v *AddrVec, bytes uint64) vecShape {
	a := v.Addr
	if v.Mask == fullMask {
		uniform, unit, sorted := true, true, true
		prev := a[0]
		for i := 1; i < 32; i++ {
			cur := a[i]
			if cur != prev {
				uniform = false
			}
			if cur != prev+bytes {
				unit = false
			}
			if cur < prev {
				sorted = false
			}
			prev = a[i]
		}
		switch {
		case uniform:
			return vecUniform
		case unit:
			return vecUnitStride
		case sorted:
			return vecSorted
		}
		return vecScattered
	}
	uniform, sorted, first := true, true, true
	var prev uint64
	for lane := 0; lane < 32; lane++ {
		if v.Mask&(1<<lane) == 0 {
			continue
		}
		cur := a[lane]
		if first {
			prev, first = cur, false
			continue
		}
		if cur != prev {
			uniform = false
		}
		if cur < prev {
			sorted = false
		}
		prev = cur
	}
	switch {
	case uniform:
		return vecUniform
	case sorted:
		return vecSorted
	}
	return vecScattered
}

// vecBytes is the coalescer's access width in bytes (zero-width clamps to
// one byte).
func vecBytes(bits int32) uint64 {
	b := uint64(bits+7) / 8
	if b == 0 {
		b = 1
	}
	return b
}

// CoalesceVecs merges a warp instruction's access groups into the
// distinct memory sectors they touch, in the first-touch order of their
// lane-major expansion — the number of memory transactions the
// instruction generates. An access wider than a sector spans several.
// cfg.SectorBytes must be a power of two, as Validate requires.
func CoalesceVecs(cfg Config, vecs []AddrVec) []uint64 {
	return coalesceVecsInto(nil, &sectorSet{}, log2(cfg.SectorBytes), vecs)
}

// coalesceVecsInto is CoalesceVecs appending into a reusable buffer with
// a reusable dedup set; a sector is 1<<shift bytes.
func coalesceVecsInto(out []uint64, set *sectorSet, shift uint, vecs []AddrVec) []uint64 {
	if len(vecs) == 1 {
		v := &vecs[0]
		if v.Mask == 0 {
			return out
		}
		if v.Mask == fullMask && mirroredHalves(v.Addr) {
			// wmma fragment groups (Volta A/B hold every element in two
			// lanes) and GEMM staging both produce half-warp mirrors:
			// lanes 16..31 repeat lanes 0..15 exactly, so in the
			// lane-major expansion they touch only already-seen sectors
			// and cannot perturb first-touch order. Coalesce the first
			// half alone — its (often unit-stride) shape then classifies
			// as sorted instead of scattered.
			half := AddrVec{Addr: v.Addr, Mask: 0xffff, Bits: v.Bits, Store: v.Store}
			return coalesceOneVec(out, set, shift, &half)
		}
		return coalesceOneVec(out, set, shift, v)
	}
	return coalesceHash(out, set, shift, vecs)
}

// coalesceOneVec dispatches a single non-empty group on its classified
// shape.
func coalesceOneVec(out []uint64, set *sectorSet, shift uint, v *AddrVec) []uint64 {
	bytes := vecBytes(v.Bits)
	switch classifyVec(v, bytes) {
	case vecUniform:
		// One lane's span; every other masked lane duplicates it.
		a := v.Addr[bits.TrailingZeros32(v.Mask)]
		for s := a >> shift; s <= (a+bytes-1)>>shift; s++ {
			out = append(out, s<<shift)
		}
		return out
	case vecUnitStride:
		// The warp reads one contiguous byte range: the sector list is
		// the ascending aligned cover, no dedup needed. A range that
		// wraps the address space (unreachable from PTX, but possible
		// through the exported API) keeps per-lane semantics via
		// the general path.
		if a := v.Addr[0]; a <= a+32*bytes-1 {
			for s := a >> shift; s <= (a+32*bytes-1)>>shift; s++ {
				out = append(out, s<<shift)
			}
			return out
		}
	case vecSorted:
		return coalesceSorted(out, shift, v, bytes)
	}
	one := [1]AddrVec{*v}
	return coalesceHash(out, set, shift, one[:])
}

// coalesceSorted dedups a non-decreasing address vector in one pass.
// With non-decreasing lane starts and contiguous per-lane spans, a sector
// is previously seen iff it does not exceed the maximum sector seen — so
// first-touch dedup needs only that running maximum.
func coalesceSorted(out []uint64, shift uint, v *AddrVec, bytes uint64) []uint64 {
	var maxSeen uint64
	have := false
	for lane := 0; lane < 32; lane++ {
		if v.Mask&(1<<lane) == 0 {
			continue
		}
		a := v.Addr[lane]
		for s := a >> shift; s <= (a+bytes-1)>>shift; s++ {
			if !have || s > maxSeen {
				out = append(out, s<<shift)
				maxSeen, have = s, true
			}
		}
	}
	return out
}

// coalesceHash is the general path: lane-major first-touch dedup through
// an open-addressing set, O(1) per sector instead of a linear rescan of
// everything emitted so far. If an instruction somehow touches more
// sectors than the set's capacity the tail degrades to that linear scan
// rather than failing.
func coalesceHash(out []uint64, set *sectorSet, shift uint, vecs []AddrVec) []uint64 {
	set.reset()
	linear := false
	for lane := 0; lane < 32; lane++ {
		bit := uint32(1) << lane
		for vi := range vecs {
			v := &vecs[vi]
			if v.Mask&bit == 0 {
				continue
			}
			bytes := vecBytes(v.Bits)
			a := v.Addr[lane]
		sectors:
			for s := a >> shift; s <= (a+bytes-1)>>shift; s++ {
				addr := s << shift
				if !linear {
					added, full := set.insert(addr)
					if !full {
						if added {
							out = append(out, addr)
						}
						continue
					}
					linear = true
				}
				for _, seen := range out {
					if seen == addr {
						continue sectors
					}
				}
				out = append(out, addr)
			}
		}
	}
	return out
}

// sectorSet is a reusable open-addressing membership set for sector
// addresses, cleared in O(1) by a generation counter. Sized so that a
// warp's worst realistic sector count (a few hundred for scattered
// sub-byte wmma fragments) stays under the overflow threshold.
type sectorSet struct {
	key [sectorSetSlots]uint64
	gen [sectorSetSlots]uint32
	cur uint32
	n   int
}

const (
	sectorSetSlots    = 1024 // power of two
	sectorSetOverflow = sectorSetSlots * 3 / 4
)

func (s *sectorSet) reset() {
	s.cur++
	s.n = 0
	if s.cur == 0 { // generation wrap: invalidate everything once
		s.gen = [sectorSetSlots]uint32{}
		s.cur = 1
	}
}

// insert reports whether k was newly added, and whether the set refused
// it because it is full (the caller then falls back to linear dedup).
func (s *sectorSet) insert(k uint64) (added, full bool) {
	if s.n >= sectorSetOverflow {
		return false, true
	}
	h := int(k*0x9E3779B97F4A7C15>>54) & (sectorSetSlots - 1)
	for {
		if s.gen[h] != s.cur {
			s.gen[h] = s.cur
			s.key[h] = k
			s.n++
			return true, false
		}
		if s.key[h] == k {
			return false, false
		}
		h = (h + 1) & (sectorSetSlots - 1)
	}
}

// SharedConflictPassesVecs returns how many serialized passes the shared
// memory needs for one warp instruction's access groups: the maximum,
// over banks, of distinct bank words addressed (identical words
// broadcast in one pass).
func SharedConflictPassesVecs(cfg Config, vecs []AddrVec) int {
	return sharedConflictPassesVecs(&bankScratch{}, &cfg, vecs)
}

func sharedConflictPassesVecs(bs *bankScratch, cfg *Config, vecs []AddrVec) int {
	pow2 := cfg.BankWidth == 4 && cfg.SharedBanks == 32
	if !pow2 {
		return conflictGeneralVecs(bs, cfg, vecs)
	}
	if len(vecs) == 1 {
		v := &vecs[0]
		bytes := uint64(v.Bits+7) / 8 // no zero clamp: a zero-width access touches no bank
		if v.Mask != 0 && bytes > 0 {
			switch classifyVec(v, bytes) {
			case vecUniform:
				// Every masked lane addresses the same ≤4 consecutive bank
				// words (any ld/st width is ≤16 bytes); duplicates
				// broadcast, distinct words land in distinct banks — one
				// pass. Wider vectors (exported API only) wrap the banks
				// and are counted word by word.
				if bytes <= 16 {
					return 1
				}
			case vecUnitStride:
				if a := v.Addr[0]; a%4 == 0 && bytes%4 == 0 && a <= a+32*bytes-1 {
					// The warp touches 32·bytes/4 consecutive aligned words:
					// each bank serves exactly bytes/4 distinct words.
					return int(bytes) / 4
				}
			default:
				if v.Mask == fullMask {
					if p := conflictFullWarpFast(v, bytes); p > 0 {
						return p
					}
				}
			}
		}
	}
	return conflictCount(bs, cfg, vecs)
}

// conflictFullWarpFast recognizes the two warp shapes GEMM inner loops
// produce beyond uniform/unit-stride — a handful of distinct broadcast
// addresses (operand rows shared by half-warps) and mirrored half-warps
// whose first half is unit-stride (row fragments read twice) — and
// computes their pass count arithmetically. Returns 0 when the shape is
// not recognized.
func conflictFullWarpFast(v *AddrVec, bytes uint64) int {
	a := v.Addr
	// Mirrored halves: lanes 16..31 repeat lanes 0..15, so the second
	// half broadcasts and only the first half's words count.
	if mirroredHalves(a) {
		unit := true
		for i := 1; i < 16; i++ {
			if a[i] != a[i-1]+bytes {
				unit = false
				break
			}
		}
		if unit && a[0]%4 == 0 && bytes%4 == 0 && a[0] <= a[0]+16*bytes-1 {
			// 16·bytes/4 consecutive aligned words.
			return (int(bytes)*4 + 31) / 32
		}
	}
	// A few distinct broadcast addresses: compute the pass count exactly
	// over the deduplicated word set.
	var distinct [4]uint64
	nd := 0
lanes:
	for lane := 0; lane < 32; lane++ {
		aa := a[lane]
		for i := 0; i < nd; i++ {
			if distinct[i] == aa {
				continue lanes
			}
		}
		if nd == len(distinct) {
			return 0
		}
		distinct[nd] = aa
		nd++
	}
	var words [16]uint64
	nw := 0
	for i := 0; i < nd; i++ {
		for off := uint64(0); off < bytes; off += 4 {
			w := (distinct[i] + off) >> 2
			dup := false
			for j := 0; j < nw; j++ {
				if words[j] == w {
					dup = true
					break
				}
			}
			if !dup {
				if nw == len(words) {
					return 0 // bytes > 16: beyond any ld/st width
				}
				words[nw] = w
				nw++
			}
		}
	}
	var cnt [32]uint8
	passes := 1
	for i := 0; i < nw; i++ {
		b := words[i] & 31
		cnt[b]++
		if int(cnt[b]) > passes {
			passes = int(cnt[b])
		}
	}
	return passes
}

// mirroredHalves reports whether lanes 16..31 repeat lanes 0..15.
func mirroredHalves(a *[32]uint64) bool {
	for i := 16; i < 32; i++ {
		if a[i] != a[i-16] {
			return false
		}
	}
	return true
}

// conflictCount computes the pass count of the universal 4-byte × 32-bank
// geometry in one walk over the accessed words. Each pass serves at most
// one distinct word per bank and broadcasts its duplicates, so the count
// is the maximum number of distinct words any bank must serve; and the
// words of one bank differ only in their row (word/32), so a 128-bit row
// set per bank holds a bank's distinct words exactly whenever every word
// lies within 64 rows (8 KiB) of the first — which tile-local accesses,
// wmma fragment groups included, do. An access that strays further takes
// the general per-bank lists.
func conflictCount(bs *bankScratch, cfg *Config, vecs []AddrVec) int {
	var rows [32][2]uint64
	var row0 uint64 // row of the window's low edge, set by the first word
	first := true
	for vi := range vecs {
		v := &vecs[vi]
		bytes := uint64(v.Bits+7) / 8
		for lane, a := range v.Addr {
			if v.Mask&(1<<lane) == 0 {
				continue
			}
			for off := uint64(0); off < bytes; off += 4 {
				w := (a + off) >> 2
				if first {
					row0, first = w>>5-64, false
				}
				rel := w>>5 - row0
				if rel >= 128 {
					return conflictGeneralVecs(bs, cfg, vecs)
				}
				rows[w&31][rel>>6] |= 1 << (rel & 63)
			}
		}
	}
	passes := 1
	for _, r := range rows {
		passes = max(passes, bits.OnesCount64(r[0])+bits.OnesCount64(r[1]))
	}
	return passes
}

// conflictGeneralVecs counts the passes for arbitrary bank geometry:
// per-bank distinct-word lists over the vectors' masked lanes.
func conflictGeneralVecs(bs *bankScratch, cfg *Config, vecs []AddrVec) int {
	if len(bs.words) < cfg.SharedBanks {
		bs.words = make([][]uint64, cfg.SharedBanks)
	}
	banks := bs.words[:cfg.SharedBanks]
	for i := range banks {
		banks[i] = banks[i][:0]
	}
	passes := 0
	for vi := range vecs {
		v := &vecs[vi]
		bytes := uint64(v.Bits+7) / 8
		for lane := 0; lane < 32; lane++ {
			if v.Mask&(1<<lane) == 0 {
				continue
			}
			a := v.Addr[lane]
			for off := uint64(0); off < bytes; off += uint64(cfg.BankWidth) {
				word := (a + off) / uint64(cfg.BankWidth)
				b := int(word % uint64(cfg.SharedBanks))
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
	}
	if passes == 0 {
		passes = 1
	}
	return passes
}
