package mem

import (
	"reflect"
	"testing"
)

// vecOf builds an AddrVec over a fresh address array.
func vecOf(addrs [32]uint64, mask uint32, bits int32, store bool) AddrVec {
	a := addrs
	return AddrVec{Addr: &a, Mask: mask, Bits: bits, Store: store}
}

// expand converts vectors to the lane-major Request slice the legacy
// reference implementations consume — the defined equivalence order.
func expand(vecs []AddrVec) []Request {
	var reqs []Request
	for lane := 0; lane < 32; lane++ {
		for _, v := range vecs {
			if v.Mask&(1<<lane) == 0 {
				continue
			}
			reqs = append(reqs, Request{Addr: v.Addr[lane], Bits: int(v.Bits), Store: v.Store})
		}
	}
	return reqs
}

// checkAgainstReference asserts both vectorized consumers agree with the
// legacy per-lane implementations.
func checkAgainstReference(t *testing.T, cfg Config, vecs []AddrVec) {
	t.Helper()
	reqs := expand(vecs)
	gotSec := CoalesceVecs(cfg, vecs)
	wantSec := Coalesce(cfg, reqs)
	if !reflect.DeepEqual(gotSec, wantSec) && !(len(gotSec) == 0 && len(wantSec) == 0) {
		t.Errorf("CoalesceVecs = %v, want %v", gotSec, wantSec)
	}
	gotP := SharedConflictPassesVecs(cfg, vecs)
	wantP := SharedConflictPasses(cfg, reqs)
	if gotP != wantP {
		t.Errorf("SharedConflictPassesVecs = %d, want %d", gotP, wantP)
	}
}

// The shapes the fast paths dispatch on, each checked against the legacy
// reference: uniform, unit-stride (aligned and misaligned), mirrored
// halves, few-distinct broadcast, sorted-with-gaps, partial masks, and
// multi-group batches.
func TestVecFastPathsMatchReference(t *testing.T) {
	cfg := TitanV()
	var uniform, unit, unitMis, mirror, distinct2, gaps, desc [32]uint64
	for i := 0; i < 32; i++ {
		uniform[i] = 420
		unit[i] = 1024 + uint64(i)*16
		unitMis[i] = 1 + uint64(i)*16 // misaligned base
		mirror[i] = 2048 + uint64(i%16)*16
		distinct2[i] = 256 + uint64(i/16)*256 // bank-conflicting pair
		gaps[i] = uint64(i) * 100             // sorted, gapped, sector-sharing
		desc[i] = uint64(31-i) * 128          // descending: scattered path
	}
	// wmma-shaped geometries from the batched fragment path: mirrored
	// fragment halves (Volta A/B hold every element in two lanes, so
	// piece groups repeat across half-warps) with sorted, gapped and
	// descending first halves, and slot-aligned piece groups (one group
	// per fragment slot, lanes strided by the tile's leading dimension).
	var mirGap, mirDesc [32]uint64
	for i := 0; i < 16; i++ {
		mirGap[i] = 4096 + uint64(i)*96
		mirDesc[i] = 8192 + uint64(15-i)*96
		mirGap[i+16], mirDesc[i+16] = mirGap[i], mirDesc[i]
	}
	slotGroups := func(base uint64) []AddrVec {
		var vecs []AddrVec
		for slot := 0; slot < 4; slot++ {
			var a [32]uint64
			for lane := 0; lane < 32; lane++ {
				a[lane] = base + uint64(lane%16)*64 + uint64(slot)*16
			}
			vecs = append(vecs, vecOf(a, ^uint32(0), 128, false))
		}
		return vecs
	}
	cases := []struct {
		name string
		vecs []AddrVec
	}{
		{"uniform32", []AddrVec{vecOf(uniform, ^uint32(0), 32, false)}},
		{"uniform128", []AddrVec{vecOf(uniform, ^uint32(0), 128, false)}},
		// Wider than any ld/st: exported-API only, wraps the banks.
		{"uniform1024", []AddrVec{vecOf(uniform, ^uint32(0), 1024, false)}},
		{"uniform_partial", []AddrVec{vecOf(uniform, 0x0000ffff, 32, false)}},
		{"unit32", []AddrVec{vecOf(unit, ^uint32(0), 32, false)}},
		{"unit64", []AddrVec{vecOf(unit, ^uint32(0), 64, false)}},
		{"unit128_wide", []AddrVec{vecOf(unit, ^uint32(0), 128, true)}},
		{"unit16", []AddrVec{vecOf(unit, ^uint32(0), 16, false)}},
		{"unit_misaligned", []AddrVec{vecOf(unitMis, ^uint32(0), 128, false)}},
		{"mirrored_halves", []AddrVec{vecOf(mirror, ^uint32(0), 128, false)}},
		{"two_distinct", []AddrVec{vecOf(distinct2, ^uint32(0), 32, false)}},
		{"sorted_gaps", []AddrVec{vecOf(gaps, ^uint32(0), 64, false)}},
		{"descending", []AddrVec{vecOf(desc, ^uint32(0), 32, false)}},
		{"partial_scattered", []AddrVec{vecOf(desc, 0xf0f0f0f0, 32, false)}},
		{"empty_mask", []AddrVec{vecOf(unit, 0, 32, false)}},
		{"multi_group", []AddrVec{
			vecOf(unit, ^uint32(0), 128, false),
			vecOf(mirror, 0x0000ffff, 32, false),
		}},
		{"mirrored_gapped", []AddrVec{vecOf(mirGap, ^uint32(0), 64, false)}},
		{"mirrored_descending", []AddrVec{vecOf(mirDesc, ^uint32(0), 32, false)}},
		{"mirrored_partial_mask", []AddrVec{vecOf(mirGap, 0x00ff00ff, 64, false)}},
		{"wmma_slot_groups", slotGroups(1 << 16)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, cfg, tc.vecs)
		})
	}
}

// conflictCount's row window: words within 64 rows (8 KiB) either side
// of the first word are counted in the per-bank row sets, anything
// further falls back to the general lists. Both sides of both edges, in
// both lane orders, must agree with the reference — as must high conflict
// degrees (every lane in one bank, 16 distinct words per bank across four
// groups) and words that wrap the address space.
func TestConflictCountWindow(t *testing.T) {
	cfg := TitanV()
	const row = 128 // bytes per bank row
	strided := func(base uint64, stride int64) [32]uint64 {
		var a [32]uint64
		for i := range a {
			a[i] = base + uint64(int64(i)*stride)
		}
		return a
	}
	// Lane 0 anchors the window at 1 MiB; lane 31 sits d rows away, the
	// rest conflict with it two rows apart.
	edge := func(d int64) [32]uint64 {
		a := strided(1<<20, 2*row)
		a[31] = 1<<20 + uint64(d*row)
		return a
	}
	var groups []AddrVec
	for g := 0; g < 4; g++ {
		var a [32]uint64
		for l := range a {
			a[l] = 1<<15 + uint64(g*4+l%4)*row + uint64(l/4%4)*8
		}
		groups = append(groups, vecOf(a, ^uint32(0), 64, false))
	}
	cases := []struct {
		name string
		vecs []AddrVec
	}{
		{"way32", []AddrVec{vecOf(strided(4096, row), ^uint32(0), 32, false)}},
		{"way32_descending", []AddrVec{vecOf(strided(1<<20, -row), ^uint32(0), 32, false)}},
		{"way32_wide", []AddrVec{vecOf(strided(4096, row), ^uint32(0), 128, false)}},
		{"edge_above_in", []AddrVec{vecOf(edge(63), ^uint32(0), 32, false)}},
		{"edge_above_out", []AddrVec{vecOf(edge(64), ^uint32(0), 32, false)}},
		{"edge_below_in", []AddrVec{vecOf(edge(-64), ^uint32(0), 32, false)}},
		{"edge_below_out", []AddrVec{vecOf(edge(-65), ^uint32(0), 32, false)}},
		{"edge_span_crosses", []AddrVec{vecOf(edge(63), ^uint32(0), 128, false),
			vecOf(strided(1<<20+63*row+120, 4), ^uint32(0), 128, false)}},
		{"straggler_partial_mask", []AddrVec{vecOf(edge(5000), 0x80000f0f, 64, false)}},
		{"sixteen_per_bank", groups},
		{"low_addresses", []AddrVec{vecOf(strided(0, 3*row), ^uint32(0), 32, false)}},
		{"wraps_address_space", []AddrVec{vecOf(strided(^uint64(0)-15*row-1, row), ^uint32(0), 64, false)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, cfg, tc.vecs)
		})
	}
	if got := SharedConflictPassesVecs(cfg, groups); got != 16 {
		t.Errorf("sixteen_per_bank counted %d passes, want 16", got)
	}
}

// A unit-stride vector whose byte range wraps the address space must
// fall back to the per-lane-equivalent general path rather than claim
// the contiguous-cover fast paths (unreachable from PTX, reachable via
// the exported API).
func TestVecUnitStrideWrapAround(t *testing.T) {
	cfg := TitanV()
	var wrap [32]uint64
	for i := 0; i < 32; i++ {
		wrap[i] = ^uint64(0) - 255 + uint64(i)*16 // lanes 16.. wrap past zero
	}
	checkAgainstReference(t, cfg, []AddrVec{vecOf(wrap, ^uint32(0), 128, false)})
}

// Unit-stride warps must not claim the stride fast path on a non-pow2
// geometry, and the general vec path must match the reference there too.
func TestVecNonPow2Geometry(t *testing.T) {
	cfg := TitanV()
	cfg.SharedBanks = 24
	cfg.BankWidth = 8
	var unit, scatter [32]uint64
	for i := 0; i < 32; i++ {
		unit[i] = uint64(i) * 8
		scatter[i] = uint64((i*7)%32) * 192
	}
	checkAgainstReference(t, cfg, []AddrVec{vecOf(unit, ^uint32(0), 64, false)})
	checkAgainstReference(t, cfg, []AddrVec{vecOf(scatter, ^uint32(0), 32, false)})
}

// Regression for the legacy coalescer's O(sectors²) dedup pathology: a
// fully scattered warp (every lane its own sector, emitted in descending
// order so neither the sorted nor the arithmetic fast paths apply) must
// still produce the exact 32-sector first-touch list, and wide scattered
// accesses (two sectors per lane) must dedup correctly through the hash
// set.
func TestVecScatteredRegression(t *testing.T) {
	cfg := TitanV()
	var desc [32]uint64
	for i := 0; i < 32; i++ {
		desc[i] = uint64(31-i) * 128
	}
	vecs := []AddrVec{vecOf(desc, ^uint32(0), 32, false)}
	got := CoalesceVecs(cfg, vecs)
	if len(got) != 32 {
		t.Fatalf("scattered warp coalesced to %d sectors, want 32", len(got))
	}
	for i, s := range got {
		if want := uint64(31-i) * 128; s != want {
			t.Fatalf("sector %d = %d, want %d (first-touch order)", i, s, want)
		}
	}
	// Sector-spanning scattered: 128-bit accesses straddling boundaries.
	var span [32]uint64
	for i := 0; i < 32; i++ {
		span[i] = uint64((31-i)*96) + 24
	}
	checkAgainstReference(t, cfg, []AddrVec{vecOf(span, ^uint32(0), 128, false)})
}

// The hash set must degrade to linear dedup, not fail, past its overflow
// threshold.
func TestSectorSetOverflowDegrades(t *testing.T) {
	cfg := TitanV()
	// 32 groups × 32 lanes of distinct sectors = 1024 sectors, beyond the
	// 768-entry overflow threshold.
	var vecs []AddrVec
	for g := 0; g < 32; g++ {
		var a [32]uint64
		for i := 0; i < 32; i++ {
			// Descending so no fast path applies inside groups.
			a[i] = uint64(g*32+(31-i)) * 128
		}
		vecs = append(vecs, vecOf(a, ^uint32(0), 32, false))
	}
	got := CoalesceVecs(cfg, vecs)
	want := Coalesce(cfg, expand(vecs))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("overflowed coalesce diverges: %d vs %d sectors", len(got), len(want))
	}
	if len(got) != 1024 {
		t.Fatalf("got %d sectors, want 1024", len(got))
	}
}

// FuzzVecMatchesReference is the equivalence fuzz: random geometries,
// masks, widths and address vectors must coalesce and conflict-count
// identically on the vectorized and per-lane reference paths. The
// mirror input folds lanes 16..31 onto 0..15, the wmma fragment shape
// (Volta A/B piece groups repeat across half-warps) the mirrored-halves
// fast paths dispatch on.
func FuzzVecMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint32(0xffffffff), uint8(2), uint8(0), false, false)
	f.Add([]byte{0, 0, 0, 0, 255, 255}, uint32(0x0000ffff), uint8(4), uint8(1), true, false)
	f.Add([]byte{7, 13, 255, 0, 1, 1, 2, 2}, uint32(0xdeadbeef), uint8(0), uint8(2), false, false)
	f.Add([]byte{9}, uint32(1), uint8(3), uint8(3), true, false)
	// wmma-shaped seeds: mirrored fragment halves (128- and 32-bit
	// pieces), a mirrored partial mask, and slot-aligned two-group runs.
	f.Add([]byte{16, 32, 48, 64, 80, 96, 112, 128}, uint32(0xffffffff), uint8(4), uint8(0), false, true)
	f.Add([]byte{8, 8, 8, 8, 40, 40, 40, 40}, uint32(0xffffffff), uint8(2), uint8(0), false, true)
	f.Add([]byte{64, 1, 191, 17}, uint32(0x0f0f0f0f), uint8(4), uint8(1), true, true)
	f.Add([]byte{12, 24, 36, 48, 60, 72}, uint32(0xffffffff), uint8(3), uint8(0), true, true)
	f.Fuzz(func(t *testing.T, seed []byte, mask uint32, widthSel, geoSel uint8, store, mirror bool) {
		widths := []int32{8, 16, 32, 64, 128}
		bits := widths[int(widthSel)%len(widths)]
		cfg := TitanV()
		switch geoSel % 4 {
		case 1:
			cfg.SectorBytes = 64
		case 2:
			cfg.SharedBanks = 16
		case 3:
			cfg.BankWidth = 8
			cfg.SectorBytes = 16
		}
		if len(seed) == 0 {
			return
		}
		// Derive a 32-lane address vector from the seed: small strides and
		// modular wraps so duplicates, sector sharing and bank conflicts
		// all actually occur.
		var a [32]uint64
		for i := 0; i < 32; i++ {
			b := seed[i%len(seed)]
			a[i] = uint64(b)*uint64(seed[0]%8+1)*4 + uint64(i%(int(b%5)+1))*64
		}
		if mirror {
			for i := 16; i < 32; i++ {
				a[i] = a[i-16]
			}
		}
		vecs := []AddrVec{vecOf(a, mask, bits, store)}
		if len(seed) > 4 { // second group from the reversed vector
			var rev [32]uint64
			for i := range rev {
				rev[i] = a[31-i] + uint64(seed[1])
			}
			vecs = append(vecs, vecOf(rev, mask>>3|mask<<7, bits, store))
		}
		reqs := expand(vecs)
		gotSec := CoalesceVecs(cfg, vecs)
		wantSec := Coalesce(cfg, reqs)
		if !reflect.DeepEqual(gotSec, wantSec) && !(len(gotSec) == 0 && len(wantSec) == 0) {
			t.Fatalf("CoalesceVecs = %v, want %v (vecs %+v)", gotSec, wantSec, vecs)
		}
		gotP := SharedConflictPassesVecs(cfg, vecs)
		wantP := SharedConflictPasses(cfg, reqs)
		if gotP != wantP {
			t.Fatalf("SharedConflictPassesVecs = %d, want %d (vecs %+v)", gotP, wantP, vecs)
		}
	})
}
