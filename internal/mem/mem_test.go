package mem

import (
	"reflect"
	"testing"
	"testing/quick"
)

func reqs32(addrs ...uint64) []Request {
	out := make([]Request, len(addrs))
	for i, a := range addrs {
		out[i] = Request{Addr: a, Bits: 32}
	}
	return out
}

// laneVecs packs requests into access groups whose lane-major expansion
// is the request list: request i in lane i of one group when they fit a
// warp and share a width, else one group per request, all in lane 0.
func laneVecs(reqs []Request) []AddrVec {
	uniform := len(reqs) <= 32
	for _, r := range reqs {
		uniform = uniform && r.Bits == reqs[0].Bits && r.Store == reqs[0].Store
	}
	if uniform && len(reqs) > 0 {
		var a [32]uint64
		for i, r := range reqs {
			a[i] = r.Addr
		}
		return []AddrVec{vecOf(a, uint32(1<<len(reqs)-1), int32(reqs[0].Bits), reqs[0].Store)}
	}
	vecs := make([]AddrVec, len(reqs))
	for i, r := range reqs {
		vecs[i] = vecOf([32]uint64{r.Addr}, 1, int32(r.Bits), r.Store)
	}
	return vecs
}

// coalesce is CoalesceVecs on the requests' groups, which the simulator
// runs, checked against the per-lane reference Coalesce.
func coalesce(t *testing.T, cfg Config, reqs []Request) []uint64 {
	t.Helper()
	got, want := CoalesceVecs(cfg, laneVecs(reqs)), Coalesce(cfg, reqs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CoalesceVecs = %v, reference Coalesce = %v", got, want)
	}
	return got
}

// sharedPasses is SharedConflictPassesVecs on the requests' groups,
// checked against the per-lane reference SharedConflictPasses.
func sharedPasses(t *testing.T, cfg Config, reqs []Request) int {
	t.Helper()
	got, want := SharedConflictPassesVecs(cfg, laneVecs(reqs)), SharedConflictPasses(cfg, reqs)
	if got != want {
		t.Fatalf("SharedConflictPassesVecs = %d, reference SharedConflictPasses = %d", got, want)
	}
	return got
}

func TestCoalesceFullyCoalesced(t *testing.T) {
	cfg := TitanV()
	// 32 lanes × 4 bytes consecutive = 128 bytes = 4 sectors.
	var rs []Request
	for lane := 0; lane < 32; lane++ {
		rs = append(rs, Request{Addr: uint64(4 * lane), Bits: 32})
	}
	if got := coalesce(t, cfg, rs); len(got) != 4 {
		t.Errorf("consecutive warp access coalesces to %d sectors, want 4", len(got))
	}
}

func TestCoalesceScattered(t *testing.T) {
	cfg := TitanV()
	// Each lane hits its own sector: 32 transactions.
	var rs []Request
	for lane := 0; lane < 32; lane++ {
		rs = append(rs, Request{Addr: uint64(128 * lane), Bits: 32})
	}
	if got := coalesce(t, cfg, rs); len(got) != 32 {
		t.Errorf("scattered warp access coalesces to %d sectors, want 32", len(got))
	}
}

func TestCoalesceWideAccessSpansSectors(t *testing.T) {
	cfg := TitanV()
	// A 128-bit access crossing a sector boundary touches two sectors.
	got := coalesce(t, cfg, []Request{{Addr: 24, Bits: 128}})
	if len(got) != 2 {
		t.Errorf("boundary-crossing 128-bit access = %d sectors, want 2", len(got))
	}
	// Aligned it stays within one.
	got = coalesce(t, cfg, []Request{{Addr: 32, Bits: 128}})
	if len(got) != 1 {
		t.Errorf("aligned 128-bit access = %d sectors, want 1", len(got))
	}
}

func TestCoalesceDuplicatesMerge(t *testing.T) {
	cfg := TitanV()
	got := coalesce(t, cfg, reqs32(0, 4, 8, 0, 4))
	if len(got) != 1 {
		t.Errorf("same-sector accesses = %d sectors, want 1", len(got))
	}
}

// Property: sector count never exceeds request count × ceil(width/sector)
// and sectors are unique; CoalesceVecs agrees with the reference.
func TestCoalesceProperties(t *testing.T) {
	cfg := TitanV()
	f := func(seed []uint16) bool {
		var rs []Request
		for _, s := range seed {
			rs = append(rs, Request{Addr: uint64(s) * 4, Bits: 32})
		}
		secs := CoalesceVecs(cfg, laneVecs(rs))
		if !reflect.DeepEqual(secs, Coalesce(cfg, rs)) || len(secs) > len(rs) {
			return false
		}
		seen := map[uint64]bool{}
		for _, s := range secs {
			if s%uint64(cfg.SectorBytes) != 0 || seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedConflictFree(t *testing.T) {
	cfg := TitanV()
	// Stride-4-bytes: each lane its own bank → 1 pass.
	var rs []Request
	for lane := 0; lane < 32; lane++ {
		rs = append(rs, Request{Addr: uint64(4 * lane), Bits: 32})
	}
	if got := sharedPasses(t, cfg, rs); got != 1 {
		t.Errorf("conflict-free access takes %d passes, want 1", got)
	}
}

func TestSharedBroadcast(t *testing.T) {
	cfg := TitanV()
	// All lanes read the same word: broadcast, 1 pass.
	var rs []Request
	for lane := 0; lane < 32; lane++ {
		rs = append(rs, Request{Addr: 64, Bits: 32})
	}
	if got := sharedPasses(t, cfg, rs); got != 1 {
		t.Errorf("broadcast takes %d passes, want 1", got)
	}
}

func TestSharedWorstCaseConflict(t *testing.T) {
	cfg := TitanV()
	// Stride 128 bytes: every lane lands in bank 0 → 32 passes.
	var rs []Request
	for lane := 0; lane < 32; lane++ {
		rs = append(rs, Request{Addr: uint64(128 * lane), Bits: 32})
	}
	if got := sharedPasses(t, cfg, rs); got != 32 {
		t.Errorf("stride-128 access takes %d passes, want 32", got)
	}
}

func TestSharedTwoWayConflict(t *testing.T) {
	cfg := TitanV()
	// Stride 8 bytes over 32 lanes wraps the 32 banks twice: two distinct
	// words per bank → 2 passes.
	var rs []Request
	for lane := 0; lane < 32; lane++ {
		rs = append(rs, Request{Addr: uint64(8 * lane), Bits: 32})
	}
	if got := sharedPasses(t, cfg, rs); got != 2 {
		t.Errorf("stride-8 access takes %d passes, want 2", got)
	}
	// Stride 64 bytes lands on banks 0 and 16 only: 16-way conflict.
	rs = rs[:0]
	for lane := 0; lane < 32; lane++ {
		rs = append(rs, Request{Addr: uint64(64 * lane), Bits: 32})
	}
	if got := sharedPasses(t, cfg, rs); got != 16 {
		t.Errorf("stride-64 access takes %d passes, want 16", got)
	}
}

func TestCacheHitMissLRU(t *testing.T) {
	c := NewCache(2*128, 128, 2, 32) // 2 lines, fully associative (1 set × 2 ways)
	if c.Access(0) {
		t.Error("cold access should miss")
	}
	if !c.Access(0) {
		t.Error("second access should hit")
	}
	if c.Access(128) {
		t.Error("new line should miss")
	}
	c.Access(0)   // touch line 0 so line 128 is LRU
	c.Access(256) // evicts line 128
	if c.Access(128) {
		t.Error("evicted line should miss")
	}
	if got := c.HitRate(); got <= 0 || got >= 1 {
		t.Errorf("hit rate %v should be in (0,1)", got)
	}
}

func TestCacheSectoredFill(t *testing.T) {
	c := NewCache(1024, 128, 4, 32)
	c.Access(0)
	if c.Access(32) {
		t.Error("different sector of the same line should still miss")
	}
	if !c.Access(0) || !c.Access(32) {
		t.Error("both sectors should now hit")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(1024, 128, 4, 32)
	c.Access(0)
	c.Invalidate(0)
	if c.Access(0) {
		t.Error("invalidated line should miss")
	}
}

// accessGlobal and accessShared charge one warp's requests through the
// port as the simulator does: the port classifier's verdict, then the
// port's timing.
func accessGlobal(p *SMPort, now uint64, reqs []Request) uint64 {
	return p.GlobalTiming(now, p.Classifier().Sectors(nil, reqs), len(reqs) > 0 && reqs[0].Store)
}

func accessShared(p *SMPort, now uint64, reqs []Request) uint64 {
	return p.SharedTiming(now, p.Classifier().SharedPasses(reqs))
}

func TestSMPortGlobalLatencies(t *testing.T) {
	cfg := TitanV()
	sys := NewSystem(cfg)
	p := sys.NewSMPort()
	// Cold access: L1 miss → L2 miss → DRAM.
	cold := accessGlobal(p, 0, reqs32(0))
	wantCold := uint64(1 + cfg.L1HitLatency + cfg.L2HitLatency + cfg.DRAMLatency)
	if cold < wantCold {
		t.Errorf("cold access done at %d, want ≥ %d", cold, wantCold)
	}
	// Warm access hits L1.
	warm := accessGlobal(p, 1000, reqs32(0))
	if warm-1000 > uint64(cfg.L1HitLatency+2) {
		t.Errorf("warm access took %d cycles, want ≈ L1 hit %d", warm-1000, cfg.L1HitLatency)
	}
	if p.L1Hits != 1 || p.L1Misses != 1 {
		t.Errorf("L1 hits/misses = %d/%d, want 1/1", p.L1Hits, p.L1Misses)
	}
}

func TestSMPortStoreInvalidatesL1(t *testing.T) {
	cfg := TitanV()
	sys := NewSystem(cfg)
	p := sys.NewSMPort()
	accessGlobal(p, 0, reqs32(0))                                     // fill (miss)
	accessGlobal(p, 500, []Request{{Addr: 0, Bits: 32, Store: true}}) // write-evict
	accessGlobal(p, 1500, reqs32(0))                                  // must miss again
	if p.L1Hits != 0 || p.L1Misses != 2 {
		t.Errorf("write-evict: hits=%d misses=%d, want 0/2", p.L1Hits, p.L1Misses)
	}
	accessGlobal(p, 3000, reqs32(0)) // now resident again
	if p.L1Hits != 1 {
		t.Errorf("refill did not hit: hits=%d misses=%d", p.L1Hits, p.L1Misses)
	}
}

func TestDRAMBandwidthQueueing(t *testing.T) {
	cfg := TitanV()
	cfg.DRAMChannels = 1
	cfg.DRAMBytesPerCycle = 32 // one sector per cycle
	cfg.L2SizeBytes = 4 << 10  // tiny L2 to force misses
	cfg.L2Banks = 1
	sys := NewSystem(cfg)
	p := sys.NewSMPort()
	// Stream far-apart sectors so everything misses to one DRAM channel.
	var last uint64
	for i := 0; i < 64; i++ {
		last = accessGlobal(p, uint64(i), reqs32(uint64(i)*4096))
	}
	// With 1 sector/cycle service the 64th access cannot complete before
	// ~64 cycles of serialized service plus fixed latency.
	min := uint64(64 + cfg.DRAMLatency)
	if last < min {
		t.Errorf("64 streamed misses done at %d, want ≥ %d (bandwidth queueing)", last, min)
	}
	if sys.DRAMAccesses == 0 || sys.L2Accesses == 0 {
		t.Error("expected DRAM and L2 traffic")
	}
}

func TestSMPortShared(t *testing.T) {
	cfg := TitanV()
	sys := NewSystem(cfg)
	p := sys.NewSMPort()
	var rs []Request
	for lane := 0; lane < 32; lane++ {
		rs = append(rs, Request{Addr: uint64(128 * lane), Bits: 32})
	}
	done := accessShared(p, 0, rs)
	want := uint64(cfg.SharedLatency + 31)
	if done < want {
		t.Errorf("32-way conflicted shared access done at %d, want ≥ %d", done, want)
	}
	if p.SharedConflicts != 31 {
		t.Errorf("recorded %d conflicts, want 31", p.SharedConflicts)
	}
}

func TestL2SharedAcrossPorts(t *testing.T) {
	cfg := TitanV()
	sys := NewSystem(cfg)
	p1 := sys.NewSMPort()
	p2 := sys.NewSMPort()
	accessGlobal(p1, 0, reqs32(4096)) // warms L2
	t2 := accessGlobal(p2, 5000, reqs32(4096))
	// p2 misses its own L1 but must hit L2 (no DRAM latency).
	if t2-5000 >= uint64(cfg.DRAMLatency) {
		t.Errorf("second SM's access took %d cycles; expected an L2 hit", t2-5000)
	}
	if p2.L1Hits != 0 || p2.L1Misses != 1 {
		t.Errorf("p2 L1 stats %d/%d, want 0/1", p2.L1Hits, p2.L1Misses)
	}
}
