package mem

// System is the chip-wide memory system: banked L2 and bandwidth-limited
// DRAM shared by every SM. SMs attach through SMPort, which adds the
// private L1 and shared memory. All methods are single-threaded, driven by
// the simulator's global cycle loop.
type System struct {
	cfg      Config
	l2       []*Cache
	l2Free   []uint64 // next free cycle per L2 bank port
	dramFree []uint64 // next free cycle per DRAM channel

	// A sector's index is its address >> secShift, its L2 bank and DRAM
	// channel that index modulo their counts; service times per sector.
	secShift               uint
	banks, channels        divisor
	l2Service, dramService uint64

	L2Accesses   uint64
	DRAMAccesses uint64
}

// NewSystem builds the shared memory system for a chip.
func NewSystem(cfg Config) *System {
	perChannel := max(1, cfg.DRAMBytesPerCycle/cfg.DRAMChannels)
	s := &System{
		cfg:         cfg,
		secShift:    log2(cfg.SectorBytes),
		banks:       newDivisor(cfg.L2Banks),
		channels:    newDivisor(cfg.DRAMChannels),
		l2Service:   uint64(max(1, cfg.SectorBytes/cfg.L2BytesPerCycle)),
		dramService: uint64((cfg.SectorBytes + perChannel - 1) / perChannel),
	}
	s.l2 = make([]*Cache, cfg.L2Banks)
	s.l2Free = make([]uint64, cfg.L2Banks)
	for i := range s.l2 {
		s.l2[i] = NewCache(cfg.L2SizeBytes/cfg.L2Banks, cfg.L2LineBytes, cfg.L2Ways, cfg.SectorBytes)
	}
	s.dramFree = make([]uint64, cfg.DRAMChannels)
	return s
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// L2HitRate returns the aggregate L2 hit rate.
func (s *System) L2HitRate() float64 {
	var h, m uint64
	for _, c := range s.l2 {
		h += c.Hits
		m += c.Misses
	}
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// accessL2 serves one sector at the L2/DRAM level, returning the cycle the
// data is available.
//
//simlint:hotpath
func (s *System) accessL2(now uint64, sector uint64) uint64 {
	s.L2Accesses++
	_, bank := s.banks.divmod(sector >> s.secShift)
	// Queue on the bank port.
	start := max(now, s.l2Free[bank])
	s.l2Free[bank] = start + s.l2Service
	if s.l2[bank].Access(sector) {
		return start + uint64(s.cfg.L2HitLatency)
	}
	// L2 miss: go to DRAM.
	return s.accessDRAM(start+uint64(s.cfg.L2HitLatency), sector)
}

//simlint:hotpath
func (s *System) accessDRAM(now uint64, sector uint64) uint64 {
	s.DRAMAccesses++
	_, ch := s.channels.divmod(sector >> s.secShift)
	start := max(now, s.dramFree[ch])
	s.dramFree[ch] = start + s.dramService
	return start + s.dramService + uint64(s.cfg.DRAMLatency)
}

// SMPort is one SM's window into the memory system: a private L1, the
// SM-local shared memory timing, and an LSU issue port able to start one
// coalesced transaction per cycle.
type SMPort struct {
	sys *System
	l1  *Cache
	// lsuFree gates global transactions (one per cycle); sharedFree gates
	// the shared-memory pipeline (one bank pass per cycle). The two
	// datapaths are separate in Volta's MIO.
	lsuFree    uint64
	sharedFree uint64

	// Reusable per-instruction scratch: coalesced sector list, the
	// shared-memory bank conflict counter's per-bank word lists, and the
	// batched coalescer's dedup set. An SMPort belongs to exactly one SM
	// of one Simulator, so the scratch is never shared.
	sectors []uint64
	banks   bankScratch
	secSet  sectorSet

	L1Hits, L1Misses   uint64
	GlobalTransactions uint64
	SharedAccesses     uint64
	SharedConflicts    uint64
}

// NewSMPort attaches a new SM to the system.
func (s *System) NewSMPort() *SMPort {
	cfg := s.cfg
	return &SMPort{
		sys: s,
		l1:  NewCache(cfg.L1SizeBytes, cfg.L1LineBytes, cfg.L1Ways, cfg.SectorBytes),
	}
}

// AccessGlobal serves one warp instruction's global accesses: coalesce
// into sectors, issue one transaction per cycle through the LSU, look up
// the L1, and descend the hierarchy on misses. It returns the cycle the
// last sector arrives (loads) or is accepted by the write buffer
// (stores, which retire once handed to the LSU — the L2/DRAM traversal
// still consumes downstream bandwidth but the warp does not wait on it).
func (p *SMPort) AccessGlobal(now uint64, reqs []Request) uint64 {
	p.sectors = coalesceInto(p.sectors[:0], &p.sys.cfg, reqs)
	return p.globalTiming(now, len(reqs) > 0 && reqs[0].Store)
}

// AccessGlobalVecs is AccessGlobal for batched warp access groups: same
// LSU/L1/L2 timing over the sector list of the vectorized coalescer.
func (p *SMPort) AccessGlobalVecs(now uint64, vecs []AddrVec) uint64 {
	p.sectors = coalesceVecsInto(p.sectors[:0], &p.secSet, p.sys.secShift, vecs)
	return p.globalTiming(now, len(vecs) > 0 && vecs[0].Store)
}

// globalTiming issues the coalesced sectors in p.sectors through the LSU
// and memory hierarchy, returning the completion cycle.
func (p *SMPort) globalTiming(now uint64, store bool) uint64 {
	cfg := &p.sys.cfg
	done := now
	for _, sec := range p.sectors {
		p.GlobalTransactions++
		// LSU issues one transaction per cycle.
		issue := now
		if p.lsuFree > issue {
			issue = p.lsuFree
		}
		p.lsuFree = issue + 1
		var t uint64
		if store {
			// Write-through, write-evict L1 (GPGPU-Sim's Volta policy);
			// the store retires at the write buffer while the write
			// drains through L2 in the background.
			p.l1.Invalidate(sec)
			p.sys.accessL2(issue, sec)
			t = issue + 1
		} else if p.l1.Access(sec) {
			p.L1Hits++
			t = issue + uint64(cfg.L1HitLatency)
		} else {
			p.L1Misses++
			t = p.sys.accessL2(issue+uint64(cfg.L1HitLatency), sec)
		}
		if t > done {
			done = t
		}
	}
	return done
}

// AccessShared serves one warp instruction's shared-memory accesses,
// serializing bank conflicts.
func (p *SMPort) AccessShared(now uint64, reqs []Request) uint64 {
	return p.sharedTiming(now, sharedConflictPasses(&p.banks, &p.sys.cfg, reqs))
}

// AccessSharedVecs is AccessShared for batched warp access groups.
func (p *SMPort) AccessSharedVecs(now uint64, vecs []AddrVec) uint64 {
	return p.sharedTiming(now, sharedConflictPassesVecs(&p.banks, &p.sys.cfg, vecs))
}

// sharedTiming charges one shared-memory access of the given pass count.
func (p *SMPort) sharedTiming(now uint64, passes int) uint64 {
	cfg := &p.sys.cfg
	p.SharedAccesses++
	p.SharedConflicts += uint64(passes - 1)
	issue := now
	if p.sharedFree > issue {
		issue = p.sharedFree
	}
	p.sharedFree = issue + uint64(passes)
	return issue + uint64(cfg.SharedLatency) + uint64(passes-1)
}

// L1HitRate returns this SM's L1 hit rate.
func (p *SMPort) L1HitRate() float64 {
	t := p.L1Hits + p.L1Misses
	if t == 0 {
		return 0
	}
	return float64(p.L1Hits) / float64(t)
}
