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
// coalesced transaction per cycle. A warp instruction's accesses are a
// Classifier verdict that SharedTiming and GlobalTiming charge.
type SMPort struct {
	sys *System
	l1  *Cache
	// lsuFree gates global transactions (one per cycle); sharedFree gates
	// the shared-memory pipeline (one bank pass per cycle). The two
	// datapaths are separate in Volta's MIO.
	lsuFree    uint64
	sharedFree uint64

	// Reusable per-instruction scratch: the classifier's and the coalesced
	// sector list. An SMPort belongs to exactly one SM of one Simulator, so
	// the scratch is never shared.
	cls     Classifier
	sectors []uint64

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
		cls: Classifier{cfg: cfg, shift: s.secShift},
	}
}

// Classifier returns the port's classifier, for a caller that splits
// classifying an access from charging it.
func (p *SMPort) Classifier() *Classifier { return &p.cls }

// AccessGlobalVecs serves one warp instruction's batched global access
// groups: GlobalTiming over the classifier's sectors.
func (p *SMPort) AccessGlobalVecs(now uint64, vecs []AddrVec) uint64 {
	p.sectors = p.cls.SectorsVecs(p.sectors[:0], vecs)
	return p.GlobalTiming(now, p.sectors, len(vecs) > 0 && vecs[0].Store)
}

// GlobalTiming serves one warp instruction's coalesced sectors (a store's
// when store): issue one transaction per cycle through the LSU, look up
// the L1, and descend the hierarchy on misses. It returns the cycle the
// last sector arrives (loads) or is accepted by the write buffer (stores,
// which retire once handed to the LSU — the L2/DRAM traversal still
// consumes downstream bandwidth but the warp does not wait on it).
func (p *SMPort) GlobalTiming(now uint64, sectors []uint64, store bool) uint64 {
	cfg := &p.sys.cfg
	done := now
	for _, sec := range sectors {
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

// SharedTiming serves one warp instruction's shared-memory accesses, of
// the given bank pass count, returning the completion cycle.
func (p *SMPort) SharedTiming(now uint64, passes int) uint64 {
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

// Classifier is the pure half of an SM's memory port: what one warp
// instruction's accesses amount to — the bank passes of its shared groups,
// the sectors its global groups touch — with no cache, queue or counter
// touched, so it may run ahead of the timing that charges it. It holds
// scratch: one per goroutine.
type Classifier struct {
	cfg    Config
	shift  uint // a sector is 1<<shift bytes
	banks  bankScratch
	secSet sectorSet
}

// SharedPassesVecs is SharedConflictPassesVecs on the classifier's scratch.
func (c *Classifier) SharedPassesVecs(vecs []AddrVec) int {
	return sharedConflictPassesVecs(&c.banks, &c.cfg, vecs)
}

// SectorsVecs appends CoalesceVecs' sector list to out.
func (c *Classifier) SectorsVecs(out []uint64, vecs []AddrVec) []uint64 {
	return coalesceVecsInto(out, &c.secSet, c.shift, vecs)
}
