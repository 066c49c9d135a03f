package gpu

import (
	"math"
	"math/bits"

	"repro/internal/ptx"
)

// Warp lifecycle and the per-sub-core ready-set bookkeeping. Instead of
// rescanning every warp every cycle, each sub-core keeps (a) a bitmask of
// Ready warps and (b) a min-heap of Stalled warps keyed by their wake
// cycle, both updated at the moments warp state actually changes — issue,
// scoreboard stall, stallUntil expiry, barrier arrival and release, and
// warp finish. The scheduler then consults only the ready set, and the
// idle fast-forward reads the next wake straight off the heap top.
//
// On top of the ready set, the sub-core keeps the masks the policies
// read their issue order from, so no policy re-sorts candidates per
// cycle (GTO reads its order key, lastIssue, off the warps themselves:
// see gtoPolicy.next):
//   - tlMask mirrors the TwoLevel active subset as a bitmask so its
//     visit set is a mask intersection instead of list filtering.
//   - waiting[u] marks the warps whose next instruction issues on unit u,
//     so a busy port removes all of them from issue selection by one AND
//     instead of one failed tryWarp each (see candidates).
//
// Invariants:
//   - a warp's state is warpReady  ⇔ its slot bit is set in readyMask
//   - a warp's state is warpStalled ⇔ it has exactly one wakeHeap entry,
//     keyed by its current stallUntil (stallUntil never changes while
//     Stalled, so entries are never stale)
//   - warpAtBarrier / warpFinished warps appear in neither structure
//   - no two live warps of a sub-core share a lastIssue ≥ 1: at most one
//     warp issues per sub-core per cycle (GTO's ties are only at zero).
//   - for u ≠ unitNone a slot's bit is set in waiting[u] ⇔ its warp's
//     unit field is u, and a Ready warp with that bit set would leave
//     tryWarp at the port screen while u is busy: it has a next
//     instruction, which issues on u, and no pending hazard.

// warpState is the scheduling lifecycle state of a simWarp.
type warpState uint8

const (
	// warpReady: offerable to the scheduler — not finished, not at a
	// barrier, stallUntil expired (a busy unit can still block issue).
	warpReady warpState = iota
	// warpStalled: waiting for a known cycle (scoreboard hazard or the
	// post-release barrier latency); parked in the sub-core's wake heap.
	warpStalled
	// warpAtBarrier: waiting for the CTA barrier; only a release wakes it.
	warpAtBarrier
	// warpFinished: executed exit or ran out of instructions.
	warpFinished
)

type simCTA struct {
	shared    int // its shared window's bytes
	warps     []*simWarp
	live      int
	atBarrier int
	slot      uint32 // the CTA's slot in a pipelined launch's record (replay.go)
}

type simWarp struct {
	// The warp itself, or when the launch steps it ahead (ahead.go) the
	// timing loop's place in its stream.
	warp       *ptx.Warp
	cur        cursor
	lanes      uint64 // populated lanes
	cta        *simCTA
	sc         *subcore
	slot       int    // index in sc.warps, maintained across compaction
	vslot      uint32 // the warp's slot in a pipelined launch's record
	state      warpState
	regReady   []uint64
	stallUntil uint64
	lastIssue  uint64
	// hazardAt is the hazard-clear cycle of the warp's next instruction,
	// recorded by issue for tryWarp to compare against. It is exact
	// because regReady changes only when this warp issues, and needs no
	// valid flag: a fresh warp has nothing pending, which is the zero
	// value, and issue records it on every path that leaves the warp live.
	hazardAt uint64
	// unit is the port the warp's next instruction issues on, as the
	// sub-core's waiting masks hold it (see setUnit).
	unit unit
	// tlActive marks membership in the TwoLevel policy's active subset.
	tlActive bool
}

type subcore struct {
	warps []*simWarp
	// ports models structural availability of the execution units — the
	// one seam the scheduler consults before issue (see ports.go).
	ports  unitPorts
	greedy int // index of the warp GTO sticks with; LRR/TwoLevel rotation anchor
	// nextWake mirrors sm.nextWake at sub-core granularity: while the
	// clock is below it this sub-core's scheduler is skipped.
	// pendingWake collects barrier releases that re-arm this sub-core's
	// warps while its own scan is in flight.
	nextWake    uint64
	pendingWake uint64

	policy schedPolicy
	// tlCap is the TwoLevel active-subset size; tlActive its population.
	tlCap    int
	tlActive int

	readyMask []uint64    // bit per warp slot: state == warpReady
	tlMask    []uint64    // bit per warp slot: in the TwoLevel active subset
	wakeHeap  []wakeEntry // min-heap over Stalled warps' stallUntil
	// waiting[u] has a bit per warp slot whose next instruction issues on
	// unit u. waiting[unitNone] is never read: it is the sink that spares
	// setUnit a branch per store.
	waiting [numUnits][]uint64
	maskBuf []uint64 // scratch: andMask intersections
	candBuf []uint64 // scratch: this step's issue candidates
}

// wakeEntry parks one Stalled warp in the sub-core's wake min-heap.
type wakeEntry struct {
	at uint64
	w  *simWarp
}

// reset clears all per-run state, keeping allocated capacity.
func (sc *subcore) reset() {
	sc.warps = sc.warps[:0]
	sc.ports = unitPorts{}
	sc.greedy = 0
	sc.nextWake, sc.pendingWake = 0, math.MaxUint64
	sc.tlActive = 0
	sc.clearMasks()
	sc.wakeHeap = sc.wakeHeap[:0]
}

// clearMasks zeroes every slot-indexed mask.
func (sc *subcore) clearMasks() {
	clear(sc.readyMask)
	clear(sc.tlMask)
	for u := range sc.waiting {
		clear(sc.waiting[u])
	}
}

func (sc *subcore) setBit(slot int)   { sc.readyMask[slot>>6] |= 1 << (slot & 63) }
func (sc *subcore) clearBit(slot int) { sc.readyMask[slot>>6] &^= 1 << (slot & 63) }

func (sc *subcore) setTL(slot int)   { sc.tlMask[slot>>6] |= 1 << (slot & 63) }
func (sc *subcore) clearTL(slot int) { sc.tlMask[slot>>6] &^= 1 << (slot & 63) }

func (sc *subcore) readyBit(slot int) bool {
	return sc.readyMask[slot>>6]&(1<<(slot&63)) != 0
}

// setUnit records the port the warp's next instruction issues on, moving
// its slot's bit between the waiting masks. unitNone
// keeps the warp visitable whatever is busy; it is recorded for a warp
// with no instruction left (tryWarp finishes it in policy order) and from
// a bar until the warp next issues — the first visit after a barrier
// release is the one place a Ready warp can still carry hazardAt > now
// (noteHazard ran at the bar, release re-arms with the barrier latency
// only), and that visit must park it as TwoLevel's demotion can observe.
func (sc *subcore) setUnit(w *simWarp, u unit) {
	if u == w.unit {
		return
	}
	wi, bit := w.slot>>6, uint64(1)<<(w.slot&63)
	sc.waiting[w.unit][wi] &^= bit
	sc.waiting[u][wi] |= bit
	w.unit = u
}

// enqueue adds a newly dispatched warp to the sub-core's pool. The warp's
// state must already be set (Ready, or Finished for warps that exited
// during initialization); next is the port its first instruction issues
// on.
func (sc *subcore) enqueue(w *simWarp, next unit) {
	w.slot = len(sc.warps)
	sc.warps = append(sc.warps, w)
	for len(sc.readyMask)*64 <= w.slot {
		sc.readyMask = append(sc.readyMask, 0)
		sc.tlMask = append(sc.tlMask, 0)
		for u := range sc.waiting {
			sc.waiting[u] = append(sc.waiting[u], 0)
		}
		sc.candBuf = append(sc.candBuf, 0)
	}
	if w.state == warpReady {
		sc.setBit(w.slot)
		sc.setUnit(w, next)
	}
}

// setReady wakes a Stalled warp whose stallUntil expired (the warp was
// just popped off the wake heap).
func (sc *subcore) setReady(w *simWarp) {
	w.state = warpReady
	sc.setBit(w.slot)
}

// stall moves a Ready warp to Stalled until the given cycle.
func (sc *subcore) stall(w *simWarp, until uint64) {
	w.stallUntil = until
	w.state = warpStalled
	sc.clearBit(w.slot)
	sc.heapPush(until, w)
}

// toBarrier parks a Ready warp at its CTA barrier.
func (sc *subcore) toBarrier(w *simWarp) {
	w.state = warpAtBarrier
	sc.clearBit(w.slot)
	sc.setUnit(w, unitNone) // visitable after the release: see setUnit
}

// release re-arms a warp waiting at a barrier: AtBarrier → Stalled until
// the post-release latency expires.
func (sc *subcore) release(w *simWarp, until uint64) {
	w.stallUntil = until
	w.state = warpStalled
	sc.heapPush(until, w)
}

// finish retires a Ready warp (exit, or no instructions left).
func (sc *subcore) finish(w *simWarp) {
	sc.policy.retired(sc, w)
	w.state = warpFinished
	sc.clearBit(w.slot)
	sc.setUnit(w, unitNone)
}

// drainWake moves every Stalled warp whose wake cycle has arrived back to
// the ready set.
func (sc *subcore) drainWake(now uint64) {
	for len(sc.wakeHeap) > 0 && sc.wakeHeap[0].at <= now {
		sc.setReady(sc.heapPop().w)
	}
}

// heapTop returns the earliest Stalled wake cycle, MaxUint64 when none.
func (sc *subcore) heapTop() uint64 {
	if len(sc.wakeHeap) == 0 {
		return math.MaxUint64
	}
	return sc.wakeHeap[0].at
}

func (sc *subcore) heapPush(at uint64, w *simWarp) {
	h := append(sc.wakeHeap, wakeEntry{at, w})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	sc.wakeHeap = h
}

func (sc *subcore) heapPop() wakeEntry {
	h := sc.wakeHeap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].at < h[l].at {
			l = r
		}
		if h[i].at <= h[l].at {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	sc.wakeHeap = h
	return top
}

// andMask intersects a and b into the sub-core's mask scratch.
func (sc *subcore) andMask(a, b []uint64) []uint64 {
	out := sc.maskBuf[:0]
	for i := range a {
		out = append(out, a[i]&b[i])
	}
	sc.maskBuf = out
	return out
}

// maskIntersects reports whether a and b share a set bit.
func maskIntersects(a, b []uint64) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// firstRotated returns the mask's first set slot in rotation order from
// g+1 (the slots above g, then the wrap-around from 0 up to g itself), -1
// when the mask is empty.
func firstRotated(mask []uint64, g int) int {
	gw := g >> 6
	low := uint64(1)<<(uint(g&63)+1) - 1 // bits 0..g&63 of g's word; all 64 when g&63 is 63
	if word := mask[gw] &^ low; word != 0 {
		return gw<<6 + bits.TrailingZeros64(word)
	}
	for i := 1; i < len(mask); i++ { // the other words, upwards from g's and around
		if wi := (gw + i) % len(mask); mask[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(mask[wi])
		}
	}
	if word := mask[gw] & low; word != 0 {
		return gw<<6 + bits.TrailingZeros64(word)
	}
	return -1
}

// candidates returns, in the sub-core's scratch, the warps this step may
// have to visit, and whether there are any: the policy's visit set minus
// every warp waiting for a unit that is busy at now. Dropping those is
// exact: by the waiting-mask invariant tryWarp on such a warp returns at
// the port screen, touching nothing and reporting the cycle the unit
// frees — folded into wake here instead, once per busy unit and only when
// a warp of the visit set waits for it (a TwoLevel pending warp was never
// visited, and an earlier wake would add a step in which demoteOne can
// decide differently).
func (sc *subcore) candidates(now uint64, wake *uint64) ([]uint64, bool) {
	visit := sc.policy.visit(sc, now)
	cand := sc.candBuf[:len(visit)]
	var left uint64
	for i, v := range visit {
		cand[i] = v
		left |= v
	}
	for u := unitTensor; u < numUnits && left != 0; u++ {
		at := sc.ports.freeAt[u]
		if at <= now {
			continue // free: nobody waits for it
		}
		waiting := sc.waiting[u][:len(cand)]
		var blocked uint64
		left = 0
		for i, v := range cand {
			blocked |= v & waiting[i]
			v &^= waiting[i]
			cand[i] = v
			left |= v
		}
		if blocked != 0 && at < *wake {
			*wake = at
		}
	}
	return cand, left != 0
}

// removeFinished compacts the warp pool after a CTA retires, reassigning
// slots and rebuilding the slot-indexed masks (heap entries hold
// pointers and survive compaction; Finished warps have none).
func (sc *subcore) removeFinished() {
	kept := sc.warps[:0]
	for _, w := range sc.warps {
		if w.state == warpFinished {
			continue
		}
		w.slot = len(kept)
		kept = append(kept, w)
	}
	sc.warps = kept
	if sc.greedy >= len(sc.warps) {
		sc.greedy = 0
	}
	sc.clearMasks()
	for _, w := range kept {
		if w.state == warpReady {
			sc.setBit(w.slot)
		}
		if w.tlActive {
			sc.setTL(w.slot)
		}
		sc.waiting[w.unit][w.slot>>6] |= 1 << (w.slot & 63)
	}
}

// issuable reports whether the warp can be offered to the scheduler at
// the given cycle, derived from its state and stallUntil.
func (w *simWarp) issuable(now uint64) bool {
	return w.state != warpFinished && w.state != warpAtBarrier && w.stallUntil <= now
}

// hazardClear returns the cycle at which every register the instruction
// scoreboards is written back — zero when none are pending. It walks the
// decode-time packed register set (the ≤64-ID bitmask plus the rare wide
// spill) instead of the id slice.
func (w *simWarp) hazardClear(in *ptx.DInstr) uint64 {
	latest := uint64(0)
	mask, wide := in.ScoreboardSet()
	for mask != 0 {
		id := bits.TrailingZeros64(mask)
		mask &= mask - 1
		if t := w.regReady[id]; t > latest {
			latest = t
		}
	}
	for _, id := range wide {
		if t := w.regReady[id]; t > latest {
			latest = t
		}
	}
	return latest
}

// peek returns the instruction the warp executes next, nil when it has
// none left.
func (w *simWarp) peek() *ptx.DInstr {
	if w.cur.s != nil {
		return w.cur.peek()
	}
	return w.warp.PeekD()
}

// noteHazard records the hazard-clear cycle of the instruction the warp
// executes next (zero when it has none left) and returns the port that
// instruction issues on, for setUnit — one peek serves both.
func (w *simWarp) noteHazard() unit {
	w.hazardAt = 0
	next := w.peek()
	if next == nil {
		return unitNone
	}
	w.hazardAt = w.hazardClear(next)
	return unitOf(next.Class)
}
