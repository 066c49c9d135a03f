package gpu

import (
	"math"
	"math/bits"
)

// The warp-scheduling core: a per-sub-core driver that derives the issue
// candidates from the event-driven ready set and attempts them in the
// pluggable schedPolicy's order until one issues. It drops the warps a
// busy port blocks by mask arithmetic and asks the policy for one warp at
// a time. order_test.go holds the per-cycle full scan the driver replaced
// as a test-side oracle; the randomized harness there and the golden
// Stats cells hold the driver to it.

// schedPolicy orders a sub-core's ready warps for issue. Policies are
// stateless singletons; their per-sub-core state (rotation anchor, active
// subset) lives on the subcore and its warps.
type schedPolicy interface {
	// preferred returns the slot the driver should attempt before paying
	// for the full candidate order (-1 when the policy has no sticky
	// preference). GTO's greedy warp issues back to back in the common
	// case, so this keeps the scheduler O(1) on those cycles.
	preferred(sc *subcore) int
	// visit returns the set of slots the policy's order may hold this
	// cycle, as a mask the caller must not write (TwoLevel updates its
	// active subset first).
	visit(sc *subcore, now uint64) []uint64
	// next returns the slot that comes first in the policy's order among
	// the slots set in cand, -1 when there is none — no per-cycle sort and
	// no materialised order: LRR and TwoLevel take the first set bit in
	// rotation order, GTO the least lastIssue in one pass over cand.
	next(sc *subcore, cand []uint64) int
	// retired notes that w left the sub-core's pool.
	retired(sc *subcore, w *simWarp)
}

var (
	gtoSched      = gtoPolicy{}
	lrrSched      = lrrPolicy{}
	twoLevelSched = twoLevelPolicy{}
)

func policyFor(p SchedulerPolicy) schedPolicy {
	switch p {
	case LRR:
		return lrrSched
	case TwoLevel:
		return twoLevelSched
	default:
		return gtoSched
	}
}

// gtoPolicy is greedy-then-oldest: the last issuer first (via preferred),
// then the remaining ready warps by ascending lastIssue, ties broken by
// rotation order after the greedy slot.
type gtoPolicy struct{}

func (gtoPolicy) preferred(sc *subcore) int { return sc.greedy }

func (gtoPolicy) visit(sc *subcore, _ uint64) []uint64 { return sc.readyMask }

// next returns the candidate with the least lastIssue, in one pass over
// the set bits of cand. Ties break by rotation distance from greedy+1,
// and they can only happen at zero: a sub-core issues at most one warp a
// cycle, and a warp that issues at cycle 0 keeps lastIssue at 0, so it
// ties with the warps that never issued. The slots ascend, so a later
// zero-key slot is nearer in rotation only when it lies above greedy and
// the earlier one does not. The greedy slot needs no exclusion: the
// preferred attempt either took it out of the ready set or left it to a
// busy port, which took it out of cand (a second visit after a barrier
// release finds the same busy port and changes nothing).
func (gtoPolicy) next(sc *subcore, cand []uint64) int {
	best, key, g := -1, uint64(math.MaxUint64), sc.greedy
	for wi, word := range cand {
		for ; word != 0; word &= word - 1 {
			slot := wi<<6 + bits.TrailingZeros64(word)
			if k := sc.warps[slot].lastIssue; k < key || k == key && best <= g && slot > g {
				best, key = slot, k
			}
		}
	}
	return best
}

func (gtoPolicy) retired(*subcore, *simWarp) {}

// lrrPolicy is loose round-robin: ready warps in rotation order starting
// one past the last issuer.
type lrrPolicy struct{}

func (lrrPolicy) preferred(*subcore) int { return -1 }

func (lrrPolicy) visit(sc *subcore, _ uint64) []uint64 { return sc.readyMask }

func (lrrPolicy) next(sc *subcore, cand []uint64) int { return firstRotated(cand, sc.greedy) }

func (lrrPolicy) retired(*subcore, *simWarp) {}

// twoLevelPolicy issues round-robin within a small active subset of the
// sub-core's warps; the rest wait in a pending pool. When no active warp
// is ready (all stalled on memory, the scoreboard, or a barrier), ready
// pending warps are promoted, demoting non-issuable active warps to make
// room — the classic two-level scheme that concentrates issue bandwidth
// on a few warps to keep their locality while the pool hides long
// latencies.
type twoLevelPolicy struct{}

func (twoLevelPolicy) preferred(*subcore) int { return -1 }

// visit first updates the active subset — promotion decisions come from
// readyMask ∧/∧^ tlMask intersections — and then returns the ready part
// of it.
func (twoLevelPolicy) visit(sc *subcore, now uint64) []uint64 {
	if !maskIntersects(sc.readyMask, sc.tlMask) {
		// The whole active subset is blocked: swap in ready pending warps
		// one for one, ascending. Every current
		// member is non-issuable here, so demotion always finds a victim
		// while the subset is full.
	promote:
		for wi, word := range sc.readyMask {
			for ; word != 0; word &= word - 1 {
				if sc.tlActive >= sc.tlCap && !sc.demoteOne(now) {
					break promote
				}
				idx := wi*64 + bits.TrailingZeros64(word)
				sc.warps[idx].tlActive = true
				sc.setTL(idx)
				sc.tlActive++
			}
		}
	} else if sc.tlActive < sc.tlCap {
		// Spare capacity: fill it from the ready pending warps, ascending.
	fill:
		for wi := range sc.readyMask {
			for word := sc.readyMask[wi] &^ sc.tlMask[wi]; word != 0; word &= word - 1 {
				if sc.tlActive >= sc.tlCap {
					break fill
				}
				idx := wi*64 + bits.TrailingZeros64(word)
				sc.warps[idx].tlActive = true
				sc.setTL(idx)
				sc.tlActive++
			}
		}
	}
	return sc.andMask(sc.readyMask, sc.tlMask)
}

func (twoLevelPolicy) next(sc *subcore, cand []uint64) int { return firstRotated(cand, sc.greedy) }

// demoteOne evicts the lowest-slot non-issuable member of the active
// subset; false when every member is issuable.
func (sc *subcore) demoteOne(now uint64) bool {
	for _, w := range sc.warps {
		if w.tlActive && !w.issuable(now) {
			w.tlActive = false
			sc.clearTL(w.slot)
			sc.tlActive--
			return true
		}
	}
	return false
}

func (twoLevelPolicy) retired(sc *subcore, w *simWarp) {
	if w.tlActive {
		w.tlActive = false
		sc.clearTL(w.slot)
		sc.tlActive--
	}
}

// stepSubcore lets the sub-core's scheduler issue at most one warp
// instruction. Returns whether one issued and the earliest cycle at which
// a currently blocked warp could become issuable.
func (m *sm) stepSubcore(sc *subcore, now uint64, st *Stats) (issued bool, wake uint64, err error) {
	wake = math.MaxUint64
	if len(sc.warps) == 0 {
		return false, wake, nil
	}
	if sc.greedy >= len(sc.warps) {
		sc.greedy = 0
	}
	sc.drainWake(now)
	// Sticky fast path: attempt the policy's preferred warp before paying
	// for the candidate set. A preferred warp that is not Ready is covered
	// by the heap top below, one waiting for a busy port by candidates.
	if p := sc.policy.preferred(sc); p >= 0 && sc.readyBit(p) && sc.ports.freeAt[sc.warps[p].unit] <= now {
		if issued, wake, err = m.tryWarp(sc, p, now, st); err != nil || issued {
			return issued, wake, err
		}
	}
	wake = min(wake, sc.heapTop())
	// Pick one: no candidate waits for a busy port, so the first in policy
	// order issues — unless its stream ran out (it finishes) or this is
	// its first visit after a barrier release (it may still park on its
	// scoreboard or find its port busy: setUnit); then the next is asked for.
	cand, any := sc.candidates(now, &wake)
	for any {
		idx := sc.policy.next(sc, cand)
		if idx < 0 {
			break
		}
		iss, wk, e := m.tryWarp(sc, idx, now, st)
		wake = min(wake, wk)
		if e != nil || iss {
			return iss, wake, e
		}
		cand[idx>>6] &^= 1 << (idx & 63)
	}
	return false, wake, nil
}

// tryWarp attempts to issue the warp in the given slot. outcome is one
// of: issued (an instruction went out), or blocked with wake holding the
// earliest cycle the warp could become issuable (MaxUint64 when it has
// none). Scoreboard hazards move the warp to Stalled as a side effect.
func (m *sm) tryWarp(sc *subcore, idx int, now uint64, st *Stats) (issued bool, wake uint64, err error) {
	wake = math.MaxUint64
	w := sc.warps[idx]
	if w.state == warpFinished || w.state == warpAtBarrier {
		return false, wake, nil
	}
	if w.stallUntil > now {
		return false, w.stallUntil, nil
	}
	in := w.peek()
	if in == nil {
		m.finishWarp(w, now)
		// A finish without an issue still changes scheduler state (active
		// slots free up, CTAs may retire): re-step next cycle rather than
		// letting the fast-forward sleep. Without this, TwoLevel could
		// park a sub-core forever when its whole active subset exhausts
		// its instruction stream in one pass while ready pending warps
		// (filtered out of this pass's order) still hold work.
		return false, now + 1, nil
	}
	// The scoreboard verdict was computed when the warp last issued.
	if at := w.hazardAt; at > now {
		sc.stall(w, at)
		return false, at, nil
	}
	if at := sc.ports.freeAt[unitOf(in.Class)]; at > now {
		return false, at, nil
	}
	if err := m.issue(sc, w, in, now, st); err != nil {
		return false, wake, err
	}
	sc.greedy = idx // every policy anchors on the last issuer
	return true, wake, nil
}
