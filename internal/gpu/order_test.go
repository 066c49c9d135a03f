package gpu

import (
	"math"
	"math/rand"
	"testing"
)

// The issue-selection property harness: a pair of sub-cores — one
// event-mode (ready mask, zero prefix, age list, per-unit waiting masks,
// pick-one), one scan-mode (per-cycle rescan, sort and full visit) —
// driven through identical randomized sequences of scheduler steps and
// issue / hazard-park / barrier / release / finish / CTA-retire / fresh
// dispatch transitions. Every warp carries the port its next instruction
// issues on and issues hold their port for a few cycles, so the steps see
// busy units. After every step the harness asserts that the incremental
// issue order equals the legacy scan order, that the mirrored warp state
// has not drifted, and that the waiting masks keep their invariant; every
// scheduler step runs both drivers through the same hazard/port screen
// and compares the warp that gets past it, the side effects on the warps
// visited before it (hazard parks, finishes — through the state
// comparison) and, when none does, the wake cycle. This is the
// equivalence contract of DESIGN.md's "O(1) issue selection" at the
// data-structure level, independent of the full-simulation knob tests.

// twinNext is what tryWarp would read off a warp's instruction stream:
// the port its next instruction issues on, or that there is none left.
type twinNext struct {
	unit unit
	done bool
}

type orderTwin struct {
	ev   *subcore   // event mode: the incremental structures under test
	sc   *subcore   // scan mode: the legacy oracle
	next []twinNext // per slot, the same for both twins
	now  uint64
}

func newOrderTwin(pol SchedulerPolicy, nextUnits ...unit) *orderTwin {
	tw := &orderTwin{
		ev: &subcore{policy: policyFor(pol), tlCap: defaultTwoLevelActive},
		sc: &subcore{policy: policyFor(pol), scan: true, tlCap: defaultTwoLevelActive},
	}
	tw.ev.reset()
	tw.sc.reset()
	for _, u := range nextUnits {
		tw.enqueue(u)
	}
	return tw
}

// units is n copies of u, for newOrderTwin.
func units(n int, u unit) []unit {
	us := make([]unit, n)
	for i := range us {
		us[i] = u
	}
	return us
}

// enqueue dispatches one fresh Ready warp, whose first instruction issues
// on u, to both twins.
func (tw *orderTwin) enqueue(u unit) {
	tw.ev.enqueue(&simWarp{state: warpReady}, u)
	tw.sc.enqueue(&simWarp{state: warpReady}, u)
	tw.next = append(tw.next, twinNext{unit: u})
}

// clampGreedy is the head of stepSubcore.
func (tw *orderTwin) clampGreedy() {
	for _, sub := range []*subcore{tw.ev, tw.sc} {
		if sub.greedy >= len(sub.warps) {
			sub.greedy = 0
		}
	}
}

// orders computes this cycle's full issue order on both twins: the event
// twin drains its wake heap and then drains next over its visit set, the
// scan twin rescans and sorts. GTO's pick leaves the greedy slot to the
// preferred attempt, so it is taken out of the event side too.
func (tw *orderTwin) orders() (ev, legacy []int) {
	if len(tw.ev.warps) == 0 {
		return nil, nil
	}
	tw.clampGreedy()
	tw.ev.drainWake(tw.now)
	cand := append([]uint64(nil), tw.ev.policy.visit(tw.ev, tw.now)...)
	if p := tw.ev.policy.preferred(tw.ev); p >= 0 {
		cand[p>>6] &^= 1 << (p & 63)
	}
	for idx := tw.ev.policy.next(tw.ev, cand); idx >= 0; idx = tw.ev.policy.next(tw.ev, cand) {
		ev = append(ev, idx)
		cand[idx>>6] &^= 1 << (idx & 63)
	}
	wake := uint64(math.MaxUint64)
	ready := tw.sc.scanReady(tw.now, &wake)
	legacy = tw.sc.policy.pick(tw.sc, tw.now, ready, nil)
	return ev, legacy
}

// try is tryWarp on the twins' instruction-less warps: the same screen in
// the same order with the same side effects, up to the point of issue.
// On the event twin it also holds the selection to its claim: a warp the
// waiting masks say is port-blocked is never visited.
func (tw *orderTwin) try(t *testing.T, sub *subcore, slot int) (passed bool, wake uint64) {
	t.Helper()
	w, nx := sub.warps[slot], tw.next[slot]
	switch {
	case w.state == warpFinished || w.state == warpAtBarrier:
		return false, math.MaxUint64
	case w.stallUntil > tw.now:
		return false, w.stallUntil
	case nx.done:
		sub.finish(w)
		return false, tw.now + 1
	case w.hazardAt > tw.now:
		sub.stall(w, w.hazardAt)
		return false, w.hazardAt
	case sub.ports.freeAt[nx.unit] > tw.now:
		if !sub.scan && w.unit != unitNone {
			t.Fatalf("cycle %d: event selection visited slot %d, which waits for busy unit %d", tw.now, slot, w.unit)
		}
		return false, sub.ports.freeAt[nx.unit]
	}
	return true, math.MaxUint64
}

// stepEvent is stepSubcore's event half over try: the slot that gets past
// the screen (-1 for none) and the wake cycle.
func (tw *orderTwin) stepEvent(t *testing.T) (issuer int, wake uint64) {
	t.Helper()
	sc, now := tw.ev, tw.now
	wake = math.MaxUint64
	sc.drainWake(now)
	if p := sc.policy.preferred(sc); p >= 0 && sc.readyBit(p) && sc.ports.freeAt[sc.warps[p].unit] <= now {
		ok, wk := tw.try(t, sc, p)
		if ok {
			return p, wk
		}
		wake = wk
	}
	wake = min(wake, sc.heapTop())
	cand, any := sc.candidates(now, &wake)
	for any {
		idx := sc.policy.next(sc, cand)
		if idx < 0 {
			break
		}
		ok, wk := tw.try(t, sc, idx)
		wake = min(wake, wk)
		if ok {
			return idx, wake
		}
		cand[idx>>6] &^= 1 << (idx & 63)
	}
	return -1, wake
}

// stepScan is stepScan over try: the oracle's full-visit loop.
func (tw *orderTwin) stepScan(t *testing.T) (issuer int, wake uint64) {
	t.Helper()
	sc, now := tw.sc, tw.now
	wake = math.MaxUint64
	tried := -1
	if p := sc.policy.preferred(sc); p >= 0 {
		ok, wk := tw.try(t, sc, p)
		wake = min(wake, wk)
		if ok {
			return p, wake
		}
		tried = p
	}
	ready := sc.scanReady(now, &wake)
	for _, idx := range sc.policy.pick(sc, now, ready, nil) {
		if idx == tried {
			continue
		}
		ok, wk := tw.try(t, sc, idx)
		wake = min(wake, wk)
		if ok {
			return idx, wake
		}
	}
	return -1, wake
}

// step runs one scheduler step on both twins and asserts they agree on
// the warp that gets past the screen and, when none does, on the wake
// cycle (with an issuer the driver re-steps next cycle whatever it is).
// The warps each side parked or finished on the way are compared by the
// next check.
func (tw *orderTwin) step(t *testing.T) (issuer int, wake uint64) {
	t.Helper()
	if len(tw.ev.warps) == 0 {
		return -1, math.MaxUint64
	}
	tw.clampGreedy()
	issuer, wake = tw.stepEvent(t)
	scIssuer, scWake := tw.stepScan(t)
	if issuer != scIssuer {
		t.Fatalf("cycle %d: event selection issues slot %d, the scan twin slot %d", tw.now, issuer, scIssuer)
	}
	if issuer < 0 && wake != scWake {
		t.Fatalf("cycle %d: nothing issues; event wake %d, scan wake %d", tw.now, wake, scWake)
	}
	return issuer, wake
}

// issueAct is one issue as the harness replays it.
type issueAct struct {
	bar, exit bool
	hold      uint64   // cycles the issued instruction keeps its port
	hazardAt  uint64   // hazard-clear cycle of the instruction after it
	next      twinNext // the instruction after it
}

// issue replays the issue/tryWarp flow for the warp in slot on both
// twins: lastIssue, the port reservation, the stored hazard verdict and
// next unit, the proactive hazard park (or the next-cycle stallUntil), the
// barrier park or the exit, the greedy update and the incremental-order
// update.
func (tw *orderTwin) issue(slot int, a issueAct) {
	cur := tw.next[slot].unit
	for _, sub := range []*subcore{tw.ev, tw.sc} {
		w := sub.warps[slot]
		w.lastIssue = tw.now
		if cur != unitNone {
			sub.ports.freeAt[cur] = tw.now + a.hold
		}
		switch {
		case a.exit:
			sub.finish(w)
		case a.bar:
			w.hazardAt = a.hazardAt
			sub.toBarrier(w)
		default:
			w.hazardAt = a.hazardAt
			if !sub.scan {
				sub.setUnit(w, a.next.unit)
			}
			if w.hazardAt > tw.now+1 {
				sub.stall(w, w.hazardAt)
			} else if w.stallUntil <= tw.now {
				w.stallUntil = tw.now + 1
			}
		}
		sub.greedy = slot
		if !sub.scan {
			sub.noteIssued(w, tw.now)
		}
	}
	tw.next[slot] = a.next
}

// release re-arms a warp waiting at the barrier on both twins.
func (tw *orderTwin) release(slot int, until uint64) {
	tw.ev.release(tw.ev.warps[slot], until)
	tw.sc.release(tw.sc.warps[slot], until)
}

func (tw *orderTwin) removeFinished() {
	kept := tw.next[:0]
	for i, w := range tw.ev.warps {
		if w.state != warpFinished {
			kept = append(kept, tw.next[i])
		}
	}
	tw.next = kept
	tw.ev.removeFinished()
	tw.sc.removeFinished()
}

// check asserts the twins agree on issue order, on every warp's
// scheduling state and on the ports, and that the event twin's waiting
// masks hold their invariant.
func (tw *orderTwin) check(t *testing.T, step int) {
	t.Helper()
	ev, legacy := tw.orders()
	if !intsEqual(ev, legacy) {
		t.Fatalf("step %d cycle %d: incremental order %v != scan order %v", step, tw.now, ev, legacy)
	}
	if tw.ev.greedy != tw.sc.greedy {
		t.Fatalf("step %d: greedy drifted: event %d scan %d", step, tw.ev.greedy, tw.sc.greedy)
	}
	if len(tw.ev.warps) != len(tw.sc.warps) {
		t.Fatalf("step %d: pool sizes drifted: %d vs %d", step, len(tw.ev.warps), len(tw.sc.warps))
	}
	if tw.ev.ports != tw.sc.ports {
		t.Fatalf("step %d: ports drifted: event %v scan %v", step, tw.ev.ports, tw.sc.ports)
	}
	for i := range tw.ev.warps {
		we, ws := tw.ev.warps[i], tw.sc.warps[i]
		// Ready and Stalled normalize together: scan mode derives
		// readiness from stallUntil and never flips the state back, while
		// the event twin's drainWake does — issuable() is the shared truth.
		if normState(we.state) != normState(ws.state) || we.stallUntil != ws.stallUntil ||
			we.lastIssue != ws.lastIssue || we.hazardAt != ws.hazardAt || we.tlActive != ws.tlActive {
			t.Fatalf("step %d slot %d: warp state drifted: event %+v scan %+v", step, i, *we, *ws)
		}
		// The waiting masks: a slot's bit is in exactly its unit's mask,
		// and a Ready warp with a bit would leave tryWarp at the port
		// screen — the recorded unit is the one its next instruction
		// issues on, and no hazard is pending.
		for u := unitTensor; u < numUnits; u++ {
			if got := tw.ev.waiting[u][i>>6]&(1<<(i&63)) != 0; got != (we.unit == u) {
				t.Fatalf("step %d slot %d: waiting[%d] bit is %v, the warp's unit is %d", step, i, u, got, we.unit)
			}
		}
		if nx := tw.next[i]; we.state == warpReady && we.unit != unitNone && (nx.done || nx.unit != we.unit || we.hazardAt > tw.now) {
			t.Fatalf("step %d slot %d: skippable on unit %d, but its next instruction is %+v with hazardAt %d at cycle %d",
				step, i, we.unit, nx, we.hazardAt, tw.now)
		}
		if ws.unit != unitNone {
			t.Fatalf("step %d slot %d: scan mode recorded unit %d", step, i, ws.unit)
		}
	}
}

func normState(s warpState) warpState {
	if s == warpStalled {
		return warpReady
	}
	return s
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomNext draws a warp's next instruction: half ALU (the contended
// port), the rest spread over no port, the SFU and the tensor cores, and
// now and then the end of the stream.
func randomNext(rng *rand.Rand) twinNext {
	switch r := rng.Intn(100); {
	case r < 6:
		return twinNext{done: true}
	case r < 50:
		return twinNext{unit: unitALU}
	case r < 70:
		return twinNext{unit: unitNone}
	case r < 85:
		return twinNext{unit: unitSFU}
	default:
		return twinNext{unit: unitTensor}
	}
}

// runOrderSequence drives both twins through a seeded random transition
// sequence, checking equivalence after every step. maxWarps caps the
// pool so fresh dispatches keep arriving without unbounded growth.
func runOrderSequence(t *testing.T, pol SchedulerPolicy, nWarps int, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tw := newOrderTwin(pol)
	for i := 0; i < nWarps; i++ {
		tw.enqueue(randomNext(rng).unit)
	}
	maxWarps := nWarps + 8
	for step := 0; step < steps; step++ {
		tw.check(t, step)
		switch op := rng.Intn(100); {
		case op < 72:
			// A scheduler step; whichever warp it selects issues. A third
			// of the issues leave the next instruction with a pending
			// hazard; after a bar it may outlast the barrier latency.
			slot, _ := tw.step(t)
			if slot < 0 {
				break
			}
			a := issueAct{hold: 1 + uint64(rng.Intn(4)), hazardAt: tw.now + 1, next: randomNext(rng)}
			if rng.Intn(3) == 0 {
				a.hazardAt = tw.now + 2 + uint64(rng.Intn(8))
			}
			switch k := rng.Intn(100); {
			case k < 12:
				a.bar = true
			case k < 20:
				a.exit = true
			}
			tw.issue(slot, a)
		case op < 84:
			// Release one barrier-parked warp, as a CTA-wide release would.
			for off, n := rng.Intn(len(tw.ev.warps)+1), 0; n < len(tw.ev.warps); n++ {
				i := (off + n) % len(tw.ev.warps)
				if tw.ev.warps[i].state == warpAtBarrier {
					tw.release(i, tw.now+1+uint64(rng.Intn(5)))
					break
				}
			}
		case op < 92:
			tw.removeFinished()
		default:
			if len(tw.ev.warps) < maxWarps {
				tw.enqueue(randomNext(rng).unit)
			}
		}
		// At most one issue per sub-core per cycle: always advance.
		tw.now += 1 + uint64(rng.Intn(3))
	}
	tw.check(t, steps)
}

// TestIssueOrderEquivalence is the table-driven sweep: every policy,
// pool sizes on both sides of the 64-slot mask-word boundary, several
// seeds.
func TestIssueOrderEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		pol    SchedulerPolicy
		nWarps int
		seed   int64
		steps  int
	}{
		{"gto/small", GTO, 4, 1, 400},
		{"gto/subcore16", GTO, 16, 2, 600},
		{"gto/multiword", GTO, 70, 3, 800},
		{"lrr/small", LRR, 4, 4, 400},
		{"lrr/subcore16", LRR, 16, 5, 600},
		{"lrr/multiword", LRR, 70, 6, 800},
		{"twolevel/small", TwoLevel, 4, 7, 400},
		{"twolevel/subcore16", TwoLevel, 16, 8, 600},
		{"twolevel/multiword", TwoLevel, 70, 9, 800},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			runOrderSequence(t, c.pol, c.nWarps, c.seed, c.steps)
		})
	}
}

// TestIssueOrderCycleZeroTie pins the subtlety the zero prefix encodes:
// a warp that issues at cycle 0 keeps lastIssue == 0, so the legacy GTO
// comparator cannot distinguish it from never-issued warps — it must
// stay in the rotation-ordered zero group, not join the age list.
func TestIssueOrderCycleZeroTie(t *testing.T) {
	tw := newOrderTwin(GTO, units(4, unitNone)...)
	tw.issue(2, issueAct{hazardAt: 1}) // issues at cycle 0; lastIssue stays 0
	tw.now = 1
	ev, legacy := tw.orders()
	want := []int{3, 0, 1} // rotation from greedy+1, greedy (2) excluded
	if !intsEqual(ev, want) || !intsEqual(legacy, want) {
		t.Fatalf("after cycle-0 issue: event %v scan %v, want %v", ev, legacy, want)
	}
	if tw.ev.warps[2].inAge {
		t.Fatal("cycle-0 issuer must stay in the zero prefix, not the age list")
	}
}

// TestIssueOrderReissueAndCompaction pins the age-list splices: re-issue
// moves a warp to the tail, finish unlinks it, and CTA-retire compaction
// renumbers slots without breaking the chain.
func TestIssueOrderReissueAndCompaction(t *testing.T) {
	tw := newOrderTwin(GTO, units(5, unitNone)...)
	tw.now = 1
	tw.issue(1, issueAct{hazardAt: 2})
	tw.now = 2
	tw.issue(3, issueAct{hazardAt: 3})
	tw.now = 4
	tw.issue(1, issueAct{hazardAt: 5}) // re-issue: 1 moves behind 3 in age order
	tw.now = 6
	ev, legacy := tw.orders()
	// greedy is 1; zero group {0,2,4} rotated from slot 2, then ages 3, (1 excluded).
	want := []int{2, 4, 0, 3}
	if !intsEqual(ev, want) || !intsEqual(legacy, want) {
		t.Fatalf("after re-issue: event %v scan %v, want %v", ev, legacy, want)
	}
	tw.issue(3, issueAct{exit: true})
	tw.removeFinished() // slot 4 renumbers to 3
	tw.now = 7
	tw.check(t, 0)
	if head := tw.ev.ageHead; head == nil || head.slot != 1 || head.ageNext != nil {
		t.Fatalf("age list must hold exactly the re-issued warp after compaction")
	}
}

// A warp released from a barrier may still have a hazard pending on the
// instruction after the bar (noteHazard ran at the bar; the release
// re-arms with the barrier latency only), so its first visit must happen
// and park it even when the port that instruction needs is busy — it may
// not be skipped as port-blocked. Under TwoLevel the park is what lets
// demoteOne evict it one step later, exactly when the scan twin does.
func TestBarrierReleasedWarpWithHazardIsParkedUnderBusyPort(t *testing.T) {
	for _, pol := range Schedulers() {
		tw := newOrderTwin(pol, units(6, unitALU)...)
		tw.now = 1
		tw.check(t, 0) // TwoLevel: slots 0..3 become the active subset
		tw.issue(0, issueAct{bar: true, hold: 1, hazardAt: 40, next: twinNext{unit: unitALU}})
		tw.now = 2
		tw.release(0, 3)
		// Slots 1..3 issue and park on long hazards; the last one keeps
		// the ALU until cycle 9.
		for slot := 1; slot <= 3; slot++ {
			tw.now++
			tw.issue(slot, issueAct{hold: 4, hazardAt: 50, next: twinNext{unit: unitALU}})
		}
		tw.now = 6
		tw.check(t, 1)
		if w := tw.ev.warps[0]; w.state != warpReady || w.unit != unitNone || tw.ev.ports.freeAt[unitALU] != 9 {
			t.Fatalf("%v: set-up: released warp %+v, ALU free at %d", pol, *w, tw.ev.ports.freeAt[unitALU])
		}
		issuer, wake := tw.step(t)
		for _, sub := range []*subcore{tw.ev, tw.sc} {
			if w := sub.warps[0]; w.state != warpStalled || w.stallUntil != 40 {
				t.Fatalf("%v scan=%v: the released warp was not parked on its hazard by its first visit: %+v", pol, sub.scan, *w)
			}
		}
		if pol == TwoLevel {
			// Slots 4 and 5 are pending: nothing else was visited, and
			// the park is the wake.
			if issuer != -1 || wake != 40 {
				t.Fatalf("twolevel: step issued slot %d with wake %d, want none and 40", issuer, wake)
			}
			tw.now = 7
			tw.check(t, 2)
			// Every member of the subset is parked now, so this step swaps
			// the pending warps in, lowest non-issuable member out first;
			// they find the ALU busy.
			if issuer, wake := tw.step(t); issuer != -1 || wake != 9 {
				t.Fatalf("twolevel: the step after the park issued slot %d with wake %d, want none and 9", issuer, wake)
			}
			for _, sub := range []*subcore{tw.ev, tw.sc} {
				if sub.warps[0].tlActive || !sub.warps[4].tlActive {
					t.Fatalf("twolevel scan=%v: the parked warp was not the one demoted for slot 4", sub.scan)
				}
			}
		}
		tw.check(t, 3)
	}
}

// When every candidate is port-blocked nothing is visited at all, and the
// wake must still be what the scan twin's full visit collects: the
// earliest free cycle among the busy units somebody waits for, or an
// earlier parked warp.
func TestAllCandidatesPortBlockedWakeMatchesScan(t *testing.T) {
	for _, pol := range Schedulers() {
		for _, parkedUntil := range []uint64{10, 4} {
			tw := newOrderTwin(pol, unitALU, unitALU, unitSFU, unitALU)
			tw.now = 1
			tw.check(t, 0)
			tw.issue(3, issueAct{hold: 5, hazardAt: parkedUntil, next: twinNext{unit: unitALU}}) // ALU until 6
			tw.now = 2
			tw.issue(2, issueAct{hold: 3, hazardAt: 3, next: twinNext{unit: unitSFU}}) // SFU until 5
			tw.now = 3
			tw.check(t, 1)
			issuer, wake := tw.step(t)
			if want := min(5, parkedUntil); issuer != -1 || wake != want {
				t.Errorf("%v: step issued slot %d with wake %d, want none and %d", pol, issuer, wake, want)
			}
			tw.check(t, 2)
		}
	}
}

// The unit-free wake is taken over the visit set, not the ready set: a
// TwoLevel pending warp waiting for a busy unit was never visited by the
// full-order loop, so it contributes no wake — an earlier wake would add
// a step in which demoteOne could decide differently.
func TestTwoLevelPendingWarpOnBusyUnitContributesNoWake(t *testing.T) {
	tw := newOrderTwin(TwoLevel, unitALU, unitSFU, unitSFU, unitSFU, unitALU, unitALU)
	tw.now = 1
	tw.check(t, 0)                                                             // slots 0..3 active, 4 and 5 pending
	tw.issue(0, issueAct{hold: 4, hazardAt: 2, next: twinNext{unit: unitSFU}}) // ALU until 5
	tw.now = 2
	tw.issue(1, issueAct{hold: 6, hazardAt: 3, next: twinNext{unit: unitSFU}}) // SFU until 8
	tw.now = 3
	tw.check(t, 1)
	for slot, want := range []bool{true, true, true, true, false, false} {
		if tw.ev.warps[slot].tlActive != want {
			t.Fatalf("set-up: slot %d active = %v", slot, !want)
		}
	}
	if issuer, wake := tw.step(t); issuer != -1 || wake != 8 {
		t.Errorf("step issued slot %d with wake %d, want none and 8 (the pending warps' ALU frees at 5)", issuer, wake)
	}
	tw.check(t, 2)
}

// CTA-retire compaction renumbers slots; a waiting-mask bit must follow
// its warp across the 64-slot word boundary.
func TestWaitingMaskSurvivesCompactionAcrossWordBoundary(t *testing.T) {
	us := units(70, unitNone)
	us[66] = unitSFU
	tw := newOrderTwin(LRR, us...)
	tw.now = 1
	moved := tw.ev.warps[66]
	for slot := 0; slot < 6; slot++ {
		tw.issue(slot, issueAct{exit: true})
		tw.now++
	}
	tw.removeFinished()
	if moved.slot != 60 {
		t.Fatalf("warp 66 renumbered to %d, want 60", moved.slot)
	}
	if w := tw.ev.waiting[unitSFU]; w[0] != 1<<60 || w[1] != 0 {
		t.Fatalf("waiting[SFU] = %#x after compaction, want bit 60 only", w)
	}
	tw.check(t, 0)
	// And it still does its job: with the SFU busy the warp is no
	// candidate, with the SFU free it is.
	for _, busy := range []bool{true, false} {
		tw.ev.ports.freeAt[unitSFU] = 0
		if busy {
			tw.ev.ports.freeAt[unitSFU] = tw.now + 3
		}
		wake := uint64(math.MaxUint64)
		cand, _ := tw.ev.candidates(tw.now, &wake)
		if got := cand[0]&(1<<60) != 0; got == busy {
			t.Errorf("SFU busy=%v: slot 60 candidate=%v", busy, got)
		}
		if busy && wake != tw.now+3 {
			t.Errorf("SFU busy: wake %d, want %d", wake, tw.now+3)
		}
	}
}

// FuzzIssueOrder fuzzes the transition sequence. The seed corpus uses
// the fig17 quick occupancy shapes: 8 warps (one CTA per sub-core), 16
// (the max-occupancy SIMT GEMM's per-sub-core load) and 64 (a full SM's
// warp budget landing on one sub-core in the 1-SM ablation).
func FuzzIssueOrder(f *testing.F) {
	f.Add(int64(17), uint8(0), uint8(8), uint16(300))
	f.Add(int64(17), uint8(1), uint8(16), uint16(300))
	f.Add(int64(17), uint8(2), uint8(64), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, pol, nWarps uint8, steps uint16) {
		policies := []SchedulerPolicy{GTO, LRR, TwoLevel}
		n := int(nWarps)%96 + 1
		s := int(steps) % 1000
		runOrderSequence(t, policies[int(pol)%len(policies)], n, seed, s)
	})
}
