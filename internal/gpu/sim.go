package gpu

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/mem"
	"repro/internal/ptx"
)

// LaunchSpec describes one kernel launch.
type LaunchSpec struct {
	Kernel *ptx.Kernel
	Grid   ptx.Dim3
	Block  ptx.Dim3
	Args   []uint64
	Global ptx.Memory
	// MaxCTAs, when nonzero, simulates only the first MaxCTAs thread
	// blocks in row-major grid order. Stats report the sampled and total
	// counts so large problems can be extrapolated (see DESIGN.md's scale
	// substitution note).
	MaxCTAs int
	// Trace enables per-instruction latency tracing for the wmma ops.
	Trace bool
	// MaxCycles caps the simulated cycle count (0 = CycleBudget's
	// backstop). It is the watchdog that reaps a malformed or injected
	// infinite-loop kernel with an ErrCycleBudget error instead of
	// letting it occupy a shared pool worker forever.
	MaxCycles uint64
	// Ctx, when non-nil, is polled periodically by the event loop so a
	// long simulation can be canceled mid-run (SIGINT drain, fault-
	// injected kills). A canceled run returns an error wrapping
	// Ctx.Err(), so errors.Is(err, context.Canceled) identifies it.
	Ctx context.Context
	// TimingOnly asks for the Stats alone. Warps of a timing-separable
	// kernel (ptx.Kernel.TimingSeparable) then generate every address and
	// take every branch but compute and move no operand values, and what
	// Global holds afterwards means nothing; any other kernel computes, as
	// every launch does, each value a store or a branch can see. The bit
	// cannot change a Stats or an error (DESIGN.md
	// "Value-free timing"), which is why no launch key carries it.
	TimingOnly bool
}

// ErrCycleBudget marks a simulation reaped by the LaunchSpec.MaxCycles
// watchdog (or CycleBudget's backstop). Match with errors.Is.
var ErrCycleBudget = errors.New("cycle budget exceeded")

// CycleBudget resolves a LaunchSpec.MaxCycles value to the budget Run
// enforces: a run succeeds only if its Stats.Cycles stays within it.
func CycleBudget(maxCycles uint64) uint64 {
	const defaultMaxCycles = 4_000_000_000
	if maxCycles > 0 {
		return maxCycles
	}
	return defaultMaxCycles
}

// Trace holds sampled per-dynamic-instruction latencies (issue to
// writeback), the quantity the paper's clock-bracketing microbenchmarks
// observe in Figures 15 and 16.
type Trace struct {
	WmmaLoad  []float64
	WmmaMMA   []float64
	WmmaStore []float64
}

// Stats summarizes one simulated kernel launch.
type Stats struct {
	Cycles             uint64
	WarpInstructions   uint64
	ThreadInstructions uint64
	TensorOps          uint64 // wmma.mma instructions issued
	CTAsSimulated      int
	CTAsTotal          int

	L1HitRate       float64
	L2HitRate       float64
	DRAMAccesses    uint64
	SharedConflicts uint64

	Trace *Trace
}

// IPC returns warp instructions per cycle across the whole GPU — the
// metric of the paper's Figure 14b correlation.
func (st *Stats) IPC() float64 {
	if st.Cycles == 0 {
		return 0
	}
	return float64(st.WarpInstructions) / float64(st.Cycles)
}

// Seconds converts the cycle count to wall time at the configured clock.
func (st *Stats) Seconds(cfg Config) float64 {
	if cfg.ClockMHz == 0 {
		return 0
	}
	return float64(st.Cycles) / (cfg.ClockMHz * 1e6)
}

// Simulator is a configured GPU. A Simulator is single-use per Run in the
// sense that caches stay warm between runs; construct a fresh one per
// experiment for cold-start behaviour.
type Simulator struct {
	cfg   Config
	sys   *mem.System
	sms   []*sm
	cycle uint64
	// rec is the record stream of a pipelined launch (replay.go), nil on
	// the serial path.
	rec *replay
}

// New builds a simulator for the configuration.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, sys: mem.NewSystem(cfg.Mem)}
	pol := policyFor(cfg.Scheduler)
	tlCap := cfg.TwoLevelActive
	if tlCap <= 0 {
		tlCap = defaultTwoLevelActive
	}
	for i := 0; i < cfg.NumSMs; i++ {
		m := &sm{id: i, sim: s, port: s.sys.NewSMPort()}
		m.subcores = make([]*subcore, cfg.SubCores)
		for j := range m.subcores {
			m.subcores[j] = &subcore{policy: pol, tlCap: tlCap}
		}
		s.sms = append(s.sms, m)
	}
	return s, nil
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

type sm struct {
	id       int
	sim      *Simulator
	port     *mem.SMPort
	subcores []*subcore
	ctas     []*simCTA
	warps    int // live warps
	shared   int // shared bytes in use
	// nextWake caches the earliest cycle at which this SM can issue again.
	// While the global clock is below it the SM is skipped entirely — the
	// idle-cycle fast-forward that lets Run jump over stall periods without
	// rescanning every scheduler. It resets to the next cycle whenever the
	// SM issues or receives a new CTA.
	nextWake uint64
	// Reusable per-instruction request buffers for accessMemory: the
	// batched vector groups (default) and the per-lane request slices of
	// the legacy access path.
	sharedVecs []mem.AddrVec
	globalVecs []mem.AddrVec
	sharedReqs []mem.Request
	globalReqs []mem.Request
	// releaseWake collects barrier wake-ups triggered while this step's
	// scan is in flight (see step).
	releaseWake uint64
	// ctaDone: a resident CTA has no live warp left, so the end of the
	// next step runs the retirement sweep.
	ctaDone bool
}

// Run simulates the launch to completion and returns its statistics.
func (s *Simulator) Run(spec LaunchSpec) (*Stats, error) {
	if spec.Kernel == nil || spec.Global == nil {
		return nil, fmt.Errorf("gpu: launch needs a kernel and global memory")
	}
	if err := ptx.CheckLaunch(spec.Grid, spec.Block); err != nil {
		return nil, fmt.Errorf("gpu: %w", err)
	}
	// A CTA that cannot fit an empty SM would never dispatch: say why
	// instead of reporting the stall it causes as a deadlock.
	warpsPerCTA := (spec.Block.Count() + 31) / 32
	if warpsPerCTA > s.cfg.MaxWarpsPerSM {
		return nil, fmt.Errorf("gpu: a CTA of %d warps exceeds MaxWarpsPerSM %d", warpsPerCTA, s.cfg.MaxWarpsPerSM)
	}
	if spec.Kernel.SharedBytes > s.cfg.SharedPerSM {
		return nil, fmt.Errorf("gpu: a CTA's %d shared bytes exceed SharedPerSM %d", spec.Kernel.SharedBytes, s.cfg.SharedPerSM)
	}
	// The values of a separable kernel's launch change nothing the timing
	// loop sees, so with a second CPU they are computed beside it.
	if !spec.TimingOnly && spec.Kernel.TimingSeparable() && runtime.GOMAXPROCS(0) > 1 {
		return s.runPipelined(spec)
	}
	return s.run(spec)
}

// run simulates a validated launch on the calling goroutine.
func (s *Simulator) run(spec LaunchSpec) (*Stats, error) {
	total := spec.Grid.Count()
	limit := total
	if spec.MaxCTAs > 0 && spec.MaxCTAs < total {
		limit = spec.MaxCTAs
	}
	d := &dispatcher{spec: spec, sim: s, limit: limit}
	st := &Stats{CTAsTotal: total}
	if spec.Trace {
		st.Trace = &Trace{}
	}

	// Reset per-run state.
	s.cycle = 0
	for _, m := range s.sms {
		m.ctas = m.ctas[:0]
		m.warps = 0
		m.shared = 0
		m.nextWake = 0
		m.ctaDone = false
		for _, sc := range m.subcores {
			sc.reset()
		}
	}
	// Initial dispatch: round-robin one CTA per SM per pass, so the grid
	// spreads across the chip the way the hardware work distributor does.
	for {
		progress := false
		for _, m := range s.sms {
			added, err := d.fillOne(m)
			if err != nil {
				return nil, err
			}
			progress = progress || added
		}
		if !progress {
			break
		}
	}

	budget := CycleBudget(spec.MaxCycles)
	var iters uint64
	for {
		// Cancellation poll, off the per-iteration fast path: checking
		// every 1024 loop passes keeps ctx.Err()'s mutex out of the hot
		// loop while bounding cancellation latency to microseconds.
		iters++
		if spec.Ctx != nil && iters&1023 == 0 {
			if err := spec.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("gpu: canceled at cycle %d: %w", s.cycle, err)
			}
		}
		issuedAny := false
		addedAny := false
		liveAny := false
		var minWake uint64 = math.MaxUint64
		for _, m := range s.sms {
			// An SM whose earliest possible issue is still in the future
			// cannot change state on its own: warp wake-ups, barrier
			// releases and CTA retirement all require an issue in this SM.
			// Skipping it here is what turns stall periods into a single
			// clock jump instead of per-cycle scheduler scans.
			if m.nextWake <= s.cycle {
				iss, wake, err := m.step(st)
				if err != nil {
					return nil, err
				}
				if iss {
					issuedAny = true
					m.nextWake = s.cycle + 1
				} else {
					// wake > cycle whenever nothing issued; clamp
					// defensively so a stale value can never skip work.
					m.nextWake = max(wake, s.cycle+1)
				}
			}
			// Refill a completed CTA slot (one per SM per cycle).
			added, err := d.fillOne(m)
			if err != nil {
				return nil, err
			}
			if added {
				addedAny = true
				m.nextWake = s.cycle + 1
			}
			liveAny = liveAny || len(m.ctas) > 0
			if m.nextWake < minWake {
				minWake = m.nextWake
			}
		}
		if !liveAny && d.done() {
			break
		}
		if issuedAny || addedAny {
			s.cycle++
		} else {
			if minWake == math.MaxUint64 {
				return nil, fmt.Errorf("gpu: deadlock at cycle %d", s.cycle)
			}
			if minWake <= s.cycle {
				s.cycle++
			} else {
				s.cycle = minWake
			}
		}
		if s.cycle > budget {
			return nil, fmt.Errorf("gpu: %w after %d cycles", ErrCycleBudget, budget)
		}
	}

	st.Cycles = s.cycle
	st.CTAsSimulated = d.started
	var l1h, l1m uint64
	for _, m := range s.sms {
		l1h += m.port.L1Hits
		l1m += m.port.L1Misses
		st.SharedConflicts += m.port.SharedConflicts
	}
	if l1h+l1m > 0 {
		st.L1HitRate = float64(l1h) / float64(l1h+l1m)
	}
	st.L2HitRate = s.sys.L2HitRate()
	st.DRAMAccesses = s.sys.DRAMAccesses
	return st, nil
}

// dispatcher hands grid CTAs to SMs as capacity frees up.
type dispatcher struct {
	spec    LaunchSpec
	sim     *Simulator
	next    int
	limit   int
	started int
}

func (d *dispatcher) done() bool { return d.next >= d.limit }

// fillOne assigns at most one CTA to the SM if occupancy limits allow.
func (d *dispatcher) fillOne(m *sm) (bool, error) {
	if d.done() {
		return false, nil
	}
	cfg := &d.sim.cfg
	k := d.spec.Kernel
	warpsPerCTA := (d.spec.Block.Count() + 31) / 32
	if len(m.ctas) >= cfg.MaxCTAsPerSM ||
		m.warps+warpsPerCTA > cfg.MaxWarpsPerSM ||
		m.shared+k.SharedBytes > cfg.SharedPerSM {
		return false, nil
	}
	id := d.next
	d.next++
	d.started++
	env := &ptx.Env{
		Global:     d.spec.Global,
		Shared:     make([]byte, k.SharedBytes),
		GridDim:    d.spec.Grid,
		BlockDim:   d.spec.Block,
		CtaID:      ctaIndex(d.spec.Grid, id),
		TimingOnly: d.spec.TimingOnly,
	}
	sim := d.sim
	env.Clock = func() uint64 { return sim.cycle }
	cta := &simCTA{env: env}
	if sim.rec != nil {
		cta.slot = sim.rec.takeSlot()
	}
	for wi := 0; wi < warpsPerCTA; wi++ {
		w, err := ptx.NewWarp(k, env, wi, d.spec.Args)
		if err != nil {
			return false, err
		}
		sc := m.subcores[(m.warps+wi)%cfg.SubCores]
		sc.nextWake = 0 // new warps can issue immediately
		sw := &simWarp{warp: w, cta: cta, sc: sc, regReady: make([]uint64, k.NumRegs),
			vslot: cta.slot*uint32(warpsPerCTA) + uint32(wi)}
		cta.live++ // a valid block gives every warp a lane
		cta.warps = append(cta.warps, sw)
		sc.enqueue(sw, sw.noteHazard())
	}
	m.warps += warpsPerCTA
	m.shared += k.SharedBytes
	m.ctas = append(m.ctas, cta)
	if sim.rec != nil {
		if err := sim.rec.record(event{at: uint64(id), slot: cta.slot, kind: evDispatch}); err != nil {
			return false, err
		}
	}
	return true, nil
}

// ctaIndex returns the CTA ID of the id-th CTA in row-major grid order.
func ctaIndex(grid ptx.Dim3, id int) ptx.Dim3 {
	return ptx.Dim3{X: id % grid.X, Y: (id / grid.X) % grid.Y, Z: id / (grid.X * grid.Y)}
}

// step advances one SM by one cycle: each sub-core scheduler issues at
// most one warp instruction. Returns whether anything issued and the
// earliest cycle at which a currently stalled warp could issue.
func (m *sm) step(st *Stats) (issued bool, wake uint64, err error) {
	wake = math.MaxUint64
	now := m.sim.cycle
	m.releaseWake = math.MaxUint64
	for _, sc := range m.subcores {
		if sc.nextWake > now {
			// Sub-core granularity of the idle fast-forward: all of this
			// sub-core's warps are stalled, at a barrier, or finished, and
			// none of that can change before nextWake except through a
			// barrier release (handled below via pendingWake) or a CTA
			// dispatch (which resets the wake).
			if sc.nextWake < wake {
				wake = sc.nextWake
			}
			continue
		}
		iss, wk, e := m.stepSubcore(sc, now, st)
		if e != nil {
			return false, 0, e
		}
		if iss {
			sc.nextWake = now + 1
		} else {
			sc.nextWake = max(wk, now+1)
		}
		// A barrier released during this sub-core's own scan re-arms warps
		// the scan had already passed over.
		if sc.pendingWake < sc.nextWake {
			sc.nextWake = sc.pendingWake
		}
		sc.pendingWake = math.MaxUint64
		issued = issued || iss
		if sc.nextWake < wake {
			wake = sc.nextWake
		}
	}
	// A barrier released mid-scan re-arms warps that earlier sub-core
	// scans already skipped; fold their wake-up in so the SM-level
	// fast-forward cannot sleep past them.
	if m.releaseWake < wake {
		wake = m.releaseWake
	}
	if !m.ctaDone {
		return issued, wake, nil
	}
	// Retire finished CTAs.
	m.ctaDone = false
	kept := m.ctas[:0]
	for _, cta := range m.ctas {
		if cta.live > 0 {
			kept = append(kept, cta)
			continue
		}
		m.warps -= len(cta.warps)
		m.shared -= len(cta.env.Shared)
		if r := m.sim.rec; r != nil {
			r.slots = append(r.slots, cta.slot)
		}
		for _, sc := range m.subcores {
			sc.removeFinished()
		}
	}
	m.ctas = kept
	return issued, wake, nil
}

// finishWarp retires a warp and releases its CTA's barrier if it was the
// last straggler the barrier was waiting for.
func (m *sm) finishWarp(w *simWarp, now uint64) {
	w.sc.finish(w)
	w.cta.live--
	m.ctaDone = m.ctaDone || w.cta.live == 0
	m.maybeReleaseBarrier(w.cta, now)
}

// issue executes the instruction functionally and charges its timing.
func (m *sm) issue(sc *subcore, w *simWarp, in *ptx.DInstr, now uint64, st *Stats) error {
	cfg := &m.sim.cfg
	var res ptx.Result
	if err := w.warp.StepInto(&res); err != nil {
		return err
	}
	if r := m.sim.rec; r != nil {
		if err := r.record(event{at: now, slot: w.vslot}); err != nil {
			return err
		}
	}
	st.WarpInstructions++
	st.ThreadInstructions += uint64(w.warp.NLanes())
	w.lastIssue = now

	done := now + uint64(cfg.IssueLatency)
	switch in.Class {
	case ptx.DClassBra:
		done += 1
	case ptx.DClassExit:
		m.finishWarp(w, now)
		return nil
	case ptx.DClassBar:
		w.noteHazard() // nothing issues before the release: still exact then
		sc.toBarrier(w)
		w.cta.atBarrier++
		m.maybeReleaseBarrier(w.cta, now)
		return nil
	case ptx.DClassSFU:
		sc.ports.freeAt[unitSFU] = now + uint64(cfg.SFUII)
		done += uint64(cfg.SFULatency)
	case ptx.DClassLd, ptx.DClassSt:
		done = m.accessMemory(&res, now) + uint64(cfg.IssueLatency)
	case ptx.DClassWmmaLoad, ptx.DClassWmmaStore:
		done = m.accessMemory(&res, now) + uint64(cfg.IssueLatency+cfg.WmmaMemOverhead)
		if st.Trace != nil {
			lat := float64(done - now)
			if in.Class == ptx.DClassWmmaLoad {
				st.Trace.WmmaLoad = append(st.Trace.WmmaLoad, lat)
			} else {
				st.Trace.WmmaStore = append(st.Trace.WmmaStore, lat)
			}
		}
	case ptx.DClassWmmaMMA:
		st.TensorOps++
		timing, err := cfg.tensorTiming(in.In.WConfig)
		if err != nil {
			return err
		}
		sc.ports.freeAt[unitTensor] = now + cfg.tensorOccupancy(in.In.WConfig)
		done = now + uint64(timing.Total())
		if st.Trace != nil {
			st.Trace.WmmaMMA = append(st.Trace.WmmaMMA, float64(done-now))
		}
	default:
		sc.ports.freeAt[unitALU] = now + uint64(cfg.ALUII)
		done += uint64(cfg.ALULatency)
	}

	for _, id := range in.DstRegs() {
		w.regReady[id] = done
	}
	// Proactive scoreboard wake: this warp's regReady only changes when
	// the warp itself issues, so the next instruction's hazard-clear
	// cycle computed right here is exact — tryWarp compares against it
	// instead of walking the scoreboard again. When it is beyond the next
	// cycle, park the warp on the wake heap now — it never re-enters the
	// ready set, so the scheduler stops re-screening a warp whose stall
	// outcome is already known.
	sc.setUnit(w, w.noteHazard())
	if w.hazardAt > now+1 {
		sc.stall(w, w.hazardAt)
		return nil
	}
	// The next instruction of this warp issues no earlier than next cycle.
	// The warp stays Ready: its sub-core is guaranteed to step again at
	// now+1, where the scheduler either issues it again or parks it on
	// the scoreboard.
	if w.stallUntil <= now {
		w.stallUntil = now + 1
	}
	return nil
}

// accessMemory routes an instruction's accesses through the SM port. The
// batched path hands the executor's address vectors to the memory system
// directly (mem.AddrVec aliases each group's address array — no per-lane
// copy); the legacy path re-materializes per-lane request slices.
func (m *sm) accessMemory(res *ptx.Result, now uint64) uint64 {
	if len(res.Batch) > 0 {
		shared, global := m.sharedVecs[:0], m.globalVecs[:0]
		for i := range res.Batch {
			g := &res.Batch[i]
			v := mem.AddrVec{Addr: &g.Addr, Mask: g.Mask, Bits: g.Bits, Store: g.Store}
			if g.Space == ptx.Shared {
				shared = append(shared, v)
			} else {
				global = append(global, v)
			}
		}
		m.sharedVecs, m.globalVecs = shared[:0], global[:0]
		done := now
		if len(shared) > 0 {
			if t := m.port.AccessSharedVecs(now, shared); t > done {
				done = t
			}
		}
		if len(global) > 0 {
			if t := m.port.AccessGlobalVecs(now, global); t > done {
				done = t
			}
		}
		return done
	}
	shared, global := m.sharedReqs[:0], m.globalReqs[:0]
	for _, a := range res.Accesses {
		r := mem.Request{Addr: a.Addr, Bits: a.Bits, Store: a.Store}
		if a.Space == ptx.Shared {
			shared = append(shared, r)
		} else {
			global = append(global, r)
		}
	}
	m.sharedReqs, m.globalReqs = shared[:0], global[:0]
	done := now
	if len(shared) > 0 {
		if t := m.port.AccessShared(now, shared); t > done {
			done = t
		}
	}
	if len(global) > 0 {
		if t := m.port.AccessGlobal(now, global); t > done {
			done = t
		}
	}
	return done
}

// maybeReleaseBarrier releases the CTA's barrier once every live warp has
// arrived (exited warps do not participate). Released warps re-arm as
// Stalled until the barrier latency expires; their sub-cores are woken
// directly when their scan already ran this cycle and via pendingWake
// when it is mid-flight.
func (m *sm) maybeReleaseBarrier(cta *simCTA, now uint64) {
	if cta.live == 0 || cta.atBarrier < cta.live {
		return
	}
	until := now + uint64(m.sim.cfg.BarrierLatency)
	for _, w := range cta.warps {
		if w.state != warpAtBarrier {
			continue
		}
		w.warp.AtBarrier = false
		w.sc.release(w, until)
		if until < m.releaseWake {
			m.releaseWake = until
		}
		if until < w.sc.nextWake {
			w.sc.nextWake = until
		}
		if until < w.sc.pendingWake {
			w.sc.pendingWake = until
		}
	}
	cta.atBarrier = 0
}
