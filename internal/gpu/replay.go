package gpu

import (
	"context"
	"errors"

	"repro/internal/ptx"
)

// Values replayed (DESIGN.md "Two goroutines"). A full-value launch of a
// kernel that steps ahead needs its operand values only for what it
// leaves in Global: its Stats and faults are those of a TimingOnly launch.
// runPipelined therefore runs the TimingOnly launch with its warps stepped
// ahead (runAhead), and its timing loop records every CTA dispatch and
// every warp issue in fixed-size events; a third goroutine replays the
// record on full-value warps in the same order, so every load and store
// lands as the serial run lands it, and %clock reads the recorded cycle.
// One goroutine still owns every SM, the L2 and DRAM.

// event is one record of the timing loop's issue stream.
type event struct {
	// at is the issue cycle, the value %clock reads there; for a dispatch,
	// the CTA's row-major index in the grid.
	at uint64
	// slot is the issuing warp's slot, or the dispatched CTA's: a CTA
	// takes a slot a retired CTA freed, its warps slot·warpsPerCTA + index.
	slot uint32
	kind eventKind
}

type eventKind uint8

const (
	evIssue eventKind = iota
	evDispatch
)

// The record moves in batches of batchEvents; at most batches exist, so
// the value side lags the timing loop by at most that many events.
const (
	batchEvents = 2048
	batches     = 4
)

// errSideStopped ends the timing loop once one of a launch's sidecars has
// stopped on an error or a panic, which Run reports instead.
var errSideStopped = errors.New("gpu: sidecar goroutine stopped")

// sidecar is the lifecycle of a goroutine a launch runs beside the timing
// loop, the value replay's or the warps stepped ahead (ahead.go): Run
// starts it, waits for done before returning, and re-raises its panic or
// returns its error. A full-value launch runs both.
type sidecar struct {
	quit   chan struct{} // closed: the goroutine stops at its next check
	done   chan struct{} // closed when the goroutine returns
	halted bool
	// err and panicked are read after done.
	err      error
	panicked any
}

// start runs fn on the sidecar's goroutine.
func (sc *sidecar) start(fn func() error) {
	sc.quit, sc.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sc.done)
		defer func() {
			// The panic is re-raised on Run's goroutine by outcome.
			if p := recover(); p != nil {
				sc.panicked = p
			}
		}()
		sc.err = fn()
	}()
}

// quitting reports whether the goroutine has been told to stop.
func (sc *sidecar) quitting() bool {
	select {
	case <-sc.quit:
		return true
	default:
		return false
	}
}

// halt tells the goroutine to stop at its next check.
func (sc *sidecar) halt() {
	if !sc.halted {
		sc.halted = true
		close(sc.quit)
	}
}

// outcome waits for the goroutine and returns Run's result: its panic
// re-raised, else its error — earlier in issue order than anything the
// timing loop raised after it — else the timing loop's.
func (sc *sidecar) outcome(st *Stats, err error) (*Stats, error) {
	<-sc.done
	switch {
	case sc.panicked != nil:
		panic(sc.panicked)
	case sc.err != nil:
		return nil, sc.err
	case err != nil:
		return nil, err
	}
	return st, nil
}

// discard is the Global of the warps stepped ahead. A TimingOnly warp of a
// separable kernel calls it only from the per-lane wmma fallback, which
// bounds-checks every element it skips by reading it: zeros, which no
// control value depends on.
type discard struct{}

func (discard) Read(_ uint64, buf []byte) { clear(buf) }
func (discard) Write(uint64, []byte)      {}

// replay is one pipelined launch: the record stream and its value side.
type replay struct {
	side sidecar

	// The timing goroutine's fields.
	buf    []event  // the batch being filled
	slots  []uint32 // CTA slots freed by retirement
	nSlots uint32
	joined bool

	// full and free each have room for every batch there is, so no send
	// on them ever blocks.
	full chan []event // recorded batches, in order
	free chan []event // replayed batches, for reuse

	// The value goroutine's fields.
	spec   LaunchSpec
	perCTA int         // warps per CTA
	envs   []*ptx.Env  // by CTA slot
	warps  []*ptx.Warp // by warp slot
	files  [][]uint64  // by warp slot: its register file, reused per CTA
	now    uint64      // the cycle of the issue being replayed
	res    ptx.Result
}

// runPipelined is Run for a full-value launch of a kernel that steps
// ahead, with a second CPU to step its warps and replay its values on.
// Stats and timing faults come from the timing loop; an error or panic of
// the value side takes precedence (sidecar.outcome). No goroutine
// outlives it.
func (s *Simulator) runPipelined(spec LaunchSpec) (*Stats, error) {
	r := &replay{
		buf:    make([]event, 0, batchEvents),
		full:   make(chan []event, batches),
		free:   make(chan []event, batches),
		spec:   spec,
		perCTA: (spec.Block.Count() + 31) / 32,
	}
	for range batches - 1 {
		r.free <- make([]event, 0, batchEvents)
	}
	r.side.start(r.replay)
	s.rec = r
	defer func() {
		s.rec = nil
		r.stop(false) // reached with the replay still running only on a panic
	}()
	st, err := s.runAhead(spec)
	// A launch the timing loop ended on its Ctx stops at once. Any other
	// ending replays everything recorded, so Global holds what the serial
	// run leaves at that issue, however the Ctx stands by now: a launch
	// that ran to completion returns its full memory.
	r.stop(!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded))
	return r.side.outcome(st, err)
}

// takeSlot returns a CTA slot for a dispatch: a retired CTA's, else a new
// one.
func (r *replay) takeSlot() uint32 {
	if n := len(r.slots); n > 0 {
		s := r.slots[n-1]
		r.slots = r.slots[:n-1]
		return s
	}
	r.nSlots++
	return r.nSlots - 1
}

// record appends one event, handing the batch over when it is full.
func (r *replay) record(e event) error {
	r.buf = append(r.buf, e)
	if len(r.buf) < cap(r.buf) {
		return nil
	}
	return r.flush()
}

// flush hands the full batch to the value side and takes the next batch
// it has replayed.
func (r *replay) flush() error {
	r.full <- r.buf // never blocks: the channel holds every batch there is
	r.buf = nil
	select {
	case b := <-r.free:
		r.buf = b[:0]
		return nil
	case <-r.side.done:
		return errSideStopped
	}
}

// stop ends the record and joins the value goroutine. With drain the value
// side first replays every recorded event; without, it stops at its next
// batch. Calls after the first do nothing.
func (r *replay) stop(drain bool) {
	if r.joined {
		return
	}
	r.joined = true
	if drain && len(r.buf) > 0 {
		r.full <- r.buf
	}
	if !drain {
		r.side.halt()
	}
	close(r.full)
	<-r.side.done
}

// replay is the value goroutine: it applies the batches in order until the
// record ends, it is told to quit, or a step fails.
func (r *replay) replay() error {
	for b := range r.full {
		if r.side.quitting() {
			return nil
		}
		if err := r.apply(b); err != nil {
			return err
		}
		r.free <- b // never blocks, as in flush
	}
	return nil
}

// apply replays one batch.
func (r *replay) apply(batch []event) error {
	for i := range batch {
		e := &batch[i]
		if e.kind == evDispatch {
			if err := r.dispatch(e.slot, int(e.at)); err != nil {
				return err
			}
			continue
		}
		r.now = e.at
		if err := r.warps[e.slot].StepInto(&r.res); err != nil {
			return err
		}
	}
	return nil
}

// dispatch builds the full-value warps of the CTA with grid index id in a
// CTA slot. The CTA that held the slot before has retired — the timing
// loop frees a slot only then, and the record is in order — so its shared
// window and register files are cleared and reused.
func (r *replay) dispatch(slot uint32, id int) error {
	k := r.spec.Kernel
	for int(slot) >= len(r.envs) {
		r.envs = append(r.envs, nil)
		r.warps = append(r.warps, make([]*ptx.Warp, r.perCTA)...)
		r.files = append(r.files, make([][]uint64, r.perCTA)...)
	}
	env := r.envs[slot]
	if env == nil {
		env = &ptx.Env{Global: r.spec.Global, Shared: make([]byte, k.SharedBytes),
			GridDim: r.spec.Grid, BlockDim: r.spec.Block, Clock: r.clock}
		r.envs[slot] = env
	} else {
		clear(env.Shared)
	}
	env.CtaID = ctaIndex(r.spec.Grid, id)
	for i := int(slot) * r.perCTA; i < int(slot+1)*r.perCTA; i++ {
		w, err := ptx.NewWarpOn(k, env, i-int(slot)*r.perCTA, r.spec.Args, func(n int) []uint64 { return reuse(&r.files[i], n) })
		if err != nil {
			return err
		}
		r.warps[i] = w
	}
	return nil
}

// reuse returns *file cleared if it holds n words, else a new file of n
// words, kept in *file.
func reuse(file *[]uint64, n int) []uint64 {
	if len(*file) != n {
		*file = make([]uint64, n)
	} else {
		clear(*file)
	}
	return *file
}

// clock is the value side's %clock: the cycle the timing loop issued the
// instruction at.
func (r *replay) clock() uint64 { return r.now }
