package gpu

import (
	"context"
	"errors"

	"repro/internal/ptx"
)

// Timing and values on two goroutines (DESIGN.md). A full-value launch of
// a timing-separable kernel needs its operand values only for what it
// leaves in Global: its Stats and faults are those of a TimingOnly launch.
// runPipelined therefore runs the TimingOnly simulation on the caller's
// goroutine, on a Global that discards, and records every CTA dispatch and
// every warp issue in fixed-size events; a second goroutine replays the
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

// errValuesStopped ends the timing loop once the value goroutine has
// stopped on an error or a panic, which runPipelined reports instead.
var errValuesStopped = errors.New("gpu: value replay stopped")

// discard is the timing loop's Global. A TimingOnly warp of a separable
// kernel never calls it; the per-lane twins that do read zeros, which no
// control value depends on.
type discard struct{}

func (discard) Read(_ uint64, buf []byte) { clear(buf) }
func (discard) Write(uint64, []byte)      {}

// replay is one pipelined launch: the record stream and its value side.
type replay struct {
	// The timing goroutine's fields.
	buf    []event  // the batch being filled
	slots  []uint32 // CTA slots freed by retirement
	nSlots uint32
	joined bool

	// full and free each have room for every batch there is, so no send
	// on them ever blocks.
	full chan []event  // recorded batches, in order
	free chan []event  // replayed batches, for reuse
	quit chan struct{} // closed: the value side stops at its next batch
	done chan struct{} // closed when the value goroutine returns

	// The value goroutine's fields; err and panicked are read after done.
	spec     LaunchSpec
	perCTA   int         // warps per CTA
	envs     []*ptx.Env  // by CTA slot
	warps    []*ptx.Warp // by warp slot
	files    [][]uint64  // by warp slot: its register file, reused per CTA
	now      uint64      // the cycle of the issue being replayed
	res      ptx.Result
	err      error
	panicked any
}

// runPipelined is Run for a full-value launch of a timing-separable kernel
// with a second CPU to replay its values on. Stats and timing faults come
// from the timing loop; an error or panic of the value side, which is
// earlier in issue order than anything the timing loop raises after it,
// takes precedence. No goroutine outlives it.
func (s *Simulator) runPipelined(spec LaunchSpec) (*Stats, error) {
	r := &replay{
		buf:    make([]event, 0, batchEvents),
		full:   make(chan []event, batches),
		free:   make(chan []event, batches),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		spec:   spec,
		perCTA: (spec.Block.Count() + 31) / 32,
	}
	for range batches - 1 {
		r.free <- make([]event, 0, batchEvents)
	}
	go r.replay()
	s.rec = r
	defer func() {
		s.rec = nil
		r.stop(false) // reached with the replay still running only on a panic
	}()
	timing := spec
	timing.TimingOnly, timing.Global = true, discard{}
	st, err := s.run(timing)
	// A launch the timing loop ended on its Ctx stops at once. Any other
	// ending replays everything recorded, so Global holds what the serial
	// run leaves at that issue, however the Ctx stands by now: a launch
	// that ran to completion returns its full memory.
	r.stop(!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded))
	switch {
	case r.panicked != nil:
		panic(r.panicked)
	case r.err != nil:
		return nil, r.err
	case err != nil:
		return nil, err
	}
	return st, nil
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
	case <-r.done:
		return errValuesStopped
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
		close(r.quit)
	}
	close(r.full)
	<-r.done
}

// replay is the value goroutine: it applies the batches in order until the
// record ends, it is told to quit, or a step fails or panics.
func (r *replay) replay() {
	defer close(r.done)
	defer func() {
		//simlint:ok the panic is re-raised on Run's goroutine by runPipelined
		if p := recover(); p != nil {
			r.panicked = p
		}
	}()
	for b := range r.full {
		select {
		case <-r.quit:
			return
		default:
		}
		if err := r.apply(b); err != nil {
			r.err = err
			return
		}
		r.free <- b // never blocks, as in flush
	}
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
		w, err := ptx.NewWarpOn(k, env, i-int(slot)*r.perCTA, r.spec.Args, func(n int) []uint64 {
			if len(r.files[i]) != n {
				r.files[i] = make([]uint64, n)
			} else {
				clear(r.files[i])
			}
			return r.files[i]
		})
		if err != nil {
			return err
		}
		r.warps[i] = w
	}
	return nil
}

// clock is the value side's %clock: the cycle the timing loop issued the
// instruction at.
func (r *replay) clock() uint64 { return r.now }
