package gpu

import (
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/ptx"
)

// Warps stepped ahead (DESIGN.md "Two goroutines"). A TimingOnly warp of a
// kernel that steps ahead (ptx.Kernel.StepsAhead) moves no data, so its
// stream of pcs, exits, barriers, faults and access verdicts — the bank
// passes of its shared accesses, the sectors of its global ones — is a
// function of the warp alone: not of when it issues, nor of what other
// warps do. runAhead therefore has a goroutine of its own build and step
// every warp, CTAs in grid order, into a ring of its own; the timing loop,
// with its one scheduler and one issue path, reads a warp's next step from
// the ring where the serial path steps the warp, and charges the ports, L1,
// L2 and DRAM from the verdict. It is the timing side of a full-value
// launch too (runPipelined).

// Each warp has ringChunks chunks of at most chunkSteps steps, a chunk
// ending early once its words reach chunkWords; the registry's launches
// average under half a word a step. The timing loop wakes an idle ahead
// goroutine once per wakeBatch chunks it hands back.
const (
	chunkSteps = 32
	chunkWords = 64
	ringChunks = 2
	wakeBatch  = 8
)

// A step is one byte: flags, and in the top two bits the bank passes (0:
// none) of a step whose only accesses are shared ones needing at most
// three. What does not fit is in the chunk's words.
const (
	entExited uint8 = 1 << iota
	entBarrier
	entFault // the step failed with the stream's err, which ends it
	entJump  // the warp's pc is not the next one: a word holds it
	entWords // words hold the step's verdict (see chunk)
	entStore // the step's global accesses store

	passShift = 6
	maxPasses = 1<<(8-passShift) - 1
)

// chunk is a run of one warp's steps. words holds, for the steps in order,
// the pc an entJump step leaves the warp at, and an entWords step's bank
// passes | the count n of its sector runs << 32, followed by those runs.
type chunk struct {
	n     int
	steps [chunkSteps]uint8
	words []uint64
}

// runBits is how many low bits of a sector address, zero in a sector of
// 1<<shift bytes, a run keeps its length less one in: up to 32 sectors.
func runBits(shift uint) uint { return min(shift, 5) }

// appendRuns appends sectors to out as runs of consecutive sectors of
// 1<<shift bytes: a coalesced warp access is one word, not one a sector.
func appendRuns(out, sectors []uint64, shift uint) []uint64 {
	for i := 0; i < len(sectors); {
		n := 1
		for n < 1<<runBits(shift) && i+n < len(sectors) && sectors[i+n] == sectors[i]+uint64(n)<<shift {
			n++
		}
		out = append(out, sectors[i]|uint64(n-1))
		i += n
	}
	return out
}

// expandRuns appends the sectors of runs to out, in order.
func expandRuns(out, runs []uint64, shift uint) []uint64 {
	mask := uint64(1)<<runBits(shift) - 1
	for _, r := range runs {
		for i := uint64(0); i <= r&mask; i++ {
			out = append(out, r&^mask+i<<shift)
		}
	}
	return out
}

// stream is one warp's ring. The ahead goroutine fills chunk
// produced%ringChunks while produced-consumed < ringChunks and publishes it
// by incrementing produced; the timing loop reads the chunks below
// produced and hands one back by incrementing consumed.
type stream struct {
	ring               [ringChunks]chunk
	produced, consumed atomic.Uint32
	err                error // the fault that ended the stream, set before its chunk is published

	// The ahead goroutine's.
	warp  *ptx.Warp
	cta   *aheadCTA
	ended bool
}

// aheadCTA is one CTA on the ahead goroutine: its Env, on discard with a
// Clock that panics, its warps' register files, and their streams.
type aheadCTA struct {
	env     *ptx.Env
	files   [][]uint64
	streams []stream
	live    int // streams not ended; the Env, files and live are the ahead goroutine's
}

// ahead is one launch whose warps step ahead.
type ahead struct {
	side   sidecar
	spec   LaunchSpec
	prog   []ptx.DInstr // what the warps step through
	limit  int          // CTAs the launch simulates
	window int64        // CTAs started beyond those dispatched: one per SM
	shift  uint         // a sector is 1<<shift bytes

	want       atomic.Pointer[stream] // the stream the timing loop starves on
	dispatched atomic.Int64
	wake       chan struct{}  // an idle ahead goroutine waits on it
	ready      chan *aheadCTA // started CTAs, in grid order; room for window

	handed int // the timing loop's: chunks handed back since the last wake-up

	// The ahead goroutine's.
	started int
	held    []*stream   // the started CTAs' warps, less some that have ended
	spare   []*aheadCTA // started CTAs whose streams have all ended
	cls     *mem.Classifier
	split   accessSplit
	sectors []uint64
	res     ptx.Result
}

// runAhead is Run for a TimingOnly launch whose warps step ahead, with a
// second CPU to step them on, and the timing side of a full-value one
// (runPipelined): its warps are TimingOnly and on discard either way. No
// goroutine it starts outlives it.
func (s *Simulator) runAhead(spec LaunchSpec) (*Stats, error) {
	a := &ahead{
		spec:   spec,
		prog:   spec.Kernel.TimingProgram(),
		limit:  spec.Grid.Count(),
		window: int64(len(s.sms)),
		shift:  uint(bits.TrailingZeros(uint(s.cfg.Mem.SectorBytes))),
		wake:   make(chan struct{}, 1),
		ready:  make(chan *aheadCTA, len(s.sms)),
		// The timing loop classifies nothing while the warps step ahead.
		cls: s.sms[0].port.Classifier(),
	}
	if spec.MaxCTAs > 0 {
		a.limit = min(a.limit, spec.MaxCTAs)
	}
	a.side.start(a.run)
	s.ahead = a
	defer func() {
		s.ahead = nil
		a.side.halt() // reached with the goroutine running only on a panic
		<-a.side.done
	}()
	st, err := s.run(spec)
	a.side.halt()
	return a.side.outcome(st, err)
}

// The timing loop's side.

// poke wakes the ahead goroutine if it is idle: its token stays until the
// goroutine has looked for work again.
func (a *ahead) poke() {
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// take returns the next CTA in grid order for a dispatch.
func (a *ahead) take() (*aheadCTA, error) {
	a.poke()
	select {
	case c := <-a.ready:
		a.dispatched.Add(1)
		a.poke() // the window has room
		return c, nil
	case <-a.side.done:
		return nil, errSideStopped
	}
}

// cursor is the timing loop's place in one warp's stream.
type cursor struct {
	s         *stream
	prog      []ptx.DInstr
	rd, avail uint32 // the chunk being read; the chunks published, as last seen
	pos, woff int    // the next step of chunk rd and its words
	pc        int
	exited    bool
	// The step read last: its flags, bank passes and sector runs.
	flags  uint8
	passes int
	runs   []uint64
}

// peek is ptx.Warp.PeekD on the stream.
func (c *cursor) peek() *ptx.DInstr {
	if c.exited || c.pc >= len(c.prog) {
		return nil
	}
	return &c.prog[c.pc]
}

// next reads the warp's next step and returns the step's fault. Starved,
// it hands its chunks back, asks for the warp and waits, so the two
// goroutines never wait on each other.
func (c *cursor) next(a *ahead) error {
	s := c.s
	ch := &s.ring[c.rd%ringChunks]
	if c.rd < c.avail && c.pos == ch.n {
		c.rd++
		c.pos, c.woff = 0, 0
		ch = &s.ring[c.rd%ringChunks]
		s.consumed.Store(c.rd)
		if a.handed++; a.handed == wakeBatch {
			a.handed = 0
			a.poke()
		}
	}
	if c.rd == c.avail {
		if c.avail = s.produced.Load(); c.rd == c.avail {
			a.want.Store(s)
			a.poke()
			for ; c.rd == c.avail; c.avail = s.produced.Load() {
				select {
				case <-a.side.done:
					return errSideStopped
				default:
					runtime.Gosched()
				}
			}
		}
	}
	f := ch.steps[c.pos]
	c.pos++
	c.flags = f
	switch {
	case f&entFault != 0:
		return s.err
	case f&entJump != 0:
		c.pc = int(ch.words[c.woff])
		c.woff++
	default:
		c.pc++
	}
	c.exited = f&entExited != 0
	c.passes, c.runs = int(f>>passShift), nil
	if f&entWords != 0 {
		h := ch.words[c.woff]
		n := int(h >> 32)
		c.passes, c.runs = int(uint32(h)), ch.words[c.woff+1:][:n]
		c.woff += 1 + n
	}
	return nil
}

// The ahead goroutine's side.

// run steps warps until told to quit: first one the timing loop starves
// on, then the next CTA if the window has room, then a chunk for every
// warp whose ring has room.
func (a *ahead) run() error {
	for !a.side.quitting() {
		if a.work() {
			continue
		}
		select {
		case <-a.wake:
		case <-a.side.quit:
		}
	}
	return nil
}

// work does one round of work and reports whether there was any.
func (a *ahead) work() bool {
	if s := a.want.Swap(nil); s != nil && a.room(s) {
		a.fill(s)
		return true
	}
	if a.canStart() {
		a.start()
		return true
	}
	did := false
	for _, s := range a.held {
		if a.room(s) {
			a.fill(s)
			did = true
			if a.want.Load() != nil || a.canStart() || a.side.quitting() {
				break
			}
		}
	}
	return did
}

// room reports whether the warp of s has more steps and its ring room for
// them.
func (a *ahead) room(s *stream) bool {
	return !s.ended && s.produced.Load()-s.consumed.Load() < ringChunks
}

// canStart reports whether the next CTA may start: the launch has one,
// and the window of CTAs started beyond those dispatched has room.
func (a *ahead) canStart() bool {
	return a.started < a.limit && int64(a.started)-a.dispatched.Load() < a.window
}

// start builds the next CTA in grid order and queues it for dispatch with
// a chunk in every warp's ring: the timing loop issues a new CTA's warps
// at once. The CTA takes the Env and register files of one whose warps
// have all ended, cleared, if there is one: the timing loop reads neither.
func (a *ahead) start() {
	k, perCTA := a.spec.Kernel, (a.spec.Block.Count()+31)/32
	c := &aheadCTA{streams: make([]stream, perCTA), live: perCTA}
	if n := len(a.spare); n > 0 {
		c.env, c.files = a.spare[n-1].env, a.spare[n-1].files
		a.spare = a.spare[:n-1]
		clear(c.env.Shared)
	} else {
		c.env = &ptx.Env{Global: discard{}, Shared: make([]byte, k.SharedBytes),
			GridDim: a.spec.Grid, BlockDim: a.spec.Block,
			TimingOnly: true, Clock: func() uint64 { panic("gpu: a warp stepped ahead read %clock") }}
		c.files = make([][]uint64, perCTA)
	}
	c.env.CtaID = ctaIndex(a.spec.Grid, a.started)
	a.started++
	a.held = slices.DeleteFunc(a.held, func(s *stream) bool { return s.ended })
	for i := range c.streams {
		w, err := ptx.NewWarpOn(k, c.env, i, a.spec.Args, func(n int) []uint64 { return reuse(&c.files[i], n) })
		if err != nil {
			panic(err) // Run checked the arguments
		}
		s := &c.streams[i]
		s.warp, s.cta = w, c
		if w.PeekD() == nil {
			a.end(s)
		} else {
			a.fill(s)
		}
		a.held = append(a.held, s)
	}
	a.ready <- c // never blocks: canStart held
}

// end ends the stream s, and once it was its CTA's last, spares the CTA's
// Env and register files for a later CTA while the timing loop catches up.
func (a *ahead) end(s *stream) {
	s.warp, s.ended = nil, true
	if s.cta.live--; s.cta.live == 0 {
		a.spare = append(a.spare, s.cta)
	}
}

// fill steps the warp of s into its next chunk until the chunk is full or
// the stream ends, then publishes the chunk.
func (a *ahead) fill(s *stream) {
	n := s.produced.Load()
	ch := &s.ring[n%ringChunks]
	ch.words = ch.words[:0]
	w, res := s.warp, &a.res
	i := 0
	for i < chunkSteps && len(ch.words) < chunkWords {
		pc := w.PC
		err := w.StepInto(res)
		f := uint8(0)
		switch {
		case err != nil:
			s.err, f = err, entFault
		case res.Exited:
			f = entExited
		case w.PC != pc+1:
			f = entJump
			ch.words = append(ch.words, uint64(w.PC))
		}
		if err == nil && len(res.Batch) > 0 {
			passes, sectors, store := a.split.classify(a.cls, res, a.sectors[:0])
			a.sectors = sectors[:0]
			if len(sectors) == 0 && passes <= maxPasses {
				f |= uint8(passes) << passShift
			} else {
				base := len(ch.words)
				ch.words = appendRuns(append(ch.words, 0), sectors, a.shift)
				ch.words[base] = uint64(passes) | uint64(len(ch.words)-base-1)<<32
				f |= entWords
			}
			if store {
				f |= entStore
			}
		}
		if res.Barrier {
			f |= entBarrier
			w.AtBarrier = false // the timing loop holds the warp there
		}
		ch.steps[i] = f
		i++
		if f&(entFault|entExited) != 0 || w.PeekD() == nil {
			a.end(s)
			break
		}
	}
	ch.n = i
	s.produced.Store(n + 1)
}
