package ptx

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// The batched warp access path. The legacy executor reports one Access
// struct per lane per instruction and reads or writes memory one lane at
// a time; for a 32-lane warp that is 32 struct appends, 32 generic-space
// resolutions and up to 32 Memory interface calls per load or store —
// the dominant cost of memory-bound SIMT kernels once ALU dispatch and
// scheduling are decoded (the fig17 profile). The batched path instead
// generates all 32 lane addresses in one pass into a WarpAccess — a
// struct-of-arrays vector with an active-lane bitmask and the shared
// width/space/store attributes — resolves the state space once per
// instruction, and moves contiguous data in bulk: a warp whose lanes
// read one unit-stride range becomes a single Memory.Read, and runs of
// consecutive lanes become one call per run. The timing model consumes
// the vector directly (mem.AddrVec aliases the address array), so no
// per-lane request list is ever materialized.

// WarpAccess is the batched form of one warp instruction's memory access
// group: per-lane addresses (stale in unmasked lanes), the active-lane
// bitmask and the attributes every lane shares. Ordinary ld/st produce
// one group (two when generic addressing splits the warp across spaces);
// wmma.load/store produce one group per fragment piece. Like
// Result.Accesses, the groups alias per-warp scratch valid until the
// warp's next Step.
type WarpAccess struct {
	Addr  [32]uint64
	Mask  uint32
	Bits  int32
	Space Space // Global or Shared after generic resolution
	Store bool
}

// legacyAccessPath, when set, routes warps constructed afterwards
// through the per-lane Access path instead of the batched WarpAccess
// path. It exists so tests can assert the batched path is
// semantics-preserving (bit-identical Stats and experiment tables) and
// so the ablation benchmark can quantify the difference; production
// code never sets it.
//
//simlint:processknob equivalence/ablation knob: CLI plumbing and Swap-helper tests only, never flipped while simulators run
var legacyAccessPath atomic.Bool

// LegacyAccessPath switches subsequently constructed warps between the
// batched struct-of-arrays access path (the default) and the per-lane
// legacy path, mirroring InterpretALU and gpu.ScanScheduler.
func LegacyAccessPath(on bool) { legacyAccessPath.Store(on) }

// SwapLegacyAccessPath sets the knob and returns the restore that puts
// the previous value back. Tests must use this shape — registered with
// defer or t.Cleanup — so a process-global knob can never leak across
// parallel tests:
//
//	defer ptx.SwapLegacyAccessPath(true)()
func SwapLegacyAccessPath(on bool) (restore func()) {
	prev := legacyAccessPath.Swap(on)
	return func() { legacyAccessPath.Store(prev) }
}

// appendBatchSlot extends the batch by one group without zeroing the
// (mask-guarded, stale) lane addresses of a recycled backing array.
func appendBatchSlot(b []WarpAccess) ([]WarpAccess, *WarpAccess) {
	if len(b) < cap(b) {
		b = b[:len(b)+1]
	} else {
		b = append(b, WarpAccess{})
	}
	return b, &b[len(b)-1]
}

// LaneAccesses returns the instruction's memory accesses in per-lane
// form: Result.Accesses when the legacy path produced them, otherwise
// the lane-major expansion of the batched groups — the exact order the
// legacy path would have emitted. Tests and tools use it; the timing
// model consumes the batch directly.
func (r *Result) LaneAccesses() []Access {
	if len(r.Accesses) > 0 || len(r.Batch) == 0 {
		return r.Accesses
	}
	return expandBatch(nil, r.Batch)
}

// expandBatch appends the lane-major expansion of batched groups.
func expandBatch(out []Access, batch []WarpAccess) []Access {
	for lane := 0; lane < 32; lane++ {
		bit := uint32(1) << lane
		for gi := range batch {
			g := &batch[gi]
			if g.Mask&bit == 0 {
				continue
			}
			out = append(out, Access{
				Lane: lane, Addr: g.Addr[lane], Bits: int(g.Bits),
				Space: g.Space, Store: g.Store,
			})
		}
	}
	return out
}

// genLdStAddrs fills the group's address vector and mask for a decoded
// ld/st: the guard is one mask, and the base operand's vector is copied
// whole (WarpAccess.Addr is stale in unmasked lanes by contract).
//
//simlint:hotpath
func (w *Warp) genLdStAddrs(d *DInstr, wa *WarpAccess) {
	wa.Mask = d.guard(w)
	wa.Addr = *d.srcVec(w, 0)
}

// resolveBatchSpace resolves the group's state space in place, exactly
// as Env.resolveSpace does per lane. Static spaces resolve once per
// instruction; a generic access that straddles the shared window splits
// into a second group so each group ends up in exactly one space. The
// lanes that resolve to shared memory are bounds-checked on the way (see
// sharedSpan): the highest offset decides.
func (w *Warp) resolveBatchSpace(res *Result, gi int) error {
	wa := &res.Batch[gi]
	nb := uint64(wa.Bits / 8)
	var hi uint64
	switch wa.Space {
	case Global:
		return nil
	case Shared:
		for lane := 0; lane < 32; lane++ {
			if wa.Mask&(1<<lane) == 0 {
				continue
			}
			if wa.Addr[lane] >= SharedBase {
				wa.Addr[lane] -= SharedBase
			}
			hi = max(hi, wa.Addr[lane])
		}
		return w.sharedSpan(hi, nb)
	}
	// Generic: a lane is shared iff its address falls inside the window.
	limit := SharedBase + uint64(len(w.Env.Shared))
	var sharedMask uint32
	for lane := 0; lane < 32; lane++ {
		if wa.Mask&(1<<lane) == 0 {
			continue
		}
		if a := wa.Addr[lane]; a >= SharedBase && a < limit {
			sharedMask |= 1 << lane
			wa.Addr[lane] = a - SharedBase
			hi = max(hi, wa.Addr[lane])
		}
	}
	switch sharedMask {
	case 0:
		wa.Space = Global
		return nil
	case wa.Mask:
		wa.Space = Shared
		return w.sharedSpan(hi, nb)
	}
	// Mixed: keep the global lanes here, split the shared lanes off.
	// (accessMemory partitions by space, so group order is immaterial.)
	var split *WarpAccess
	res.Batch, split = appendBatchSlot(res.Batch)
	wa = &res.Batch[gi] // re-resolve: append may have moved the backing
	*split = *wa
	split.Space = Shared
	split.Mask = sharedMask
	wa.Space = Global
	wa.Mask &^= sharedMask
	return w.sharedSpan(hi, nb)
}

// sharedSpan is the shared window's bounds check: the error for an n-byte
// access at window offset a that leaves the CTA's shared memory. It runs
// ahead of the data movement, whose slice bounds used to be the only
// guard, so that a TimingOnly warp — which moves no data — faults on the
// same access with the same error.
func (w *Warp) sharedSpan(a, n uint64) error {
	if limit := uint64(len(w.Env.Shared)); a > limit || n > limit-a {
		return fmt.Errorf("ptx: shared access [%d,+%d) outside the %d-byte window at %d in %s",
			a, n, limit, w.PC, w.Kernel.Name)
	}
	return nil
}

// execLoadBatched is execLoad on the batched path: one address pass, one
// space resolution, then bulk data movement — a single read for a
// uniform broadcast, one read per maximal unit-stride lane run for
// everything else global, and direct slice reads for shared memory.
//
//simlint:hotpath
func (w *Warp) execLoadBatched(d *DInstr, res *Result) error {
	var wa *WarpAccess
	res.Batch, wa = appendBatchSlot(res.Batch)
	wa.Bits = int32(d.In.Width)
	wa.Space = d.space
	wa.Store = false
	w.genLdStAddrs(d, wa)
	if wa.Mask == 0 {
		res.Batch = res.Batch[:len(res.Batch)-1]
		return nil
	}
	if err := w.resolveBatchSpace(res, len(res.Batch)-1); err != nil || w.valueFree(d) {
		return err
	}
	for gi := range res.Batch {
		w.loadGroup(d, &res.Batch[gi])
	}
	return nil
}

// loadGroup moves one group's data from memory into the destination
// registers.
//
//simlint:hotpath
func (w *Warp) loadGroup(d *DInstr, g *WarpAccess) {
	nb := uint64(d.membytes)
	if g.Space == Shared {
		w.unpackLoad(d, g.Mask, w.Env.Shared, &g.Addr)
		return
	}
	// Global data is staged in bulk, lane i's bytes at off[i]. (vecs[0]
	// is free again: genLdStAddrs copied the base operand out of it.)
	off := &w.vecs[0]
	if g.Mask == fullMask && uniformAddrs(&g.Addr) {
		// Broadcast: all lanes read the same bytes once.
		w.Env.Global.Read(g.Addr[0], w.bulk[:nb])
		*off = [32]uint64{}
		w.unpackLoad(d, g.Mask, w.bulk[:nb], off)
		return
	}
	// One Memory.Read per maximal run of consecutive masked lanes with
	// contiguous addresses (run length 1 degrades to the per-lane read).
	for lane := 0; lane < 32; {
		if g.Mask&(1<<lane) == 0 {
			lane++
			continue
		}
		end := lane + 1
		for end < 32 && g.Mask&(1<<end) != 0 && g.Addr[end] == g.Addr[end-1]+nb {
			end++
		}
		lo, hi := uint64(lane)*nb, uint64(end)*nb
		w.Env.Global.Read(g.Addr[lane], w.bulk[lo:hi:hi])
		for ; lane < end; lane++ {
			off[lane] = uint64(lane) * nb
		}
	}
	w.unpackLoad(d, g.Mask, w.bulk[:], off)
}

// unpackLoad writes the masked lanes' loaded bytes into the destination
// registers, one destination vector at a time; lane i's bytes start at
// src[off[i]].
//
//simlint:hotpath
func (w *Warp) unpackLoad(d *DInstr, mask uint32, src []byte, off *[32]uint64) {
	if d.In.Width == 16 {
		dst := w.regVec(int(d.dsts[0]))
		for on := mask; on != 0; on &= on - 1 {
			lane := bits.TrailingZeros32(on) & 31
			dst[lane] = uint64(binary.LittleEndian.Uint16(src[off[lane]:]))
		}
		return
	}
	for i := 0; i < int(d.words); i++ {
		dst := w.regVec(int(d.dsts[i]))
		for on := mask; on != 0; on &= on - 1 {
			lane := bits.TrailingZeros32(on) & 31
			dst[lane] = uint64(binary.LittleEndian.Uint32(src[off[lane]+uint64(4*i):]))
		}
	}
}

// execStoreBatched is execStore on the batched path.
//
//simlint:hotpath
func (w *Warp) execStoreBatched(d *DInstr, res *Result) error {
	var wa *WarpAccess
	res.Batch, wa = appendBatchSlot(res.Batch)
	wa.Bits = int32(d.In.Width)
	wa.Space = d.space
	wa.Store = true
	w.genLdStAddrs(d, wa)
	if wa.Mask == 0 {
		res.Batch = res.Batch[:len(res.Batch)-1]
		return nil
	}
	if err := w.resolveBatchSpace(res, len(res.Batch)-1); err != nil || w.valueFree(d) {
		return err
	}
	for gi := range res.Batch {
		w.storeGroup(d, &res.Batch[gi])
	}
	return nil
}

// storeGroup moves one group's register values into memory. Lane order
// is preserved (within a run addresses are disjoint; runs are emitted in
// lane order), so overlapping stores resolve exactly as the per-lane
// path does: last lane wins.
//
//simlint:hotpath
func (w *Warp) storeGroup(d *DInstr, g *WarpAccess) {
	nb := uint64(d.membytes)
	if g.Space == Shared {
		shared := w.Env.Shared
		for lane := 0; lane < 32; lane++ {
			if g.Mask&(1<<lane) == 0 {
				continue
			}
			a := g.Addr[lane]
			w.packStore(d, lane, shared[a:a+nb])
		}
		return
	}
	for lane := 0; lane < 32; {
		if g.Mask&(1<<lane) == 0 {
			lane++
			continue
		}
		end := lane + 1
		for end < 32 && g.Mask&(1<<end) != 0 && g.Addr[end] == g.Addr[end-1]+nb {
			end++
		}
		n := uint64(end - lane)
		buf := w.bulk[: n*nb : n*nb]
		for i := lane; i < end; i++ {
			w.packStore(d, i, buf[uint64(i-lane)*nb:uint64(i-lane+1)*nb])
		}
		w.Env.Global.Write(g.Addr[lane], buf)
		lane = end
	}
}

// packStore serializes one lane's source operands into dst. Stores stay
// lane-major: overlapping lanes must land in lane order.
func (w *Warp) packStore(d *DInstr, lane int, dst []byte) {
	if d.In.Width == 16 {
		v := d.val(w, lane, &d.srcs[1])
		binary.LittleEndian.PutUint16(dst, uint16(v))
		return
	}
	for i := 0; i < int(d.words); i++ {
		v := d.val(w, lane, &d.srcs[1+i])
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
}

// uniformAddrs reports whether all 32 lanes hold one address.
func uniformAddrs(a *[32]uint64) bool {
	a0 := a[0]
	for i := 1; i < 32; i++ {
		if a[i] != a0 {
			return false
		}
	}
	return true
}
