package ptx

import "math/bits"

// The per-lane reference of the warp access path, the equivalence nets'
// oracle: one Access per lane per instruction, lane by lane. LaneAccesses
// expands a Result's groups into that form; refStep steps a warp with ld
// and st executed lane by lane, reading and writing memory one lane at a
// time.

// Access is one lane's memory access as the coalescer sees it.
type Access struct {
	Lane  int
	Addr  uint64 // post-resolution address (shared offsets are window-relative)
	Bits  int
	Space Space // Global or Shared after generic resolution
	Store bool
}

// LaneAccesses returns the instruction's memory accesses in per-lane
// form: the lane-major expansion of the batched groups.
func (r *Result) LaneAccesses() []Access {
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

// newRefWarp is NewWarp for the reference stepper: a warp that skips
// nothing, so every instruction computes and moves its values.
func newRefWarp(k *Kernel, env *Env, id int, args []uint64) (*Warp, error) {
	w, err := NewWarp(k, env, id, args)
	if w != nil {
		w.skip = 0
	}
	return w, err
}

// refResult collects the per-lane accesses of one reference step.
type refResult struct {
	Accesses []Access
}

// refStep executes the warp's next instruction on the reference path: ld
// and st lane by lane (execLoad, execStore), everything else as Step
// does, with its accesses expanded lane-major.
func (w *Warp) refStep() ([]Access, error) {
	d := w.PeekD()
	if d == nil || d.Class != DClassLd && d.Class != DClassSt {
		res, err := w.Step()
		return res.LaneAccesses(), err
	}
	var res refResult
	if d.Class == DClassLd {
		w.execLoad(d, &res)
	} else {
		w.execStore(d, &res)
	}
	w.PC++
	return res.Accesses, nil
}

// execLoad is ld on the reference path: per lane, resolve the space,
// read the bytes, write the destination registers.
func (w *Warp) execLoad(d *DInstr, res *refResult) {
	in := d.In
	words := int(d.words)
	nbytes := uint64(d.membytes)
	buf := w.membuf[:nbytes]
	addr0 := &d.srcs[0]
	for m := d.guard(w); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		addr := d.val(w, lane, addr0)
		sp, a := w.Env.resolveSpace(in.Space, addr)
		res.Accesses = append(res.Accesses, Access{Lane: lane, Addr: a, Bits: in.Width, Space: sp})
		if sp == Shared {
			copy(buf, w.Env.Shared[a:a+nbytes])
		} else {
			w.Env.Global.Read(a, buf)
		}
		if in.Width == 16 {
			w.setReg(lane, in.Dst[0], uint64(buf[0])|uint64(buf[1])<<8)
			continue
		}
		for i := 0; i < words; i++ {
			v := uint64(buf[4*i]) | uint64(buf[4*i+1])<<8 | uint64(buf[4*i+2])<<16 | uint64(buf[4*i+3])<<24
			w.setReg(lane, in.Dst[i], v)
		}
	}
}

// execStore is st on the reference path: per lane, resolve the space,
// pack the source registers, write the bytes.
func (w *Warp) execStore(d *DInstr, res *refResult) {
	in := d.In
	words := int(d.words)
	nbytes := uint64(d.membytes)
	buf := w.membuf[:nbytes]
	addr0 := &d.srcs[0]
	for m := d.guard(w); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		addr := d.val(w, lane, addr0)
		sp, a := w.Env.resolveSpace(in.Space, addr)
		res.Accesses = append(res.Accesses, Access{Lane: lane, Addr: a, Bits: in.Width, Space: sp, Store: true})
		if in.Width == 16 {
			v := d.val(w, lane, &d.srcs[1])
			buf[0], buf[1] = byte(v), byte(v>>8)
		} else {
			for i := 0; i < words; i++ {
				v := d.val(w, lane, &d.srcs[1+i])
				buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			}
		}
		if sp == Shared {
			copy(w.Env.Shared[a:a+nbytes], buf)
		} else {
			w.Env.Global.Write(a, buf)
		}
	}
}
