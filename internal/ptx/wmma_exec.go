package ptx

import (
	"fmt"
	"math/bits"

	"repro/internal/tensor"
	"repro/internal/wmma"
)

// Execution of the three wmma instructions. wmma.load/store move fragment
// elements between memory and registers following the fragment-to-thread
// mapping reverse engineered in Section III-B; wmma.mma reconstructs the
// operand tiles from the fragments, computes D = A×B + C with the tensor
// core arithmetic of internal/wmma, and scatters D back into registers.

// uniformOperand reads the i-th decoded source operand, which must hold
// the same value in every enabled lane (wmma base addresses and strides
// are warp-level values).
func (w *Warp) uniformOperand(d *DInstr, i int) (uint64, error) {
	on := d.guard(w)
	if on == 0 {
		return 0, fmt.Errorf("ptx: wmma executed with no enabled lanes")
	}
	if s := &d.srcs[i]; s.kind == OperandImm {
		return s.imm, nil
	}
	vec := d.srcVec(w, i)
	v := vec[bits.TrailingZeros32(on)&31]
	for on &= on - 1; on != 0; on &= on - 1 {
		if vec[bits.TrailingZeros32(on)&31] != v {
			return 0, fmt.Errorf("ptx: wmma %s not warp-uniform", [...]string{"base", "stride"}[i])
		}
	}
	return v, nil
}

// fragPiece is one ≤128-bit piece of a lane's fragment access: the
// coalesced SASS-level access shape of Section III-C (maximal
// consecutive element runs split into ≤128-bit pieces). Both the batched
// and per-lane emitters consume the same piece list, so the two access
// paths cannot drift apart.
type fragPiece struct {
	addr uint64
	bits int32
}

// fragPieces appends one lane's pieces to out.
func fragPieces(out []fragPiece, addrs []uint64, elemBits int) []fragPiece {
	for i := 0; i < len(addrs); {
		j := fragRunEnd(addrs, i, uint64(elemBits/8))
		bits := (j - i) * elemBits
		base := addrs[i]
		for bits > 0 {
			b := min(bits, 128)
			out = append(out, fragPiece{addr: base, bits: int32(b)})
			base += uint64(b / 8)
			bits -= b
		}
		i = j
	}
	return out
}

// fragBatch commits one lane's fragment pieces into the slot-aligned
// batched groups: piece k of every lane shares group k, which holds the
// warp's k-th piece addresses as one vector. ok is false — and the batch
// untouched — when this lane's piece structure (width or resolved space
// per slot) deviates from the groups earlier lanes laid down; the caller
// then falls back to the per-lane Access list, whose coalescing order
// the slot alignment exists to preserve.
func fragBatch(batch []WarpAccess, lane int, pieces []fragPiece, space Space, store bool) ([]WarpAccess, bool) {
	for slot := range pieces {
		if slot >= len(batch) {
			break
		}
		g := &batch[slot]
		if g.Bits != pieces[slot].bits || g.Space != space {
			return batch, false
		}
	}
	for slot := range pieces {
		if slot < len(batch) {
			g := &batch[slot]
			g.Mask |= 1 << lane
			g.Addr[lane] = pieces[slot].addr
			continue
		}
		var g *WarpAccess
		batch, g = appendBatchSlot(batch)
		g.Mask = 1 << lane
		g.Addr[lane] = pieces[slot].addr
		g.Bits = pieces[slot].bits
		g.Space = space
		g.Store = store
	}
	return batch, true
}

// emitFragAccesses routes one lane's fragment pieces onto the batched or
// legacy path. batched is carried across the instruction's lanes: once a
// lane's structure forces the legacy fallback, the groups built so far
// are expanded (in the exact lane-major order the legacy path would have
// produced) and every remaining lane appends per-lane Accesses.
func (w *Warp) emitFragAccesses(res *Result, batched bool, lane int, addrs []uint64, elemBits int, space Space, store bool) bool {
	pieces := fragPieces(w.pieceBuf[:0], addrs, elemBits)
	w.pieceBuf = pieces
	if batched {
		var ok bool
		if res.Batch, ok = fragBatch(res.Batch, lane, pieces, space, store); ok {
			return true
		}
		res.Accesses = expandBatch(res.Accesses, res.Batch)
		res.Batch = res.Batch[:0]
	}
	for _, p := range pieces {
		res.Accesses = append(res.Accesses, Access{
			Lane: lane, Addr: p.addr, Bits: int(p.bits), Space: space, Store: store,
		})
	}
	return false
}

// laneAddrs returns the reusable per-lane address scratch, grown to n.
func (w *Warp) laneAddrs(n int) []uint64 {
	w.addrBuf = grow(w.addrBuf, n)
	return w.addrBuf
}

// execWmmaLoad and execWmmaStore hand the instruction to its decode-time
// access shape (execFragShape, wmma_batch.go) and keep what that declines:
// the per-lane loops, which are also the tests' reference.
func (w *Warp) execWmmaLoad(d *DInstr, res *Result) error {
	in := d.In
	m := in.WMap
	base, err := w.uniformOperand(d, 0)
	if err != nil {
		return err
	}
	if w.execFragShape(d, res, base, false) {
		return nil
	}
	stride, err := w.uniformOperand(d, 1)
	if err != nil {
		return err
	}
	elemBytes := uint64(d.membytes)
	buf := w.membuf[:elemBytes]
	batched := !w.legacy
	// A skipped load still bounds-checks every element but leaves the
	// fragment registers alone: a packed register file has none of them.
	values := !w.valueFree(d)
	for lane := 0; lane < 32; lane++ {
		if !w.laneEnabled(lane, in) {
			continue
		}
		addrs := w.laneAddrs(len(m.Lanes[lane]))
		for slot, c := range m.Lanes[lane] {
			off := memOffsetFor(m, c, int(stride))
			addr := base + uint64(off)*elemBytes
			addrs[slot] = addr
			if err := w.fragElem(in.Space, addr, buf, false); err != nil {
				return err
			}
			if !values {
				continue
			}
			var v uint64
			for b := int(elemBytes) - 1; b >= 0; b-- {
				v = v<<8 | uint64(buf[b])
			}
			// Signed integer operands live in registers as s32 values.
			if elemBytes == 1 && (m.Elem == wmma.S8 || m.Elem == wmma.S4) {
				v = uint64(uint32(int32(int8(v))))
			}
			w.setReg(lane, in.Dst[slot], v)
		}
		sp, _ := w.Env.resolveSpace(in.Space, addrs[0])
		batched = w.emitFragAccesses(res, batched, lane, addrs, m.Elem.Bits(), sp, false)
	}
	return nil
}

func (w *Warp) execWmmaStore(d *DInstr, res *Result) error {
	in := d.In
	m := in.WMap
	base, err := w.uniformOperand(d, 0)
	if err != nil {
		return err
	}
	if w.execFragShape(d, res, base, true) {
		return nil
	}
	stride, err := w.uniformOperand(d, 1)
	if err != nil {
		return err
	}
	elemBytes := uint64(d.membytes)
	buf := w.membuf[:elemBytes]
	batched := !w.legacy
	// A skipped store reads no fragment register and writes nothing: its
	// element moves into the scratch buffer, for the bounds check alone.
	values := !w.valueFree(d)
	for lane := 0; lane < 32; lane++ {
		if !w.laneEnabled(lane, in) {
			continue
		}
		addrs := w.laneAddrs(len(m.Lanes[lane]))
		for slot, c := range m.Lanes[lane] {
			off := memOffsetFor(m, c, int(stride))
			addr := base + uint64(off)*elemBytes
			addrs[slot] = addr
			if values {
				v := w.operand(lane, &in.Src[2+slot])
				for b := range buf {
					buf[b] = byte(v >> (8 * b))
				}
			}
			if err := w.fragElem(in.Space, addr, buf, values); err != nil {
				return err
			}
		}
		sp, _ := w.Env.resolveSpace(in.Space, addrs[0])
		batched = w.emitFragAccesses(res, batched, lane, addrs, m.Elem.Bits(), sp, true)
	}
	return nil
}

// fragElem moves one fragment element between buf and memory on the
// per-lane path, with the bounds check of the shared window (sharedSpan)
// ahead of the copy: an element that starts inside the window and ends
// outside it is an error, not a slice panic.
func (w *Warp) fragElem(space Space, addr uint64, buf []byte, store bool) error {
	sp, a := w.Env.resolveSpace(space, addr)
	switch {
	case sp != Shared && store:
		w.Env.Global.Write(a, buf)
	case sp != Shared:
		w.Env.Global.Read(a, buf)
	default:
		if err := w.sharedSpan(a, uint64(len(buf))); err != nil {
			return err
		}
		if store {
			copy(w.Env.Shared[a:], buf)
		} else {
			copy(buf, w.Env.Shared[a:])
		}
	}
	return nil
}

// memOffsetFor computes the element offset of coord c in a tile stored
// with the mapping's layout and leading dimension ld.
func memOffsetFor(m *wmma.Mapping, c wmma.Coord, ld int) int {
	if m.Layout == tensor.RowMajor {
		return c.Row*ld + c.Col
	}
	return c.Col*ld + c.Row
}

func (w *Warp) execWmmaMMA(d *DInstr) error {
	in := d.In
	cfg := in.WConfig
	nA := int(d.fragA)
	nB := int(d.fragB)
	if w.fragVec(d) && d.wA != nil && d.wB != nil && d.wC != nil && d.wD != nil {
		return w.execWmmaMMAVec(d, nA, nB)
	}
	aTile := w.gatherTile(in, in.WMapA, 0, cfg.AType, 0)
	bTile := w.gatherTile(in, in.WMapB, nA, cfg.AType, 1)
	cTile := w.gatherTile(in, in.WMap, nA+nB, cfg.CType, 2)
	dTile := w.scratchTile(cfg.Shape.M, cfg.Shape.N, 3)
	if err := wmma.MMAInto(cfg, aTile, bTile, cTile, dTile); err != nil {
		return err
	}
	w.scatterTile(in, in.WMapD, cfg.DType, dTile)
	return nil
}

// scatterTile writes a result tile into the destination fragment
// registers via the mapping.
func (w *Warp) scatterTile(in *Instr, m *wmma.Mapping, elem wmma.Precision, t *tensor.Matrix) {
	for lane := 0; lane < 32; lane++ {
		if !w.laneEnabled(lane, in) {
			continue
		}
		for slot, c := range m.Lanes[lane] {
			w.setReg(lane, in.Dst[slot], wmma.EncodeElem(elem, t.At(c.Row, c.Col)))
		}
	}
}

// scratchTile returns the warp's reusable slot-th tile matrix, reallocated
// when the shape changes. Safe only when the caller overwrites every
// element; a partially active warp falls back to a fresh zeroed matrix in
// gatherTile.
func (w *Warp) scratchTile(rows, cols, slot int) *tensor.Matrix {
	t := w.tiles[slot]
	if t == nil || t.Rows != rows || t.Cols != cols {
		t = tensor.New(rows, cols, tensor.RowMajor)
		w.tiles[slot] = t
	}
	return t
}

// gatherTile reconstructs an operand tile from fragment registers. For
// Volta A/B every element exists in two lanes holding identical values;
// either copy serves. A fully active warp covers every tile element, so
// the reusable scratch tile needs no clearing between instructions.
func (w *Warp) gatherTile(in *Instr, m *wmma.Mapping, srcOff int, elem wmma.Precision, slot int) *tensor.Matrix {
	rows, cols := m.Shape.Dims(m.Op)
	var t *tensor.Matrix
	if w.nLanes == 32 && in.Pred == nil {
		t = w.scratchTile(rows, cols, slot)
	} else {
		t = tensor.New(rows, cols, tensor.RowMajor)
	}
	for lane := 0; lane < 32; lane++ {
		if !w.laneEnabled(lane, in) {
			continue
		}
		for slot, c := range m.Lanes[lane] {
			bits := w.operand(lane, &in.Src[srcOff+slot])
			t.Set(c.Row, c.Col, wmma.DecodeElem(elem, bits))
		}
	}
	return t
}

// cuda4BitBytes returns the device storage bytes of one fragment element:
// sub-byte types (s4/u4) are stored one element per byte in this model.
func cuda4BitBytes(p wmma.Precision) int {
	b := p.Bits() / 8
	if b == 0 {
		b = 1
	}
	return b
}
