package wmma

import (
	"fmt"

	"repro/internal/tensor"
)

// Volta fragment-to-thread mappings (Figure 7 of the paper).
//
// The warp's eight threadgroups are assigned 4×16 segments of A, 16×4
// segments of B and 4×8 segments of C. Every A and B element is loaded by
// exactly two threadgroups — that redundancy is what lets each *octet*
// (threadgroup pair X, X+4) compute its 8×8 slice of the result without
// communicating with the other octets (Section III-E, Table II).

// voltaARowBase maps a threadgroup to the first of the four A rows its
// segment covers. Figure 7a: rows 0–3 are loaded by threadgroups 0 and 2,
// rows 4–7 by 4 and 6, rows 8–11 by 1 and 3, rows 12–15 by 5 and 7.
var voltaARowBase = [NumThreadgroups]int{
	0: 0, 2: 0,
	4: 4, 6: 4,
	1: 8, 3: 8,
	5: 12, 7: 12,
}

// voltaBColBase maps a threadgroup to the first of the four B columns its
// segment covers, derived from the octet composition of Table II: octet X
// = {X, X+4}; octets 0 and 1 read B columns 0–7 (threadgroups 0,1 take 0–3
// and 4,5 take 4–7) and octets 2 and 3 read columns 8–15.
var voltaBColBase = [NumThreadgroups]int{
	0: 0, 1: 0,
	4: 4, 5: 4,
	2: 8, 3: 8,
	6: 12, 7: 12,
}

// voltaCBase maps a threadgroup to the top-left corner of its 4×8 C
// segment (Figure 7b: row blocks 0,4,8,12 × column halves 0,8).
var voltaCBase = [NumThreadgroups]Coord{
	0: {0, 0}, 2: {0, 8},
	4: {4, 0}, 6: {4, 8},
	1: {8, 0}, 3: {8, 8},
	5: {12, 0}, 7: {12, 8},
}

func voltaMap(shape Shape, op Operand, layout tensor.Layout, elem Precision) (*Mapping, error) {
	if shape != M16N16K16 {
		return nil, fmt.Errorf("wmma: volta supports only %v, got %v", M16N16K16, shape)
	}
	m := &Mapping{Arch: Volta, Shape: shape, Op: op, Layout: layout, Elem: elem}
	switch op {
	case MatrixA:
		if elem != F16 {
			return nil, fmt.Errorf("wmma: volta A must be f16")
		}
		voltaFillAB(m, layout == tensor.RowMajor, func(slice, k int) Coord {
			return Coord{Row: slice, Col: k} // A: the 16-long direction is K, along a row
		}, voltaARowBase)
	case MatrixB:
		if elem != F16 {
			return nil, fmt.Errorf("wmma: volta B must be f16")
		}
		// The paper: the distribution for B in column-major layout equals
		// the distribution for A in row-major layout and vice versa.
		voltaFillAB(m, layout == tensor.ColMajor, func(slice, k int) Coord {
			return Coord{Row: k, Col: slice} // B: the 16-long direction is K, down a column
		}, voltaBColBase)
	case MatrixC:
		switch elem {
		case F16:
			voltaFillC16(m)
		case F32:
			voltaFillC32(m)
		default:
			return nil, fmt.Errorf("wmma: volta C must be f16 or f32, got %v", elem)
		}
	}
	return m.validateCoverage(), nil
}

// voltaFillAB fills the mapping for A or B. Each threadgroup covers four
// "slices" (rows of A / columns of B) starting at base[tg], each 16
// elements long in the K direction.
//
// When the 16-element direction is contiguous in memory (A row-major, B
// column-major), each lane holds one entire slice: 16 consecutive
// elements fetched with two 128-bit loads (Figure 7a ②).
//
// Otherwise (A column-major, B row-major) lane k of the threadgroup holds
// four 4-element blocks at K positions k, k+4, k+8 and k+12; each block
// runs across the segment's four slices, which are the contiguous
// direction in memory, so the blocks are fetched with four 64-bit loads
// spaced 64 elements apart (Figure 7a ③).
//
//simlint:ctor
func voltaFillAB(m *Mapping, contiguous bool, at func(slice, k int) Coord, base [NumThreadgroups]int) {
	for lane := 0; lane < WarpSize; lane++ {
		tg := ThreadgroupOf(lane)
		k := lane % ThreadgroupSize
		var frag []Coord
		if contiguous {
			// Lane k holds slice base+k entirely: elements 0..15.
			slice := base[tg] + k
			for e := 0; e < 16; e++ {
				frag = append(frag, at(slice, e))
			}
		} else {
			// Lane k holds, for each block b, the four consecutive
			// elements that run across the segment's four slices at K
			// position k+4b.
			for b := 0; b < 4; b++ {
				kk := k + 4*b
				for s := 0; s < 4; s++ {
					frag = append(frag, at(base[tg]+s, kk))
				}
			}
		}
		m.Lanes[lane] = frag
	}
}

// voltaFillC32 fills the mixed-precision (FP32 accumulator) C mapping.
// Each HMMA step writes one register pair (two fp32 values) per lane; the
// four steps of a set cover the threadgroup's 4×8 segment as four 2×4
// quarters (Figure 10b). Within a step, lane k holds the two rows of
// column k of the quarter, so slots (2s, 2s+1) are rows (+0, +1) of
// column quarterColBase+k.
//
//simlint:ctor
func voltaFillC32(m *Mapping) {
	for lane := 0; lane < WarpSize; lane++ {
		tg := ThreadgroupOf(lane)
		k := lane % ThreadgroupSize
		b := voltaCBase[tg]
		var frag []Coord
		for step := 0; step < 4; step++ {
			rowOff := 2 * (step % 2)
			colOff := 4 * (step / 2)
			frag = append(frag,
				Coord{b.Row + rowOff, b.Col + colOff + k},
				Coord{b.Row + rowOff + 1, b.Col + colOff + k},
			)
		}
		m.Lanes[lane] = frag
	}
}

// voltaFillC16 fills the FP16-accumulator C mapping. The two HMMA steps of
// a set each write one register pair (four fp16 values) per lane; lane k
// holds row base+k of the threadgroup's 4×8 segment, split into the two
// 4-element halves the two steps produce (Figure 10c).
//
//simlint:ctor
func voltaFillC16(m *Mapping) {
	for lane := 0; lane < WarpSize; lane++ {
		tg := ThreadgroupOf(lane)
		k := lane % ThreadgroupSize
		b := voltaCBase[tg]
		var frag []Coord
		for col := 0; col < 8; col++ {
			frag = append(frag, Coord{b.Row + k, b.Col + col})
		}
		m.Lanes[lane] = frag
	}
}

// Octet is a pair of threadgroups {X, X+4} that cooperates on an 8×8 slice
// of the result; octets work independently of each other (Section III-E).
type Octet struct {
	ID           int
	Threadgroups [2]int
	// Inclusive element ranges of the operand tiles the octet reads,
	// exactly as printed in Table II.
	ARows, ACols [2]int
	BRows, BCols [2]int
	// The 8×8 accumulator slice the octet produces.
	CRows, CCols [2]int
}

// Octets returns the four Volta octets of Table II.
func Octets() [4]Octet {
	var out [4]Octet
	for x := 0; x < 4; x++ {
		o := Octet{
			ID:           x,
			Threadgroups: [2]int{x, x + 4},
			ACols:        [2]int{0, 15},
			BRows:        [2]int{0, 15},
		}
		if x == 0 || x == 2 {
			o.ARows = [2]int{0, 7}
		} else {
			o.ARows = [2]int{8, 15}
		}
		if x == 0 || x == 1 {
			o.BCols = [2]int{0, 7}
		} else {
			o.BCols = [2]int{8, 15}
		}
		o.CRows = o.ARows
		o.CCols = o.BCols
		out[x] = o
	}
	return out
}

// OctetOf returns the octet id of a threadgroup: X for threadgroups X and
// X+4 (octet X = threadgroup X ∪ threadgroup X+4).
func OctetOf(tg int) int { return tg % 4 }
