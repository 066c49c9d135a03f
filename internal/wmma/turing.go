package wmma

import "repro/internal/tensor"

// Turing fragment-to-thread mappings (Figure 8 of the paper).
//
// Turing distributes operand elements more simply than Volta: every
// element is loaded exactly once, each "slice" (a row of A and C, a column
// of B) is loaded by a single threadgroup, and consecutive threadgroups
// load consecutive slices. Tiles with more than eight slices wrap around,
// so threadgroup g holds slices g, g+8, g+16, … Within a threadgroup the
// four lanes split each slice into four equal consecutive pieces.
// Both rectangular 16-bit tiles (32×8×16 and 8×32×16) use the same
// distribution rule, as the paper observes.

// turingMap builds the mapping of one of the shapes Map admits, all four
// of which Turing supports.
//
//simlint:ctor
func turingMap(shape Shape, op Operand, layout tensor.Layout, elem Precision) *Mapping {
	rows, cols := shape.Dims(op)

	// A and C distribute by row; B distributes by column.
	slices, sliceLen := rows, cols
	at := func(slice, e int) Coord { return Coord{Row: slice, Col: e} }
	if op == MatrixB {
		slices, sliceLen = cols, rows
		at = func(slice, e int) Coord { return Coord{Row: e, Col: slice} }
	}
	per := sliceLen / ThreadgroupSize

	m := &Mapping{Arch: Turing, Shape: shape, Op: op, Layout: layout, Elem: elem}
	for lane := 0; lane < WarpSize; lane++ {
		tg := ThreadgroupOf(lane)
		k := lane % ThreadgroupSize
		var frag []Coord
		for slice := tg; slice < slices; slice += NumThreadgroups {
			for e := k * per; e < (k+1)*per; e++ {
				frag = append(frag, at(slice, e))
			}
		}
		m.Lanes[lane] = frag
	}
	return m.validateCoverage()
}
