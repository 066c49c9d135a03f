package wmma

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/tensor"
)

// WarpSize is the number of threads in a warp; all WMMA operations are
// warp-wide.
const WarpSize = 32

// ThreadgroupSize is the number of consecutive threads in a threadgroup,
// the unit Jia et al. and the paper use to describe fragment distribution.
const ThreadgroupSize = 4

// NumThreadgroups is the number of threadgroups in a warp.
const NumThreadgroups = WarpSize / ThreadgroupSize

// ThreadgroupOf returns the threadgroup id of a lane: ⌊lane/4⌋.
func ThreadgroupOf(lane int) int { return lane / ThreadgroupSize }

// Coord addresses one element of an operand tile.
type Coord struct{ Row, Col int }

// Mapping records, for one operand tile under one configuration, exactly
// which tile elements each lane of the warp holds and in what order. The
// slot order is the order of the fragment's storage (a_frag.x[i] in the
// CUDA API), which is also the order wmma.load fills registers.
// Mappings are shared read-only by the decoded-instruction caches of
// concurrent simulators, so the type is frozen: only the per-arch fill
// constructors may write its fields.
//
//simlint:frozen
type Mapping struct {
	Arch   Arch
	Shape  Shape
	Op     Operand
	Layout tensor.Layout
	Elem   Precision
	// Lanes[lane] lists the coordinates held by that lane, in slot order.
	Lanes [WarpSize][]Coord
}

// Map returns the fragment-to-thread mapping for the given operand. The C
// mapping is layout independent (the layout argument is ignored for C on
// Volta, matching the paper's observation); elem selects the precision
// variant where the architecture distinguishes them (Volta C in F16 vs F32
// mode). A mapping is a fixed property of its identity (these five
// arguments), so each is built and validated once, on first use, and every
// later call returns the same read-only *Mapping.
func Map(arch Arch, shape Shape, op Operand, layout tensor.Layout, elem Precision) (*Mapping, error) {
	i, err := identity(arch, shape, op, layout, elem)
	if err != nil {
		return nil, err
	}
	e := &mappings[i]
	e.once.Do(func() {
		if arch == Turing {
			e.m = turingMap(shape, op, layout, elem)
		} else {
			e.m, e.err = voltaMap(shape, op, layout, elem)
		}
	})
	return e.m, e.err
}

// NumIdentities bounds Mapping.Identity: arch × shape × operand × layout ×
// precision.
const NumIdentities = 2 * len(shapes) * 3 * 2 * 7

var shapes = [...]Shape{M16N16K16, M32N8K16, M8N32K16, M8N8K32}

// mappings holds Map's result per identity.
var mappings [NumIdentities]struct {
	once sync.Once
	m    *Mapping
	err  error
}

// identity returns the slot of a mapping identity in mappings.
func identity(arch Arch, shape Shape, op Operand, layout tensor.Layout, elem Precision) (int, error) {
	s := slices.Index(shapes[:], shape)
	if arch < Volta || arch > Turing || s < 0 || op < MatrixA || op > MatrixC ||
		layout < tensor.RowMajor || layout > tensor.ColMajor || elem < F16 || elem > S32 {
		return 0, fmt.Errorf("wmma: no %v %v %v mapping in layout %d, precision %v", arch, shape, op, int(layout), elem)
	}
	return (((int(arch)*len(shapes)+s)*3+int(op))*2+int(layout))*7 + int(elem), nil
}

// Identity returns m's slot in [0, NumIdentities), or -1 when m is not the
// mapping Map returns for its identity (a hand-built one, or a copy).
func (m *Mapping) Identity() int {
	i, err := identity(m.Arch, m.Shape, m.Op, m.Layout, m.Elem)
	if im, _ := Map(m.Arch, m.Shape, m.Op, m.Layout, m.Elem); err != nil || im != m {
		return -1
	}
	return i
}

// MustMap is Map but panics on error; for use with known-valid parameters.
func MustMap(arch Arch, shape Shape, op Operand, layout tensor.Layout, elem Precision) *Mapping {
	m, err := Map(arch, shape, op, layout, elem)
	if err != nil {
		panic(err)
	}
	return m
}

// FragmentLen returns the number of elements each lane holds.
func (m *Mapping) FragmentLen() int { return len(m.Lanes[0]) }

// LoadCounts returns how many lanes hold each tile element. The paper's
// key observations are encoded here: every A/B element is held by exactly
// two lanes on Volta and exactly one lane on Turing; C elements are always
// held by exactly one lane.
func (m *Mapping) LoadCounts() map[Coord]int {
	counts := make(map[Coord]int)
	for lane := range m.Lanes {
		for _, c := range m.Lanes[lane] {
			counts[c]++
		}
	}
	return counts
}

// LanesHolding returns the sorted list of lanes whose fragment contains the
// element at (row, col).
func (m *Mapping) LanesHolding(row, col int) []int {
	var out []int
	for lane := range m.Lanes {
		for _, c := range m.Lanes[lane] {
			if c.Row == row && c.Col == col {
				out = append(out, lane)
				break
			}
		}
	}
	return out
}

// ThreadgroupRegion returns the bounding box [rowLo,rowHi]×[colLo,colHi] of
// the elements held by threadgroup tg.
func (m *Mapping) ThreadgroupRegion(tg int) (rowLo, rowHi, colLo, colHi int) {
	first := true
	for lane := tg * ThreadgroupSize; lane < (tg+1)*ThreadgroupSize; lane++ {
		for _, c := range m.Lanes[lane] {
			if first {
				rowLo, rowHi, colLo, colHi = c.Row, c.Row, c.Col, c.Col
				first = false
				continue
			}
			if c.Row < rowLo {
				rowLo = c.Row
			}
			if c.Row > rowHi {
				rowHi = c.Row
			}
			if c.Col < colLo {
				colLo = c.Col
			}
			if c.Col > colHi {
				colHi = c.Col
			}
		}
	}
	return
}

// memOffset returns the element offset of c in a tile stored with the
// mapping's layout and the given leading dimension.
func (m *Mapping) memOffset(c Coord, ld int) int {
	if m.Layout == tensor.RowMajor {
		return c.Row*ld + c.Col
	}
	return c.Col*ld + c.Row
}

// LaneRuns returns, for the given lane, the maximal runs of slots whose
// memory addresses are consecutive under the mapping's layout with leading
// dimension ld. Each run is reported as its length in elements. This is
// what determines how wmma.load decomposes into SASS loads: a run of 8
// 16-bit elements is one LD.E.128, a run of 4 is one LD.E.64, and single
// 32-bit elements become LD.E.SYS (Section III-C).
func (m *Mapping) LaneRuns(lane, ld int) []int {
	coords := m.Lanes[lane]
	if len(coords) == 0 {
		return nil
	}
	var runs []int
	run := 1
	for i := 1; i < len(coords); i++ {
		if m.memOffset(coords[i], ld) == m.memOffset(coords[i-1], ld)+1 {
			run++
			continue
		}
		runs = append(runs, run)
		run = 1
	}
	return append(runs, run)
}

// LoadWidthsBits returns the sorted distinct SASS load widths (in bits) a
// lane issues for its fragment, assuming maximal-width vectorized loads of
// at most 128 bits.
func (m *Mapping) LoadWidthsBits(ld int) []int {
	seen := make(map[int]bool)
	for _, run := range m.LaneRuns(0, ld) {
		bits := run * m.Elem.Bits()
		for bits > 128 {
			seen[128] = true
			bits -= 128
		}
		seen[bits] = true
	}
	var out []int
	//simlint:ordered set members are sorted below before returning
	for b := range seen {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// LoadInstructionCount returns how many SASS load instructions one lane
// issues for its fragment (runs split into ≤128-bit pieces).
func (m *Mapping) LoadInstructionCount(ld int) int {
	n := 0
	for _, run := range m.LaneRuns(0, ld) {
		bits := run * m.Elem.Bits()
		n += (bits + 127) / 128
	}
	return n
}

// Gather copies the fragment values for every lane out of the tile m
// describes. The returned slice is indexed [lane][slot].
func (m *Mapping) Gather(tile *tensor.Matrix) [][]float64 {
	out := make([][]float64, WarpSize)
	for lane := range m.Lanes {
		frag := make([]float64, len(m.Lanes[lane]))
		for slot, c := range m.Lanes[lane] {
			frag[slot] = tile.At(c.Row, c.Col)
		}
		out[lane] = frag
	}
	return out
}

// Scatter writes per-lane fragment values back into tile. Lanes that hold
// duplicate copies of an element (Volta A/B) must agree; Scatter writes in
// lane order so the highest lane wins, matching a register writeback where
// all copies carry the same value.
func (m *Mapping) Scatter(frags [][]float64, tile *tensor.Matrix) {
	for lane := range m.Lanes {
		for slot, c := range m.Lanes[lane] {
			tile.Set(c.Row, c.Col, frags[lane][slot])
		}
	}
}

// validateCoverage panics if the mapping does not cover every element of
// the operand tile; used by the constructors as an internal consistency
// check.
func (m *Mapping) validateCoverage() *Mapping {
	rows, cols := m.Shape.Dims(m.Op)
	counts := m.LoadCounts()
	if len(counts) != rows*cols {
		panic(fmt.Sprintf("wmma: %v %v mapping covers %d of %d elements",
			m.Arch, m.Op, len(counts), rows*cols))
	}
	for c := range counts {
		if c.Row < 0 || c.Row >= rows || c.Col < 0 || c.Col >= cols {
			panic(fmt.Sprintf("wmma: %v %v mapping has out-of-range coord %v", m.Arch, m.Op, c))
		}
	}
	return m
}
