// Package tensor provides small host-side dense matrices used to build
// workloads for the simulated GPU and to verify results.
//
// Matrices store float64 elements regardless of the device-side precision;
// binary16 and int8 device data are exactly representable in float64, so the
// host copy can serve as the golden reference for every precision mode the
// tensor cores support.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Layout selects the in-memory order of matrix elements, mirroring the
// "row"/"col" layout qualifiers of the wmma PTX instructions.
type Layout int

const (
	// RowMajor stores elements of one row contiguously.
	RowMajor Layout = iota
	// ColMajor stores elements of one column contiguously.
	ColMajor
)

// String returns the PTX qualifier spelling of the layout.
func (l Layout) String() string {
	if l == RowMajor {
		return "row"
	}
	return "col"
}

// Matrix is a dense rows×cols matrix with an explicit layout and leading
// dimension (stride), matching how tiles of larger matrices are addressed by
// wmma.load/wmma.store.
type Matrix struct {
	Rows, Cols int
	Layout     Layout
	// Stride is the leading dimension: the element distance between
	// consecutive rows (RowMajor) or columns (ColMajor).
	Stride int
	Data   []float64
}

// New returns a zeroed rows×cols matrix with a tight stride.
func New(rows, cols int, layout Layout) *Matrix {
	stride := cols
	if layout == ColMajor {
		stride = rows
	}
	return &Matrix{
		Rows:   rows,
		Cols:   cols,
		Layout: layout,
		Stride: stride,
		Data:   make([]float64, rows*cols),
	}
}

// Index returns the linear offset of element (i, j).
func (m *Matrix) Index(i, j int) int {
	if m.Layout == RowMajor {
		return i*m.Stride + j
	}
	return j*m.Stride + i
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[m.Index(i, j)] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[m.Index(i, j)] = v }

// FillFunc sets every element (i, j) to f(i, j).
func (m *Matrix) FillFunc(f func(i, j int) float64) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			m.Set(i, j, f(i, j))
		}
	}
}

// FillConst sets every element to v.
func (m *Matrix) FillConst(v float64) { m.FillFunc(func(int, int) float64 { return v }) }

// FillSequential assigns each element a distinct small value, i*Cols+j+1,
// scaled by 1/64 so products stay exactly representable in binary16 for
// small matrices. Distinct values are what the paper's Figure 4
// microbenchmark relies on to decode fragment-to-thread mappings.
func (m *Matrix) FillSequential() {
	m.FillFunc(func(i, j int) float64 { return float64(i*m.Cols+j+1) / 64 })
}

// FillRandomFP16 fills the matrix with random values that are exactly
// representable in binary16: multiples of 1/32 in [-4, 4).
func (m *Matrix) FillRandomFP16(rng *rand.Rand) {
	m.FillFunc(func(int, int) float64 { return float64(rng.Intn(256)-128) / 32 })
}

// FillRandomInt fills the matrix with random integers in [lo, hi].
func (m *Matrix) FillRandomInt(rng *rand.Rand, lo, hi int) {
	m.FillFunc(func(int, int) float64 { return float64(lo + rng.Intn(hi-lo+1)) })
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := *m
	c.Data = append([]float64(nil), m.Data...)
	return &c
}

// Reinterpret returns a copy of m converted to the given layout (same
// logical element values, different memory order).
func (m *Matrix) Reinterpret(layout Layout) *Matrix {
	out := New(m.Rows, m.Cols, layout)
	out.FillFunc(m.At)
	return out
}

// Transpose returns mᵀ in the same layout as m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows, m.Layout)
	out.FillFunc(func(i, j int) float64 { return m.At(j, i) })
	return out
}

// Sub returns a copy of the rows×cols sub-matrix of m whose upper-left
// corner is (r0, c0).
func (m *Matrix) Sub(r0, c0, rows, cols int) *Matrix {
	out := New(rows, cols, m.Layout)
	out.FillFunc(func(i, j int) float64 { return m.At(r0+i, c0+j) })
	return out
}

// Gemm computes D = A×B + C in float64 and returns D in the given layout.
// Panics if dimensions are inconsistent; this is the golden reference for
// every GEMM in the repository.
func Gemm(a, b, c *Matrix, layout Layout) *Matrix {
	if a.Cols != b.Rows || a.Rows != c.Rows || b.Cols != c.Cols {
		panic(fmt.Sprintf("tensor: Gemm shape mismatch A %dx%d B %dx%d C %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	d := New(a.Rows, b.Cols, layout)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			acc := c.At(i, j)
			for k := 0; k < a.Cols; k++ {
				acc += a.At(i, k) * b.At(k, j)
			}
			d.Set(i, j, acc)
		}
	}
	return d
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b, which must have identical logical dimensions.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var max float64
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if d := math.Abs(a.At(i, j) - b.At(i, j)); d > max {
				max = d
			}
		}
	}
	return max
}

// Equal reports whether a and b agree elementwise within tol.
func Equal(a, b *Matrix, tol float64) bool { return MaxAbsDiff(a, b) <= tol }
