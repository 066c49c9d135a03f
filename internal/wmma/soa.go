package wmma

// SlotVecs is the struct-of-arrays view of a Mapping: where Lanes lists
// each lane's coordinates in slot order (array-of-structs), SlotVecs
// holds, for each fragment slot, the warp's 32 row and column indices as
// one vector. The batched fragment path of internal/ptx walks slots in
// the outer loop and lanes in a tight inner loop, so the per-element
// coordinate-slice chasing of the per-lane path disappears.
//
// The view is only defined when every lane holds the same number of
// slots (Uniform); the standard Volta and Turing mappings all do, and
// the executor falls back to the per-lane path otherwise.
// Like Mapping the view is shared read-only across simulators, so the
// type is frozen outside its builder.
type SlotVecs struct {
	// Slots is the fragment length shared by all lanes.
	Slots int
	// Uniform reports whether every lane holds exactly Slots coordinates.
	// When false, Row and Col are nil and the view is unusable.
	Uniform bool
	// Row[slot][lane] and Col[slot][lane] are the tile coordinates of the
	// element the lane holds in that slot.
	Row, Col [][WarpSize]int16
}

// SlotVecs builds the struct-of-arrays view of the mapping. The result
// is freshly allocated and immutable by convention; callers that need it
// per static instruction (the decoded-instruction cache) build it once
// at decode time.
func (m *Mapping) SlotVecs() *SlotVecs {
	v := &SlotVecs{Slots: len(m.Lanes[0]), Uniform: true}
	for lane := range m.Lanes {
		if len(m.Lanes[lane]) != v.Slots {
			v.Uniform = false
			return v
		}
	}
	v.Row = make([][WarpSize]int16, v.Slots)
	v.Col = make([][WarpSize]int16, v.Slots)
	for lane := range m.Lanes {
		for slot, c := range m.Lanes[lane] {
			v.Row[slot][lane] = int16(c.Row)
			v.Col[slot][lane] = int16(c.Col)
		}
	}
	return v
}
