package ptx

import "fmt"

// Functional (timing-free) execution of whole CTAs and grids, used to
// validate kernels independently of the cycle-level simulator — the same
// role GPGPU-Sim's pure functional mode plays.

// RunCTA executes one CTA to completion, scheduling warps round-robin one
// instruction at a time and releasing barriers when every live warp has
// arrived.
func RunCTA(k *Kernel, env *Env, args []uint64) error {
	nWarps := (env.BlockDim.Count() + 31) / 32
	warps := make([]*Warp, nWarps)
	for i := range warps {
		w, err := NewWarp(k, env, i, args)
		if err != nil {
			return err
		}
		warps[i] = w
	}
	steps := 0
	if env.Clock == nil {
		env.Clock = func() uint64 { return uint64(steps) }
	}
	limit := 500_000_000 // runaway-kernel guard
	for {
		progress := false
		allDone := true
		for _, w := range warps {
			if w.Exited {
				continue
			}
			allDone = false
			if w.AtBarrier {
				continue
			}
			if _, err := w.Step(); err != nil {
				return fmt.Errorf("ptx: warp %d: %w", w.ID, err)
			}
			progress = true
			steps++
			if steps > limit {
				return fmt.Errorf("ptx: kernel %s exceeded %d steps", k.Name, limit)
			}
		}
		if allDone {
			return nil
		}
		if !progress {
			// Everyone alive is at the barrier: release it.
			waiting := 0
			for _, w := range warps {
				if !w.Exited && w.AtBarrier {
					waiting++
				}
			}
			if waiting == 0 {
				return fmt.Errorf("ptx: kernel %s deadlocked", k.Name)
			}
			for _, w := range warps {
				w.AtBarrier = false
			}
		}
	}
}

// RunGrid executes every CTA of a grid sequentially against the same
// global memory, giving each CTA a fresh shared-memory window.
func RunGrid(k *Kernel, global Memory, grid, block Dim3, args []uint64) error {
	if err := CheckLaunch(grid, block); err != nil {
		return fmt.Errorf("ptx: %w", err)
	}
	for z := 0; z < grid.Z; z++ {
		for y := 0; y < grid.Y; y++ {
			for x := 0; x < grid.X; x++ {
				env := &Env{
					Global:   global,
					Shared:   make([]byte, k.SharedBytes),
					GridDim:  grid,
					BlockDim: block,
					CtaID:    Dim3{x, y, z},
				}
				if err := RunCTA(k, env, args); err != nil {
					return fmt.Errorf("cta (%d,%d,%d): %w", x, y, z, err)
				}
			}
		}
	}
	return nil
}

// FlatMemory is a simple Memory backed by a byte slice, for tests and
// functional runs.
type FlatMemory struct{ Data []byte }

// NewFlatMemory allocates an n-byte flat memory.
func NewFlatMemory(n int) *FlatMemory { return &FlatMemory{Data: make([]byte, n)} }

// Read copies len(buf) bytes at addr into buf.
func (m *FlatMemory) Read(addr uint64, buf []byte) { copy(buf, m.Data[addr:]) }

// Write copies data into memory at addr.
func (m *FlatMemory) Write(addr uint64, data []byte) { copy(m.Data[addr:], data) }
