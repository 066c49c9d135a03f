// Package cuda is the thin runtime layer between host code and the
// simulated GPU — the analog of the CUDA runtime API calls the paper had
// to add to GPGPU-Sim to run CUTLASS. It provides device-memory
// allocation, host↔device transfers of typed matrices, and kernel launch
// onto the timing simulator (or a fast functional run).
package cuda

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/fp16"
	"repro/internal/gpu"
	"repro/internal/ptx"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// DeviceMemory is a growable flat device memory.
type DeviceMemory struct {
	data []byte
	brk  uint64
}

// NewDeviceMemory allocates an empty device memory.
func NewDeviceMemory() *DeviceMemory { return &DeviceMemory{} }

// Read implements ptx.Memory. Bytes past the image read as zero and the
// image does not grow: a wild address must not allocate its whole span.
func (m *DeviceMemory) Read(addr uint64, buf []byte) {
	n := 0
	if addr < uint64(len(m.data)) {
		n = copy(buf, m.data[addr:])
	}
	clear(buf[n:])
}

// Write implements ptx.Memory; the image grows to cover the bytes.
func (m *DeviceMemory) Write(addr uint64, data []byte) {
	m.ensure(addr + uint64(len(data)))
	copy(m.data[addr:], data)
}

func (m *DeviceMemory) ensure(n uint64) {
	if uint64(len(m.data)) >= n {
		return
	}
	grown := make([]byte, max(n, uint64(len(m.data))*2+4096))
	copy(grown, m.data)
	m.data = grown
}

// Malloc reserves n bytes and returns the (256-byte aligned) device
// address, like cudaMalloc.
func (m *DeviceMemory) Malloc(n int) uint64 {
	addr := (m.brk + 255) &^ 255
	m.brk = addr + uint64(n)
	m.ensure(m.brk)
	return addr
}

// Device couples a simulator with a device memory.
type Device struct {
	Sim *gpu.Simulator
	Mem *DeviceMemory
	// MaxCycles bounds every Launch on this device (0 = the simulator's
	// generous backstop) — the watchdog that reaps runaway kernels.
	MaxCycles uint64
}

// NewDevice builds a device for the GPU configuration.
func NewDevice(cfg gpu.Config) (*Device, error) {
	sim, err := gpu.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Device{Sim: sim, Mem: NewDeviceMemory()}, nil
}

// MustNewDevice is NewDevice but panics on error.
func MustNewDevice(cfg gpu.Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// ElemBytes returns the device storage size of one element. Sub-byte
// types (s4/u4) are stored one element per byte in this model; the timing
// side still charges their architectural bit width.
func ElemBytes(p wmma.Precision) int {
	b := p.Bits() / 8
	if b == 0 {
		b = 1
	}
	return b
}

// MallocMatrix reserves device space for a rows×cols matrix of the given
// precision (tight stride).
func (d *Device) MallocMatrix(rows, cols int, p wmma.Precision) uint64 {
	return d.Mem.Malloc(rows * cols * ElemBytes(p))
}

// WriteMatrix encodes a host matrix into device memory at addr using the
// matrix's layout and stride.
func (d *Device) WriteMatrix(addr uint64, m *tensor.Matrix, p wmma.Precision) {
	eb := uint64(ElemBytes(p))
	var buf [4]byte
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			encodeInto(buf[:eb], p, m.At(i, j))
			d.Mem.Write(addr+eb*uint64(m.Index(i, j)), buf[:eb])
		}
	}
}

// UploadMatrix allocates device space for m and writes it; returns the
// device address.
func (d *Device) UploadMatrix(m *tensor.Matrix, p wmma.Precision) uint64 {
	addr := d.MallocMatrix(m.Rows, m.Cols, p)
	d.WriteMatrix(addr, m, p)
	return addr
}

// ReadMatrix decodes a rows×cols device matrix at addr into a host matrix
// with the given layout (tight stride).
func (d *Device) ReadMatrix(addr uint64, rows, cols int, layout tensor.Layout, p wmma.Precision) *tensor.Matrix {
	m := tensor.New(rows, cols, layout)
	eb := uint64(ElemBytes(p))
	var buf [4]byte
	m.FillFunc(func(i, j int) float64 {
		d.Mem.Read(addr+eb*uint64(m.Index(i, j)), buf[:eb])
		return decodeFrom(buf[:eb], p)
	})
	return m
}

func encodeInto(buf []byte, p wmma.Precision, v float64) {
	switch p {
	case wmma.F16:
		binary.LittleEndian.PutUint16(buf, fp16.FromFloat64(v).Bits())
	case wmma.F32:
		binary.LittleEndian.PutUint32(buf, math.Float32bits(float32(v)))
	case wmma.S32:
		binary.LittleEndian.PutUint32(buf, uint32(int32(v)))
	case wmma.S8, wmma.U8, wmma.S4, wmma.U4:
		buf[0] = byte(wmma.QuantizeInt(p, v))
	default:
		panic(fmt.Sprintf("cuda: unsupported element type %v", p))
	}
}

func decodeFrom(buf []byte, p wmma.Precision) float64 {
	switch p {
	case wmma.F16:
		return fp16.FromBits(binary.LittleEndian.Uint16(buf)).Float64()
	case wmma.F32:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(buf)))
	case wmma.S32:
		return float64(int32(binary.LittleEndian.Uint32(buf)))
	case wmma.S8, wmma.S4:
		return float64(int8(buf[0]))
	case wmma.U8, wmma.U4:
		return float64(buf[0])
	default:
		panic(fmt.Sprintf("cuda: unsupported element type %v", p))
	}
}

// Launch runs a kernel on the timing simulator.
func (d *Device) Launch(k *ptx.Kernel, grid, block ptx.Dim3, args ...uint64) (*gpu.Stats, error) {
	return d.Sim.Run(gpu.LaunchSpec{Kernel: k, Grid: grid, Block: block, Args: args, Global: d.Mem,
		MaxCycles: d.MaxCycles})
}

// LaunchSpec runs a fully specified launch (sampling, tracing) on the
// timing simulator.
func (d *Device) LaunchSpec(spec gpu.LaunchSpec) (*gpu.Stats, error) {
	spec.Global = d.Mem
	return d.Sim.Run(spec)
}

// RunFunctional executes the kernel functionally (no timing) — fast path
// for correctness tests of large kernel sweeps.
func (d *Device) RunFunctional(k *ptx.Kernel, grid, block ptx.Dim3, args ...uint64) error {
	return ptx.RunGrid(k, d.Mem, grid, block, args)
}
