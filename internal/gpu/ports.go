package gpu

import "repro/internal/ptx"

// unit names the execution-unit port an instruction issues on.
type unit uint8

const (
	// unitNone: no port to wait for — control ops, loads and stores (LSU
	// queueing lives in mem.SMPort) and a warp with no instruction left.
	unitNone   unit = iota
	unitTensor      // wmma.mma
	unitALU
	unitSFU
	numUnits
)

// unitOf maps a decoded execution class to the port it issues on.
//
//simlint:hotpath
func unitOf(c ptx.DClass) unit {
	switch c {
	case ptx.DClassALU:
		return unitALU
	case ptx.DClassSFU:
		return unitSFU
	case ptx.DClassWmmaMMA:
		return unitTensor
	}
	return unitNone
}

// unitPorts is a sub-core's structural unit availability: freeAt[u] is
// the next cycle unit u accepts an instruction (never set for unitNone),
// written by issue with the initiation interval of the one it just took.
// tryWarp screens against it, and the sub-core's per-unit waiting masks
// are keyed by it: a unit busy at now takes every warp waiting for it out
// of issue selection at once (subcore.candidates).
type unitPorts struct {
	freeAt [numUnits]uint64
}
