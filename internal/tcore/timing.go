package tcore

import (
	"fmt"

	"repro/internal/wmma"
)

// Timing models of the HMMA sequences, calibrated against the cumulative
// clock-cycle measurements the paper reports (Figure 9 for Volta, Table I
// for Turing, collected with the clock-patching microbenchmark of
// Figure 6: read %clock before the first and after the n-th HMMA).

// Timing is the measured/derived cycle behaviour of one wmma.mma's HMMA
// expansion.
type Timing struct {
	Arch        wmma.Arch
	Name        string
	StepsPerSet int
	// Cumulative[i] is the clock delta from just before HMMA 0 to just
	// after HMMA i completes.
	Cumulative []int
}

// NumHMMA returns the number of HMMA instructions in the sequence.
func (t Timing) NumHMMA() int { return len(t.Cumulative) }

// Total returns the cycles for the complete sequence — the latency the
// simulator charges a wmma.mma instruction in the tensor core unit.
func (t Timing) Total() int { return t.Cumulative[len(t.Cumulative)-1] }

// Delta returns the incremental cycles of HMMA i (Cumulative[i] -
// Cumulative[i-1]; Delta(0) is Cumulative[0]).
func (t Timing) Delta(i int) int {
	if i == 0 {
		return t.Cumulative[0]
	}
	return t.Cumulative[i] - t.Cumulative[i-1]
}

// SetCumulative returns the cumulative cycles at the end of each set —
// the quantity Table I tabulates for Turing.
func (t Timing) SetCumulative() []int {
	var out []int
	for i := t.StepsPerSet - 1; i < len(t.Cumulative); i += t.StepsPerSet {
		out = append(out, t.Cumulative[i])
	}
	return out
}

// PipeModel is the parametric HMMA sequencing model of Section IV: a
// four-deep FEDP pipeline issuing HMMAs back to back, with a longer delta
// on the last step of each set (the operand buffers refill with the next
// set's register pairs) and a drain when the final result becomes
// architecturally visible.
type PipeModel struct {
	First  int // cycles until HMMA 0's completion is observable
	Within int // delta between consecutive HMMAs in the middle of a set
	Tail   int // delta of the last step of a non-final set
	Cross  int // delta of the first step of sets 2..n
	Final  int // delta of the very last HMMA (pipeline drain)
	Sets   int
	Steps  int // steps per set
}

// Cumulative generates the cumulative cycle sequence of the model.
func (p PipeModel) Cumulative() []int {
	var out []int
	c := p.First
	n := p.Sets * p.Steps
	for i := 0; i < n; i++ {
		if i > 0 {
			switch {
			case i == n-1:
				c += p.Final
			case i%p.Steps == p.Steps-1:
				c += p.Tail
			case i%p.Steps == 0:
				c += p.Cross
			default:
				c += p.Within
			}
		}
		out = append(out, c)
	}
	return out
}

// VoltaMixedPipe is the parametric model whose output matches Figure 9a
// exactly: a 2-cycle initiation interval, 4 cycles into the last step of
// each set, a 10-cycle first-result latency and a 10-cycle final drain.
func VoltaMixedPipe() PipeModel {
	return PipeModel{First: 10, Within: 2, Tail: 4, Cross: 2, Final: 10, Sets: NumSets, Steps: 4}
}

// VoltaFP16Pipe matches Figure 9b: FP16 mode issues half as many HMMAs
// but each set's second step lands 9 cycles after the first, ending 10
// cycles later than mixed precision overall — the paper's observation
// that FP16 mode is the slower of the two.
func VoltaFP16Pipe() PipeModel {
	return PipeModel{First: 12, Within: 9, Tail: 9, Cross: 4, Final: 13, Sets: NumSets, Steps: 2}
}

// fig9aMixed and fig9bFP16 are the cumulative clock cycles printed beside
// the SASS listings of Figure 9.
var (
	fig9aMixed = []int{10, 12, 14, 18, 20, 22, 24, 28, 30, 32, 34, 38, 40, 42, 44, 54}
	fig9bFP16  = []int{12, 21, 25, 34, 38, 47, 51, 64}
)

// VoltaTiming returns the calibrated Volta timing for the given mode.
func VoltaTiming(mode Mode) Timing {
	if mode == MixedPrecision {
		return Timing{Arch: wmma.Volta, Name: "volta-mixed", StepsPerSet: 4,
			Cumulative: append([]int(nil), fig9aMixed...)}
	}
	return Timing{Arch: wmma.Volta, Name: "volta-fp16", StepsPerSet: 2,
		Cumulative: append([]int(nil), fig9bFP16...)}
}

// turingKey identifies a Table I row.
type turingKey struct {
	shape wmma.Shape
	prec  string
}

// tableI holds the average cumulative clock cycles to execute all HMMA
// instructions up to set n on the RTX 2080, verbatim from Table I.
var tableI = map[turingKey][]int{
	{wmma.M16N16K16, "16bit-fp32acc"}: {42, 56, 78, 99},
	{wmma.M16N16K16, "16bit-fp16acc"}: {44, 52, 60, 74},
	{wmma.M16N16K16, "8bit"}:          {40, 44, 47, 59},
	{wmma.M32N8K16, "16bit-fp32acc"}:  {48, 60, 81, 104},
	{wmma.M32N8K16, "16bit-fp16acc"}:  {44, 52, 60, 74},
	{wmma.M32N8K16, "8bit"}:           {52, 55, 59, 73},
	{wmma.M8N32K16, "16bit-fp32acc"}:  {42, 56, 77, 99},
	{wmma.M8N32K16, "16bit-fp16acc"}:  {42, 50, 58, 72},
	{wmma.M8N32K16, "8bit"}:           {38, 42, 46, 56},
	{wmma.M8N8K32, "4bit"}:            {230},
}

// turingPrecKey maps an operand/accumulator pair onto a Table I row label.
func turingPrecKey(elem, acc wmma.Precision) (string, error) {
	switch elem {
	case wmma.F16:
		if acc == wmma.F32 {
			return "16bit-fp32acc", nil
		}
		return "16bit-fp16acc", nil
	case wmma.S8, wmma.U8:
		return "8bit", nil
	case wmma.S4, wmma.U4:
		return "4bit", nil
	}
	return "", fmt.Errorf("tcore: no Turing timing for %v", elem)
}

// TuringTiming returns the calibrated Turing timing for a tile shape and
// operand/accumulator precision pair, per Table I.
func TuringTiming(shape wmma.Shape, elem, acc wmma.Precision) (Timing, error) {
	prec, err := turingPrecKey(elem, acc)
	if err != nil {
		return Timing{}, err
	}
	cum, ok := tableI[turingKey{shape, prec}]
	if !ok {
		return Timing{}, fmt.Errorf("tcore: no Table I row for %v %s", shape, prec)
	}
	return Timing{Arch: wmma.Turing, Name: fmt.Sprintf("turing-%v-%s", shape, prec),
		StepsPerSet: 1, Cumulative: append([]int(nil), cum...)}, nil
}

// TimingFor returns the calibrated timing for any supported configuration.
func TimingFor(cfg wmma.Config) (Timing, error) {
	if cfg.Arch == wmma.Volta {
		return VoltaTiming(ModeFor(cfg)), nil
	}
	return TuringTiming(cfg.Shape, cfg.AType, cfg.CType)
}

// TensorCoresPerSubCore is the paper's inferred count: a warp's HMMA
// executes 32 four-element dot products per cycle while one tensor core
// completes 16, so each warp drives two tensor cores (Section IV).
const TensorCoresPerSubCore = 2

// FEDPPerTensorCore is the number of four-element dot product units in one
// tensor core: one 4×4 MACC per cycle needs 16 FEDPs.
const FEDPPerTensorCore = 16

// MaxConcurrentHMMAWarps is how many warps can execute HMMA concurrently
// on one SM — the knee of Figure 12c: 8 tensor cores per SM at 2 per warp.
const MaxConcurrentHMMAWarps = 4
