package tcore

import (
	"testing"

	"repro/internal/wmma"
)

// The exact cumulative cycle sequences printed in Figure 9.
var (
	wantMixed = []int{10, 12, 14, 18, 20, 22, 24, 28, 30, 32, 34, 38, 40, 42, 44, 54}
	wantFP16  = []int{12, 21, 25, 34, 38, 47, 51, 64}
)

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestVoltaTimingMatchesFigure9(t *testing.T) {
	if got := VoltaTiming(MixedPrecision).Cumulative; !eqInts(got, wantMixed) {
		t.Errorf("mixed cumulative %v, want %v", got, wantMixed)
	}
	if got := VoltaTiming(FP16).Cumulative; !eqInts(got, wantFP16) {
		t.Errorf("fp16 cumulative %v, want %v", got, wantFP16)
	}
}

// The parametric pipe models must regenerate Figure 9 exactly — this is
// the calibration check that licenses using them for ablations.
func TestPipeModelsReproduceFigure9(t *testing.T) {
	if got := VoltaMixedPipe().Cumulative(); !eqInts(got, wantMixed) {
		t.Errorf("mixed pipe model %v, want %v", got, wantMixed)
	}
	if got := VoltaFP16Pipe().Cumulative(); !eqInts(got, wantFP16) {
		t.Errorf("fp16 pipe model %v, want %v", got, wantFP16)
	}
}

// Section III-C: "The latency of wmma.mma API in mixed precision mode is
// ten cycles lower than in FP16 mode."
func TestMixedTenCyclesFasterThanFP16(t *testing.T) {
	mixed := VoltaTiming(MixedPrecision).Total()
	f16 := VoltaTiming(FP16).Total()
	if f16-mixed != 10 {
		t.Errorf("fp16 %d - mixed %d = %d, want 10", f16, mixed, f16-mixed)
	}
}

func TestTuringTimingTableI(t *testing.T) {
	tm, err := TuringTiming(wmma.M16N16K16, wmma.F16, wmma.F32)
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(tm.Cumulative, []int{42, 56, 78, 99}) {
		t.Errorf("16x16x16 fp32acc = %v", tm.Cumulative)
	}
	if !eqInts(tm.SetCumulative(), tm.Cumulative) {
		t.Errorf("SetCumulative should equal Cumulative for one HMMA per set")
	}
	// Paper: Turing 16×16×16 mixed (99) is slower than Volta (54).
	if volta := VoltaTiming(MixedPrecision).Total(); tm.Total() <= volta {
		t.Errorf("turing mixed %d should exceed volta mixed %d", tm.Total(), volta)
	}
	// Paper: mixed precision is slower than FP16 accumulation on Turing.
	f16acc, err := TuringTiming(wmma.M16N16K16, wmma.F16, wmma.F16)
	if err != nil {
		t.Fatal(err)
	}
	if f16acc.Total() >= tm.Total() {
		t.Errorf("fp16-acc %d should beat fp32-acc %d on Turing", f16acc.Total(), tm.Total())
	}
	// Paper: 8-bit is fastest; 4-bit is highest latency of all.
	i8, err := TuringTiming(wmma.M16N16K16, wmma.S8, wmma.S32)
	if err != nil {
		t.Fatal(err)
	}
	if i8.Total() >= f16acc.Total() {
		t.Errorf("8-bit %d should beat fp16 %d", i8.Total(), f16acc.Total())
	}
	i4, err := TuringTiming(wmma.M8N8K32, wmma.S4, wmma.S32)
	if err != nil {
		t.Fatal(err)
	}
	if i4.Total() != 230 || i4.NumHMMA() != 1 {
		t.Errorf("4-bit timing %v", i4)
	}
	for key := range tableI {
		tm, err := TuringTiming(key.shape, precForKey(key.prec), accForKey(key.prec))
		if err != nil {
			t.Errorf("TuringTiming(%v, %s): %v", key.shape, key.prec, err)
			continue
		}
		for i := 1; i < tm.NumHMMA(); i++ {
			if tm.Delta(i) <= 0 {
				t.Errorf("%v %s: non-increasing cumulative cycles at %d", key.shape, key.prec, i)
			}
		}
	}
}

func precForKey(k string) wmma.Precision {
	switch k {
	case "8bit":
		return wmma.S8
	case "4bit":
		return wmma.S4
	}
	return wmma.F16
}

func accForKey(k string) wmma.Precision {
	switch k {
	case "16bit-fp32acc":
		return wmma.F32
	case "16bit-fp16acc":
		return wmma.F16
	}
	return wmma.S32
}

func TestTimingFor(t *testing.T) {
	for _, cfg := range wmma.VoltaConfigs() {
		tm, err := TimingFor(cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		wantSteps := 4
		if ModeFor(cfg) == FP16 {
			wantSteps = 2
		}
		if tm.StepsPerSet != wantSteps {
			t.Errorf("%v: steps per set %d, want %d", cfg, tm.StepsPerSet, wantSteps)
		}
	}
	for _, cfg := range wmma.TuringConfigs() {
		if _, err := TimingFor(cfg); err != nil {
			t.Errorf("%v: %v", cfg, err)
		}
	}
}

func TestTimingAccessors(t *testing.T) {
	tm := VoltaTiming(MixedPrecision)
	if tm.NumHMMA() != 16 || tm.Total() != 54 || tm.Delta(0) != 10 || tm.Delta(15) != 10 {
		t.Errorf("accessors: n=%d total=%d d0=%d d15=%d", tm.NumHMMA(), tm.Total(), tm.Delta(0), tm.Delta(15))
	}
	sc := tm.SetCumulative()
	if !eqInts(sc, []int{18, 28, 38, 54}) {
		t.Errorf("SetCumulative = %v", sc)
	}
}

func TestMicroarchConstants(t *testing.T) {
	// Section IV's arithmetic: a warp's HMMA rate is 32 FEDP/cycle; one
	// tensor core provides 16, hence two per warp and a four-warp knee on
	// an SM with eight tensor cores.
	if TensorCoresPerSubCore*FEDPPerTensorCore != 32 {
		t.Error("two tensor cores must provide 32 FEDPs per cycle per warp")
	}
	if MaxConcurrentHMMAWarps != 8/TensorCoresPerSubCore {
		t.Error("knee should be 8 tensor cores / 2 per warp = 4 warps")
	}
}
