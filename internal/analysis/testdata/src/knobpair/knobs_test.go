package knobpair

import "testing"

func TestKnobs(t *testing.T) {
	LegacyGood(true)
	defer LegacyGood(false)
	LegacyHalfTested(true)
	for _, on := range []bool{false, true} {
		LegacySwept(on)
	}
	if !legacyGood || !legacyHalf || legacyNever {
		t.Fatal("knob state")
	}
}
