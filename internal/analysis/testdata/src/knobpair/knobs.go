// Package knobpair is the simlint knobpair fixture: equivalence knobs
// in every coverage state, plus name-shaped functions that are not
// knobs.
package knobpair

var legacyGood, legacyHalf, legacyNever, legacySwept bool

// LegacyGood is exercised with both positions: allowed.
func LegacyGood(on bool) { legacyGood = on }

// LegacyHalfTested is only ever switched on.
func LegacyHalfTested(on bool) { legacyHalf = on } // want "never tested with false"

// LegacyNeverTested has no test references at all.
func LegacyNeverTested(on bool) { legacyNever = on } // want "never tested with either position"

// LegacySwept is toggled through a sweep variable, which counts as both
// positions: allowed.
func LegacySwept(on bool) { legacySwept = on }

// LegacyPolicy has the name shape but not the bool-setter signature: not
// a knob.
func LegacyPolicy(name string) string { return name }

// legacyPrivate is unexported: not part of the contract.
func legacyPrivate(on bool) { legacyGood = on }

// Use keeps the unexported knob referenced.
func Use() { legacyPrivate(false) }
