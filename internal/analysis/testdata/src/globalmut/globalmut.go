// Package globalmut is the simlint globalmut fixture: package-level
// writes in every sanctioned and flagged position, plus the processknob
// directive's whole lifecycle (declared, set, swapped, backdoored,
// unjustified, non-atomic).
package globalmut

import "sync/atomic"

// state, registry and table are ordinary package-level state.
var (
	state    int
	registry = map[string]int{}
	table    [4]int
)

func init() {
	state = 1         // allowed: registration time
	registry["a"] = 1 // allowed
}

// Mutate writes package-level state outside init in each shape.
func Mutate(n int) {
	state = n         // want "writes package-level state outside init"
	registry["b"] = n // want "writes package-level registry outside init"
	table[0] = n      // want "writes package-level table outside init"
	state++           // want "writes package-level state outside init"
}

// Sanctioned carries a justified suppression.
func Sanctioned(n int) {
	state = n //simlint:ok fixture: demonstrates the justified escape
}

// Local shadows and locals are not package-level state: allowed.
func Local(n int) int {
	state := n
	table := [4]int{}
	table[0] = state
	return table[0]
}

// bareAtomic is a package-level atomic with no processknob directive.
var bareAtomic atomic.Bool

// FlipBare mutates an undeclared process global.
func FlipBare(on bool) {
	bareAtomic.Store(on) // want "package-level atomic with no //simlint:processknob directive"
}

// legacyKnob is a declared process-global equivalence knob.
//
//simlint:processknob fixture knob mirroring ptx.legacyFragmentPath; toggled only for equivalence tests
var legacyKnob atomic.Bool

// LegacyKnob is the CLI flag plumbing shape: allowed.
func LegacyKnob(on bool) { legacyKnob.Store(on) }

// SwapLegacyKnob is the test-safe set-and-restore helper: allowed.
func SwapLegacyKnob(on bool) func() {
	prev := legacyKnob.Swap(on)
	return func() { legacyKnob.Store(prev) }
}

// Backdoor writes the knob outside the sanctioned shapes.
func Backdoor() {
	legacyKnob.Store(true) // want "may be written only by its exported setter or Swap helper"
}

// lazyKnob's directive has no justification.
//
//simlint:processknob
var lazyKnob atomic.Bool // want "needs a justification"

// LazyKnob keeps lazyKnob referenced through its sanctioned setter.
func LazyKnob(on bool) { lazyKnob.Store(on) }

// plainKnob is declared as a knob but is not atomic-typed.
//
//simlint:processknob justified but mistyped
var plainKnob bool // want "must be atomic-typed"

// PlainKnob keeps plainKnob referenced; the write is an ordinary global
// write because the mistyped declaration is rejected from the knob set.
func PlainKnob(on bool) {
	plainKnob = on // want "writes package-level plainKnob outside init"
}
