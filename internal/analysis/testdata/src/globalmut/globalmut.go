// Package globalmut is the simlint globalmut fixture: package-level
// writes in every sanctioned and flagged position, and stores to
// package-level atomics, which nothing excuses.
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

// bareAtomic is a package-level atomic.
var bareAtomic atomic.Bool

// FlipBare mutates a process global.
func FlipBare(on bool) {
	bareAtomic.Store(on) // want "mutates a package-level atomic"
}

// legacyKnob carries the directive that once declared a process-global
// knob; it excuses nothing any more.
//
//simlint:processknob fixture knob mirroring a retired equivalence knob
var legacyKnob atomic.Bool

// LegacyKnob is the old setter shape: flagged like any other store.
func LegacyKnob(on bool) { legacyKnob.Store(on) } // want "mutates a package-level atomic"

// SwapLegacyKnob is the old set-and-restore shape: both stores flagged.
func SwapLegacyKnob(on bool) func() {
	prev := legacyKnob.Swap(on)              // want "legacyKnob.Swap mutates a package-level atomic"
	return func() { legacyKnob.Store(prev) } // want "mutates a package-level atomic"
}

// counter is an atomic whose store carries the plain-write escape,
// which does not cover atomics.
var counter atomic.Int64

// Count justifies itself in vain.
func Count() {
	counter.Add(1) //simlint:ok fixture: the escape covers plain writes only // want "counter.Add mutates a package-level atomic"
}

// Load reads the atomics: allowed.
func Load() bool { return bareAtomic.Load() && counter.Load() > 0 }
