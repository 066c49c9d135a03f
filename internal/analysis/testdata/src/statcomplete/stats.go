// Package statcomplete is the simlint statcomplete fixture: a Stats
// struct whose counters are all surfaced by the annotated emitter —
// except one, the silently-dropped-counter bug the analyzer exists to
// catch.
package statcomplete

import "fmt"

type trace struct{ n int }

// Stats mirrors gpu.Stats: numeric counters plus a non-counter field.
type Stats struct {
	Cycles  uint64
	Issued  uint64
	Dropped uint64 // want "Stats.Dropped is accumulated but never referenced by a //simlint:emitter function"
	IPC     float64
	Trace   *trace // non-numeric: exempt
	hidden  int    // unexported: exempt
}

// LaunchStats is a second counter snapshot in the package: the suffix
// puts it under the same contract, field by field — its Hits is
// emitted, and Stats.Cycles being emitted does not cover its Cycles.
type LaunchStats struct {
	Hits   int64
	Cycles int64 // want "LaunchStats.Cycles is accumulated but never referenced by a //simlint:emitter function"
}

// Report is the sanctioned emitter; it surfaces every counter but
// Dropped and LaunchStats.Cycles.
//
//simlint:emitter
func Report(st *Stats, ls LaunchStats) string {
	return fmt.Sprintf("%d cycles, %d issued, IPC %.2f, %d hits", st.Cycles, st.Issued, st.IPC, ls.Hits)
}

// Accumulate shows that reads outside emitters do not count.
func Accumulate(st *Stats) {
	st.Dropped++
	st.hidden++
	_ = st.Trace
}
