package experiments

import (
	"testing"

	"repro/internal/ptx"
)

// The decoded-instruction cache must be invisible at the artifact level:
// regenerating an experiment with the per-lane interpreted ALU path must
// render the exact table the decoded table-driven dispatch renders —
// cycles, IPC, TFLOPS, every formatted cell.
//
// The decoded side reuses the per-process memoized quick tables
// (runQuick), so the comparison adds only the interpreted re-simulation;
// fig17 — the experiment the cache exists to accelerate — joins the grid
// outside -short, sharing the one memoized run with TestAllExperimentsQuick
// and TestFig17Ordering.
func TestDecodedMatchesInterpretedTables(t *testing.T) {
	ids := []string{"fig12c", "fig14a"}
	if !testing.Short() {
		ids = append(ids, "fig17")
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			decoded := runQuick(t, id)

			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			defer ptx.SwapInterpretALU(true)()
			interpreted, err := e.Run(Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if decoded.String() != interpreted.String() {
				t.Errorf("decoded and interpreted tables differ:\n--- decoded ---\n%s\n--- interpreted ---\n%s",
					decoded.String(), interpreted.String())
			}
			// Knob × mode: the table above came through launchOn, so its
			// launches were TimingOnly; with every value computed the twin
			// renders the same bytes (fig17's twin is too slow to run twice).
			if id != "fig17" {
				full, err := e.Run(Options{Quick: true, launchMod: fullValues})
				if err != nil {
					t.Fatal(err)
				}
				if full.String() != interpreted.String() {
					t.Errorf("interpreted tables differ between TimingOnly and full values:\n--- timing-only ---\n%s\n--- full ---\n%s",
						interpreted.String(), full.String())
				}
			}
		})
	}
}
