package experiments

import (
	"testing"

	"repro/internal/ptx"
)

// The batched warp access path must be invisible at the artifact level:
// regenerating an experiment with the legacy per-lane access path must
// render the exact table the batched path renders — cycles, IPC, hit
// rates, every formatted cell.
//
// The batched side reuses the per-process memoized quick tables
// (runQuick), so the comparison adds only the legacy re-simulation.
// fig16 is the ld/st latency microbenchmark — the experiment most
// directly downstream of the access path — and fig17, the workload the
// batching exists to accelerate, joins outside -short.
func TestBatchedMatchesLegacyTables(t *testing.T) {
	ids := []string{"fig12c", "fig16"}
	if !testing.Short() {
		ids = append(ids, "fig17")
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			batched := runQuick(t, id)

			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			defer ptx.SwapLegacyAccessPath(true)()
			legacy, err := e.Run(Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if batched.String() != legacy.String() {
				t.Errorf("batched and legacy tables differ:\n--- batched ---\n%s\n--- legacy ---\n%s",
					batched.String(), legacy.String())
			}
			// Knob × mode: the table above came through launchOn, so its
			// launches were TimingOnly; with every value computed the twin
			// renders the same bytes (fig17's twin is too slow to run twice).
			if id != "fig17" {
				full, err := e.Run(Options{Quick: true, launchMod: fullValues})
				if err != nil {
					t.Fatal(err)
				}
				if full.String() != legacy.String() {
					t.Errorf("legacy tables differ between TimingOnly and full values:\n--- timing-only ---\n%s\n--- full ---\n%s",
						legacy.String(), full.String())
				}
			}
		})
	}
}
