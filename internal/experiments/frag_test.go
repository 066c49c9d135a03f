package experiments

import (
	"testing"

	"repro/internal/ptx"
)

// The batched wmma fragment path must be invisible at the artifact
// level: regenerating an experiment with the per-element legacy
// fragment path must render the exact table the batched path renders.
// fig14a and fig15 are the experiments most directly downstream of the
// fragment pipeline (WMMA GEMM cycles and the wmma latency
// distributions); fig17 — the GEMM sweep whose tensor-core series the
// batching exists to accelerate — joins outside -short.
//
// The batched side reuses the per-process memoized quick tables
// (runQuick), so the comparison adds only the legacy re-simulation.
func TestFragmentPathMatchesLegacyTables(t *testing.T) {
	ids := []string{"fig14a", "fig15"}
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
			defer ptx.SwapLegacyFragmentPath(true)()
			legacy, err := e.Run(Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if batched.String() != legacy.String() {
				t.Errorf("batched and legacy fragment tables differ:\n--- batched ---\n%s\n--- legacy ---\n%s",
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
					t.Errorf("legacy fragment tables differ between TimingOnly and full values:\n--- timing-only ---\n%s\n--- full ---\n%s",
						legacy.String(), full.String())
				}
			}
		})
	}
}
