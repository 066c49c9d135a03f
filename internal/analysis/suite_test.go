package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// moduleRoot is the repo root relative to this package's test cwd.
const moduleRoot = "../.."

func TestDeterminismFixture(t *testing.T) {
	analysistest.Run(t, moduleRoot, analysis.DeterminismAnalyzer, "./internal/analysis/testdata/src/determinism")
}

func TestHotpathFixture(t *testing.T) {
	analysistest.Run(t, moduleRoot, analysis.HotpathAnalyzer, "./internal/analysis/testdata/src/hotpath")
}

func TestStatcompleteFixture(t *testing.T) {
	analysistest.Run(t, moduleRoot, analysis.StatcompleteAnalyzer, "./internal/analysis/testdata/src/statcomplete")
}

func TestStatcompleteNoEmitterFixture(t *testing.T) {
	analysistest.Run(t, moduleRoot, analysis.StatcompleteAnalyzer, "./internal/analysis/testdata/src/statnoemitter")
}

func TestGlobalmutFixture(t *testing.T) {
	analysistest.Run(t, moduleRoot, analysis.GlobalmutAnalyzer, "./internal/analysis/testdata/src/globalmut")
}

// The frozen fixture is two packages (the /... pattern): the defining
// package plus a foreign package pinning that the constructor set does
// not cross package boundaries.
func TestFrozenFixture(t *testing.T) {
	analysistest.Run(t, moduleRoot, analysis.FrozenAnalyzer, "./internal/analysis/testdata/src/frozen/...")
}

func TestGuardedbyFixture(t *testing.T) {
	analysistest.Run(t, moduleRoot, analysis.GuardedbyAnalyzer, "./internal/analysis/testdata/src/guardedby")
}

func TestRecoversurfaceFixture(t *testing.T) {
	analysistest.Run(t, moduleRoot, analysis.RecoversurfaceAnalyzer, "./internal/analysis/testdata/src/recoversurface")
}

// TestRepoSweepClean is the in-tree lint gate: the full suite over the
// whole module must come back empty. CI additionally runs cmd/simlint
// directly so findings land in the job summary with file:line
// positions.
func TestRepoSweepClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; the CI lint job covers short runs")
	}
	m, err := analysis.Load(moduleRoot, "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, d := range analysis.RunSuite(m, analysis.Analyzers()) {
		t.Errorf("%s", d)
	}
}
