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

func TestGlobalmutFixture(t *testing.T) {
	analysistest.Run(t, moduleRoot, analysis.GlobalmutAnalyzer, "./internal/analysis/testdata/src/globalmut")
}

// The directive fixture runs no analyzer: only the grammar check every
// run makes, which flags a //simlint: verb no analyzer reads.
func TestDirectiveFixture(t *testing.T) {
	analysistest.Run(t, moduleRoot, nil, "./internal/analysis/testdata/src/directive")
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
