package experiments

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cutlass"
	"repro/internal/gpu"
	"repro/internal/kernels"
)

// Value-free timing at the artifact level (DESIGN.md): launchOn's launches
// are TimingOnly, every kernel they run is timing-separable — so the skip
// really happens — and the tables are byte-identical to the ones rendered
// with every operand value computed.

// fullValues is the launchMod that turns TimingOnly off.
func fullValues(spec *gpu.LaunchSpec) { spec.TimingOnly = false }

// fullValueRegistry renders every quick table once per test process with
// TimingOnly forced off, recording each kernel launched on the way.
var fullValueRegistry struct {
	sync.Once
	tables  map[string]*Table
	kernels map[string]bool // kernel name → TimingSeparable
	wasOn   bool            // every launch arrived with TimingOnly set
	err     error
}

func runFullValueRegistry(t *testing.T) {
	t.Helper()
	r := &fullValueRegistry
	r.Do(func() {
		r.tables, r.kernels, r.wasOn = map[string]*Table{}, map[string]bool{}, true
		var mu sync.Mutex
		opt := Options{Quick: true, launchMod: func(spec *gpu.LaunchSpec) {
			mu.Lock()
			defer mu.Unlock()
			r.kernels[spec.Kernel.Name] = spec.Kernel.TimingSeparable()
			r.wasOn = r.wasOn && spec.TimingOnly
			spec.TimingOnly = false
		}}
		for _, e := range All() {
			if testing.Short() && e.ID == "fig17" {
				continue
			}
			tb, err := e.Run(opt)
			if err != nil {
				r.err = err
				return
			}
			r.tables[e.ID] = tb
		}
	})
	if r.err != nil {
		t.Fatal(r.err)
	}
}

// Every generator the registry launches must be timing-separable: one
// that is not silently falls back to full execution and costs the ≈40 %
// the skip saves, with every table still right.
func TestRegistryKernelsSeparable(t *testing.T) {
	runFullValueRegistry(t)
	r := &fullValueRegistry
	if !r.wasOn {
		t.Error("a launchOn launch reached the simulator without TimingOnly")
	}
	var names []string
	for name, separable := range r.kernels {
		names = append(names, name)
		if !separable {
			t.Errorf("kernel %s is not timing-separable", name)
		}
	}
	sort.Strings(names)
	all := strings.Join(names, " ")
	families := []string{"wmma_gemm_shared", "wmma_gemm_naive", "cutlass_", "mma_loop"}
	if !testing.Short() {
		families = append(families, "sgemm_simt", "hgemm_simt")
	}
	for _, family := range families {
		if !strings.Contains(all, family) {
			t.Errorf("no %s* kernel was launched (saw %s): the sweep lost a generator", family, all)
		}
	}

	// The generators' other parameterisations: the full (non-quick) grids
	// take the same code paths with other sizes, policies and precisions.
	check := func(l *kernels.Launch, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !l.Kernel.TimingSeparable() {
			t.Errorf("kernel %s is not timing-separable", l.Kernel.Name)
		}
	}
	for _, p := range []kernels.GemmPrecision{kernels.TensorMixed, kernels.TensorFP16} {
		check(kernels.WMMAGemmShared(p, 128, 128, 64))
		check(kernels.WMMAGemmNaive(p, 128, 128, 64))
		check(kernels.MMALoop(p, 8, 16, 3))
		check(kernels.MaxPerf(p, 4, 4, 16))
		check(kernels.ClockedMMA(p, 4))
		for _, pol := range cutlass.DefaultPolicies() {
			for _, db := range []bool{false, true} {
				pol.DoubleBuffer = db
				check(cutlass.Build(cutlass.GemmConfig{Policy: pol, Precision: p, M: 256, N: 256, K: 128}))
			}
		}
	}
	for _, c := range cutlass.TestSuite() {
		check(cutlass.Build(c))
	}
	check(kernels.SGEMMSimt(128, 128, 64))
	check(kernels.HGEMMSimt(128, 128, 64))
}

// The quick tables rendered through launchOn (TimingOnly) are
// byte-identical to the tables rendered with every value computed.
func TestTablesIdenticalWithFullValues(t *testing.T) {
	runFullValueRegistry(t)
	for id, full := range fullValueRegistry.tables {
		if timing := runQuick(t, id); timing.String() != full.String() {
			t.Errorf("%s: TimingOnly changed the table:\n--- timing-only ---\n%s\n--- full values ---\n%s",
				id, timing.String(), full.String())
		}
	}
}
