package wmma

import (
	"os"
	"os/exec"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// allPrecisions lists every Precision value.
var allPrecisions = []Precision{F16, F32, S8, U8, S4, U4, S32}

// forEachIdentity calls f for every mapping identity, valid or not.
func forEachIdentity(f func(Arch, Shape, Operand, tensor.Layout, Precision)) {
	for _, arch := range []Arch{Volta, Turing} {
		for _, shape := range shapes {
			for _, op := range []Operand{MatrixA, MatrixB, MatrixC} {
				for _, layout := range bothLayouts {
					for _, elem := range allPrecisions {
						f(arch, shape, op, layout, elem)
					}
				}
			}
		}
	}
}

// Every identity Map accepts is built once: coverage holds (every A/B
// element in two lanes on Volta, one on Turing, every C element in one),
// the slot is the identity's own, and later calls return the same pointer
// without allocating.
func TestMapInternsEveryIdentity(t *testing.T) {
	seen := make(map[int]bool)
	valid := 0
	forEachIdentity(func(arch Arch, shape Shape, op Operand, layout tensor.Layout, elem Precision) {
		m, err := Map(arch, shape, op, layout, elem)
		if err != nil {
			if again, err2 := Map(arch, shape, op, layout, elem); again != nil || err2 == nil {
				t.Errorf("%v %v %v %v %v: error %v, then %v", arch, shape, op, layout, elem, err, err2)
			}
			return
		}
		valid++
		want := 1
		if arch == Volta && op != MatrixC {
			want = 2
		}
		rows, cols := shape.Dims(op)
		counts := m.LoadCounts()
		if len(counts) != rows*cols {
			t.Errorf("%v %v %v: covers %d of %d elements", arch, shape, op, len(counts), rows*cols)
		}
		for c, n := range counts {
			if n != want {
				t.Fatalf("%v %v %v: element %v in %d lanes, want %d", arch, shape, op, c, n, want)
			}
		}
		id := m.Identity()
		if id < 0 || id >= NumIdentities || seen[id] {
			t.Fatalf("%v %v %v %v %v: identity %d (seen %v)", arch, shape, op, layout, elem, id, seen[id])
		}
		seen[id] = true
		if copied := *m; copied.Identity() != -1 {
			t.Errorf("a copy of an interned mapping claims identity %d", copied.Identity())
		}
		var again *Mapping
		if allocs := testing.AllocsPerRun(10, func() { again, _ = Map(arch, shape, op, layout, elem) }); allocs != 0 || again != m {
			t.Errorf("%v %v %v %v %v: second call allocates %v, same pointer %v", arch, shape, op, layout, elem, allocs, again == m)
		}
	})
	if valid == 0 {
		t.Fatal("no identity mapped")
	}
	for _, cfg := range append(VoltaConfigs(), TuringConfigs()...) {
		for _, op := range []struct {
			op     Operand
			layout tensor.Layout
			elem   Precision
		}{{MatrixA, cfg.ALayout, cfg.AType}, {MatrixB, cfg.BLayout, cfg.AType}, {MatrixC, tensor.RowMajor, cfg.CType}, {MatrixC, tensor.RowMajor, cfg.DType}} {
			if _, err := Map(cfg.Arch, cfg.Shape, op.op, op.layout, op.elem); err != nil {
				t.Errorf("%v %v: %v", cfg, op.op, err)
			}
		}
	}
}

// Identities outside the enums are errors, never table slots.
func TestMapRejectsUnknownIdentities(t *testing.T) {
	for _, tc := range []struct {
		arch   Arch
		shape  Shape
		op     Operand
		layout tensor.Layout
		elem   Precision
	}{
		{Arch(2), M16N16K16, MatrixA, tensor.RowMajor, F16},
		{Turing, Shape{8, 8, 8}, MatrixA, tensor.RowMajor, F16},
		{Turing, M16N16K16, Operand(3), tensor.RowMajor, F16},
		{Turing, M16N16K16, MatrixA, tensor.Layout(2), F16},
		{Turing, M16N16K16, MatrixA, tensor.RowMajor, Precision(7)},
		{Turing, M16N16K16, MatrixA, tensor.RowMajor, Precision(-1)},
	} {
		if m, err := Map(tc.arch, tc.shape, tc.op, tc.layout, tc.elem); err == nil {
			t.Errorf("%+v mapped to %v", tc, m.Identity())
		}
	}
	hand := &Mapping{Arch: Volta, Shape: M16N16K16, Op: MatrixA, Elem: F16}
	if id := hand.Identity(); id != -1 {
		t.Errorf("a hand-built mapping claims identity %d", id)
	}
}

// Many goroutines reach Map's first use of every identity at once, and
// all of them get the one mapping. The body runs in a fresh process so
// the table is really empty; under -race the detector watches the fill.
func TestMapConcurrentFirstUse(t *testing.T) {
	if os.Getenv("WMMA_FIRST_USE") != "1" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMapConcurrentFirstUse$", "-test.count=1")
		cmd.Env = append(os.Environ(), "WMMA_FIRST_USE=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("first-use process: %v\n%s", err, out)
		}
		return
	}
	for i := range mappings {
		if mappings[i].m != nil {
			t.Fatal("the mapping table is not empty at first use")
		}
	}
	const workers = 8
	got := make([][]*Mapping, workers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			forEachIdentity(func(arch Arch, shape Shape, op Operand, layout tensor.Layout, elem Precision) {
				m, _ := Map(arch, shape, op, layout, elem)
				got[g] = append(got[g], m)
			})
		}()
	}
	start.Done()
	wg.Wait()
	for i, m := range got[0] {
		if m != nil && m.Identity() < 0 {
			t.Fatalf("identity %d: goroutine 0 holds a mapping the table does not", i)
		}
	}
	for g := 1; g < workers; g++ {
		for i := range got[0] {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d got a different mapping for identity %d", g, i)
			}
		}
	}
}
