package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/gpu"
)

// quickCache memoizes Quick-mode tables per test process: the artifacts
// are deterministic, several tests assert different properties of the
// same table, and the largest (fig17) takes seconds to simulate. The
// fig17 grid in particular is simulated exactly once per process and
// shared by TestAllExperimentsQuick, TestFig17Ordering and
// TestDecodedMatchesInterpretedTables; TestParallelDeterminism and
// TestRunAllDeterminism reuse the cache as their reference side too.
var quickCache = struct {
	sync.Mutex
	m map[string]*Table
}{m: map[string]*Table{}}

// runQuick regenerates experiment id in Quick mode, at most once per
// test process.
func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	quickCache.Lock()
	defer quickCache.Unlock()
	if tb, ok := quickCache.m[id]; ok {
		return tb
	}
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := e.Run(Options{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	quickCache.m[id] = tb
	return tb
}

// updateQuick rewrites the quick-table goldens; any intentional change to
// a rendered table is regenerated with
//
//	go test ./internal/experiments -run TestAllExperimentsQuick -update
//
// and its diff reviewed like any other golden file.
var updateQuick = flag.Bool("update", false, "rewrite testdata/quick/<id>.txt from the current tables")

// All experiments must run in Quick mode, produce well-formed tables and
// render byte for byte the committed testdata/quick/<id>.txt.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && e.ID == "fig17" {
				t.Skip("fig17 simulates the SIMT GEMM series; skipped in -short (CI) mode")
			}
			tb := runQuick(t, e.ID)
			if tb.ID != e.ID {
				t.Errorf("table id %q != experiment id %q", tb.ID, e.ID)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for i, r := range tb.Rows {
				if len(r) != len(tb.Columns) {
					t.Errorf("row %d has %d cells, want %d", i, len(r), len(tb.Columns))
				}
			}
			s := tb.String()
			if !strings.Contains(s, e.ID) {
				t.Errorf("rendering lacks the table id")
			}
			path := filepath.Join("testdata", "quick", e.ID+".txt")
			if *updateQuick {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if s != string(want) {
				t.Errorf("table drifted from %s (if intentional, regenerate with -update)\n--- got ---\n%s\n--- want ---\n%s", path, s, want)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig9"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id should error")
	}
}

// The Figure 9 table must contain the paper's exact cumulative numbers.
func TestFig9Exact(t *testing.T) {
	tb, err := Fig9(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 12, 14, 18, 20, 22, 24, 28, 30, 32, 34, 38, 40, 42, 44, 54,
		12, 21, 25, 34, 38, 47, 51, 64}
	if len(tb.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(tb.Rows), len(want))
	}
	for i, r := range tb.Rows {
		got, err := strconv.Atoi(r[len(r)-1])
		if err != nil || got != want[i] {
			t.Errorf("row %d cumulative = %s, want %d", i, r[len(r)-1], want[i])
		}
	}
}

// Figure 12c must show the knee at four warps.
func TestFig12cKnee(t *testing.T) {
	tb := runQuick(t, "fig12c")
	cyc := make([]float64, 0, 8)
	for _, r := range tb.Rows {
		v, err := strconv.ParseUint(r[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		cyc = append(cyc, float64(v))
	}
	if len(cyc) != 8 {
		t.Fatalf("%d rows, want 8", len(cyc))
	}
	if cyc[3] > 1.25*cyc[0] {
		t.Errorf("cycles flat region violated: 1 warp %v vs 4 warps %v", cyc[0], cyc[3])
	}
	if cyc[4] < 1.4*cyc[3] {
		t.Errorf("no knee at 4 warps: %v → %v", cyc[3], cyc[4])
	}
}

// Figure 14b's Quick-mode correlation should still be very high.
func TestFig14bCorrelation(t *testing.T) {
	tb := runQuick(t, "fig14b")
	found := false
	for _, n := range tb.Notes {
		if strings.Contains(n, "IPC correlation") {
			found = true
			var corr float64
			if _, err := fmtSscan(n, &corr); err != nil {
				t.Fatalf("cannot parse correlation from %q", n)
			}
			if corr < 90 {
				t.Errorf("IPC correlation %.2f%% too low", corr)
			}
		}
	}
	if !found {
		t.Fatal("missing correlation note")
	}
}

// fmtSscan pulls the first float out of a note string.
func fmtSscan(s string, out *float64) (int, error) {
	for _, f := range strings.Fields(s) {
		f = strings.TrimSuffix(f, "%")
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			*out = v
			return 1, nil
		}
	}
	return 0, strconv.ErrSyntax
}

// Figure 16's shape: global-operand load latency grows with size while
// shared-memory load latency stays flat.
func TestFig16Shape(t *testing.T) {
	tb := runQuick(t, "fig16")
	first := tb.Rows[0]
	last := tb.Rows[len(tb.Rows)-1]
	shFirst, _ := strconv.ParseFloat(first[1], 64)
	shLast, _ := strconv.ParseFloat(last[1], 64)
	glFirst, _ := strconv.ParseFloat(first[2], 64)
	glLast, _ := strconv.ParseFloat(last[2], 64)
	if shLast > 2.5*shFirst {
		t.Errorf("shared-memory load latency not flat: %v → %v", shFirst, shLast)
	}
	if glLast < glFirst {
		t.Errorf("global load latency should not shrink with size: %v → %v", glFirst, glLast)
	}
	if glLast < 1.5*shLast {
		t.Errorf("global loads (%v) should be well above shared loads (%v) at the largest size", glLast, shLast)
	}
}

// Figure 17's ordering: tensor-core GEMMs beat the SIMT baselines, and
// nothing exceeds the theoretical limit.
func TestFig17Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("fig17 simulates the SIMT GEMM series; skipped in -short (CI) mode")
	}
	tb := runQuick(t, "fig17")
	last := tb.Rows[len(tb.Rows)-1]
	get := func(col string) float64 {
		for i, c := range tb.Columns {
			if c == col {
				v, _ := strconv.ParseFloat(last[i], 64)
				return v
			}
		}
		t.Fatalf("missing column %s", col)
		return 0
	}
	sgemm := get("CUBLAS_WO_TC_FP32")
	hgemm := get("CUBLAS_WO_TC_FP16")
	tc := get("CUBLAS_WITH_TC_FP16")
	maxPerf := get("MAX_PERF_FP16")
	theo := get("THEORETICAL")
	if tc <= sgemm || tc <= hgemm {
		t.Errorf("tensor cores (%v) should beat SGEMM (%v) and HGEMM (%v)", tc, sgemm, hgemm)
	}
	if hgemm <= sgemm {
		t.Errorf("HGEMM (%v) should beat SGEMM (%v)", hgemm, sgemm)
	}
	if maxPerf > theo || tc > theo {
		t.Errorf("nothing may exceed the theoretical limit %v (maxperf %v, tc %v)", theo, maxPerf, tc)
	}
	if maxPerf < 0.6*theo {
		t.Errorf("max-perf kernel (%v) too far below peak (%v)", maxPerf, theo)
	}
}

func TestZeroMemory(t *testing.T) {
	m := newZeroMemory()
	buf := make([]byte, 8)
	m.Read(1<<30, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fresh memory should read zero")
		}
	}
	m.Write(1<<30+3, []byte{7, 8})
	m.Read(1<<30, buf)
	if buf[3] != 7 || buf[4] != 8 || buf[0] != 0 {
		t.Fatalf("read back %v", buf)
	}
	a := m.alloc(100)
	b := m.alloc(100)
	if b <= a {
		t.Error("allocations should advance")
	}
}

func TestScaledTitanV(t *testing.T) {
	full := scaledTitanV(0)
	if full.NumSMs != 80 {
		t.Errorf("default should keep 80 SMs")
	}
	slice := scaledTitanV(8)
	if slice.NumSMs != 8 {
		t.Errorf("slice SMs = %d", slice.NumSMs)
	}
	if slice.Mem.DRAMBytesPerCycle >= full.Mem.DRAMBytesPerCycle {
		t.Error("slice must scale DRAM bandwidth down")
	}
	// Every slice keeps a memory geometry the model accepts, as do the
	// two full parts.
	for sms := 1; sms <= 80; sms++ {
		if err := scaledTitanV(sms).Validate(); err != nil {
			t.Errorf("%d-SM slice: %v", sms, err)
		}
	}
	for _, cfg := range []gpu.Config{gpu.TitanV(), gpu.RTX2080()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}
