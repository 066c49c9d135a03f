package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cuda"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/tensor"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is generated from the Go tables; this pins the two
// together and holds the tables to the driver contract's limits.
func TestManifest(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := manifestJSON(); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate with: go run ./bench -manifest > BENCHMARK.json")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2..8", n)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not fit the contract", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		unique(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	layers, setup := 0, false
	for _, d := range metricDefs {
		unique(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not fit the contract", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Universal && d.Bound == 0 {
			t.Errorf("%s: an end-to-end metric needs a bound", d.Name)
		}
		if !d.Universal {
			layers++
		}
		if d.Name == "setup_s" {
			setup = d.Universal && d.Unit == "s" && d.Better == "lower"
		}
	}
	if layers < 1 || layers > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", layers)
	}
	if !setup {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// Every workload at smoke-test size: no failed operation, and the
// contract line carries exactly the declared metrics for each mode.
func TestSmoke(t *testing.T) {
	rc := runConfig{seed: 1, seconds: 1, trace: true, tiny: true, procs: 2}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			if testing.Short() && strings.HasPrefix(w.Name, "serve_") {
				t.Skip("builds and starts cmd/simd")
			}
			r, err := runWorkload(w, rc)
			if err != nil {
				t.Fatal(err)
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Failures)
			}
			for name := range r.Metrics {
				if !declared(name) {
					t.Errorf("metric %s is measured but not declared", name)
				}
			}
			for _, traced := range []bool{false, true} {
				r.Traced = traced
				line, err := contractLine(r)
				if err != nil {
					t.Fatal(err)
				}
				checkContractLine(t, line, traced)
			}
			checkSpans(t, r.Spans)
		})
	}
}

func declared(name string) bool {
	for _, d := range metricDefs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// checkContractLine holds one result line to the driver contract: the
// four keys, and each metric of the selected list exactly once, named
// and with its unit; the end-to-end ones never 0.
func checkContractLine(t *testing.T, line []byte, traced bool) {
	t.Helper()
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("result line %s: %v", line, err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || !*got.Correct {
		t.Fatalf("result line %s lacks a key or is not correct", line)
	}
	want := 0
	for _, d := range metricDefs {
		if d.Universal == traced {
			continue
		}
		want++
		m, ok := got.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("traced=%v: metric %s missing or without its unit %q", traced, d.Name, d.Unit)
			continue
		}
		if d.Universal && !(*m.Value > 0) {
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, *m.Value)
		}
	}
	if len(got.Metrics) != want {
		t.Errorf("traced=%v: %d metrics on the line, want %d", traced, len(got.Metrics), want)
	}
}

// checkSpans pins containment on real spans: a child lies inside its
// parent and belongs to the same operation.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Error("traced run recorded no spans")
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.EndNS < s.StartNS {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Op != p.Op {
			t.Errorf("span %+v is not contained in its parent %+v", s, p)
		}
	}
}

// Self time = span − the part its children cover: overlapping children
// count once, a child reaching outside its parent is clipped, and a
// grandchild takes from its own parent only.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, StartNS: 0, EndNS: 100},
		{Name: "a", ID: 2, Parent: 1, StartNS: 10, EndNS: 30},
		{Name: "b", ID: 3, Parent: 1, StartNS: 20, EndNS: 50},
		{Name: "c", ID: 4, Parent: 1, StartNS: 90, EndNS: 120},
		{Name: "d", ID: 5, Parent: 3, StartNS: 25, EndNS: 45},
		{Name: "b", ID: 6, StartNS: 200, EndNS: 207},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 7}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got := selfByName(spans)["b"]; got != 17 {
		t.Errorf("self time of b = %v, want 17", got)
	}
	if got := spanTotal(spans, "b"); got != 37 {
		t.Errorf("total of b = %v, want 37", got)
	}
}

// Each checker turns its kind of wrong output into a failed operation.
func TestCheckersFailOperations(t *testing.T) {
	want := tensor.New(4, 4, tensor.RowMajor)
	want.FillRandomFP16(rand.New(rand.NewSource(1)))
	perturbed := want.Clone()
	perturbed.Set(2, 3, perturbed.At(2, 3)+0.5)
	nan := want.Clone()
	nan.Set(0, 0, nan.At(0, 0)/0)

	st := gpu.Stats{Cycles: 100, WarpInstructions: 40, DRAMAccesses: 7}
	moved := st
	moved.DRAMAccesses++

	fig9 := func(mixed, fp16 string) experiments.Result {
		return experiments.Result{Experiment: experiments.Experiment{ID: "fig9"},
			Table: &experiments.Table{Rows: [][]string{{"mixed", "1", "10"}, {"mixed", "2", mixed}, {"fp16", "1", fp16}}}}
	}
	seen := &outputs{}
	q := jobRequest{Experiment: "fig15", Quick: true}
	if err := seen.check(q, "table"); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		err  error
		bad  bool
	}{
		{"gemm exact", checkGemm(want, want, 1e-3), false},
		{"gemm perturbed", checkGemm(perturbed, want, 1e-3), true},
		{"gemm NaN", checkGemm(nan, want, 1e-3), true},
		{"copy same", checkBytes([]byte{1, 2, 3}, []byte{1, 2, 3}), false},
		{"copy differs", checkBytes([]byte{1, 2, 4}, []byte{1, 2, 3}), true},
		{"stats same", checkStats(st, st), false},
		{"stats moved", checkStats(st, moved), true},
		{"table same", checkTable(experiments.Result{}, "a|b", "a|b"), false},
		{"table byte differs", checkTable(experiments.Result{}, "a|c", "a|b"), true},
		{"table errored", checkTable(experiments.Result{Err: errors.New("boom")}, "", ""), true},
		{"fig9 54/64", checkTable(fig9("54", "64"), "", ""), false},
		{"fig9 drifted", checkTable(fig9("55", "64"), "", ""), true},
		{"job done", checkJob(200, "done", ""), false},
		{"job 503", checkJob(503, "", "draining"), true},
		{"job failed", checkJob(200, "failed", "cycle budget exceeded"), true},
		{"output repeats", seen.check(q, "table"), false},
		{"output differs", seen.check(q, "tablf"), true},
	}
	for _, c := range cases {
		r := &report{Metrics: metrics{}}
		r.op(c.name, c.err)
		if r.Attempted != 1 || (r.Failed == 1) != c.bad {
			t.Errorf("%s: attempted %d failed %d (err %v), want failed=%v", c.name, r.Attempted, r.Failed, c.err, c.bad)
		}
		if line, err := contractLine(r); err != nil || bytes.Contains(line, []byte(`"correct":true`)) == c.bad {
			t.Errorf("%s: result line %s (err %v)", c.name, line, err)
		}
	}
}

// The accuracy figures come off the fig14a/fig14b tables' columns.
func TestAccuracy(t *testing.T) {
	results := []experiments.Result{
		{Experiment: experiments.Experiment{ID: "fig14b"}, Table: &experiments.Table{ID: "fig14b",
			Columns: []string{"config", "hw_ipc", "sim_ipc"},
			Rows:    [][]string{{"a", "1.00", "2.00"}, {"b", "2.00", "4.00"}, {"c", "3.00", "6.00"}}}},
		{Experiment: experiments.Experiment{ID: "fig14a"}, Table: &experiments.Table{ID: "fig14a",
			Columns: []string{"size", "sim_cycles", "hw_cycles", "sim/hw"},
			Rows:    [][]string{{"32", "110", "100", "1.10"}, {"64", "220", "200", "1.10"}}}},
	}
	m := metrics{}
	if err := accuracy(results, m); err != nil {
		t.Fatal(err)
	}
	if c := m["ipc_corr_pct"]; c < 99.999 || c > 100.001 {
		t.Errorf("ipc_corr_pct = %v, want 100", c)
	}
	if s := m["cycle_err_stddev_pct"]; s > 1e-9 {
		t.Errorf("cycle_err_stddev_pct = %v, want 0", s)
	}
	results[0].Table.Columns[1] = "renamed"
	if err := accuracy(results, metrics{}); err == nil {
		t.Error("a missing column must be an error, not a silent 0")
	}
}

// -aa accepts a second set within the bounds and rejects one beyond
// them, one whose exact statistic moved, and one with a failed operation.
func TestCompareSets(t *testing.T) {
	set := func(wall, ipc float64, failed int) []*report {
		return []*report{{Workload: "w", Failed: failed,
			Metrics: metrics{"wall_s": wall, "setup_s": 1, "peak_rss_mb": 10, "ipc_corr_pct": ipc}}}
	}
	base := set(10, 97.35, 0)
	if !compareSets(base, set(10*(1+hostBound)-0.01, 97.35, 0)) {
		t.Error("a second set within the bound was rejected")
	}
	if !compareSets(base, set(5, 97.35, 0)) {
		t.Error("a faster second set was rejected")
	}
	if compareSets(base, set(10*(1+hostBound)+0.01, 97.35, 0)) {
		t.Error("a second set beyond the bound was accepted")
	}
	if compareSets(base, set(10, 97.36, 0)) {
		t.Error("a moved exact metric was accepted")
	}
	if compareSets(base, set(10, 97.35, 1)) {
		t.Error("a failed operation was accepted")
	}
}

// Same seed, same inputs; another seed, other inputs; and nothing but
// generated inputs reaches simd: a request body has the API's fields
// only, and the server is started without any.
func TestSeededInputs(t *testing.T) {
	if a, b := planMixed(7, 10, false), planMixed(7, 10, false); !reflect.DeepEqual(a, b) {
		t.Error("planMixed: same seed gave two sequences")
	}
	if a, b := planMixed(7, 10, false), planMixed(8, 10, false); reflect.DeepEqual(a.Segments, b.Segments) {
		t.Error("planMixed: seeds 7 and 8 gave one sequence")
	}
	_, a := planHot(7, 1, false)
	_, b := planHot(7, 1, false)
	_, c := planHot(8, 1, false)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("planHot: the sequence must follow the seed")
	}

	// Every seed pays for the same simulations: the key sets are fixed
	// and every popular key is requested at least once.
	p1, p2 := planMixed(1, 10, false), planMixed(2, 10, false)
	keysOf := func(p mixedPlan) map[jobRequest]bool {
		set := map[jobRequest]bool{}
		for _, seg := range p.Segments {
			for _, st := range seg {
				set[p.Keys[st.Key]] = true
			}
		}
		return set
	}
	if k1, k2 := keysOf(p1), keysOf(p2); !reflect.DeepEqual(k1, k2) || len(k1) != len(p1.Keys) {
		t.Errorf("seeds 1 and 2 touch %d and %d distinct keys of %d", len(k1), len(k2), len(p1.Keys))
	}
	for _, d := range p1.Dups {
		if keysOf(p1)[d] {
			t.Errorf("duplicate key %+v is also a popular key: not a first touch", d)
		}
	}

	allowed := map[string]bool{"experiment": true, "quick": true, "sms": true, "sched": true, "tlactive": true, "wait": true}
	for _, q := range append(p1.Keys, p1.Dups...) {
		var fields map[string]any
		if err := json.Unmarshal(q.body(true), &fields); err != nil {
			t.Fatal(err)
		}
		for f := range fields {
			if !allowed[f] {
				t.Errorf("request body carries %q, not a field of the job API", f)
			}
		}
	}

	// The simulator sees the seed as operand bytes, nothing else.
	image := func(seed int64) []byte {
		l := simtGemmLaunches(true, rand.New(rand.NewSource(seed)))[0]
		dev := cuda.MustNewDevice(l.cfg)
		args := l.upload(dev)
		buf := make([]byte, args[3]-args[0])
		dev.Mem.Read(args[0], buf)
		return buf
	}
	if !bytes.Equal(image(3), image(3)) || bytes.Equal(image(3), image(4)) {
		t.Error("operands must be a function of the seed")
	}
}
