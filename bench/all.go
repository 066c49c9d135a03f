package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// ratio is a/b, and 0 where the workload has nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// manifestJSON renders BENCHMARK.json from the workload and metric tables.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"sh", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range metricDefs {
		if d.Universal {
			out.EndToEnd = append(out.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
		} else {
			out.PerLayer = append(out.PerLayer, layer{d.Name, d.Unit, d.Better})
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err) // static tables of strings and numbers
	}
	return append(data, '\n')
}

// runSet runs every workload once, each in a fresh child process of this
// binary, so peak memory and set-up time belong to one workload alone.
func runSet(rc runConfig, dir string, set int) ([]*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if rc.trace {
		traceArg = "1"
	}
	var reports []*report
	for _, w := range workloads {
		path := filepath.Join(dir, fmt.Sprintf("%s.%d.json", w.Name, set))
		cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(rc.seed),
			"-seconds", fmt.Sprint(rc.seconds), "-trace", traceArg, "-report", path, "-simd", rc.simdBin)
		cmd.Stderr = os.Stderr
		begin := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r := &report{}
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "bench: %s done in %.1fs\n", w.Name, time.Since(begin).Seconds())
		reports = append(reports, r)
	}
	return reports, nil
}

// printReport lists every metric the run measured, by name and unit.
func printReport(r *report) {
	fmt.Printf("\n== %s (seed %d): %d operations attempted, %d failed; wall_s is the median of %d timed passes (quartiles %.4f .. %.4f)\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Passes, r.WallQ1, r.WallQ3)
	for _, f := range r.Failures {
		fmt.Printf("   failed: %s\n", f)
	}
	for _, d := range metricDefs {
		v := r.Metrics[d.Name]
		if v == 0 && !d.Universal {
			continue
		}
		note := ""
		switch {
		case d.Exact:
			note = "exact"
		case d.Bound > 0:
			note = fmt.Sprintf("%s is better, bound %.0f%%", d.Better, 100*d.Bound)
		}
		fmt.Printf("%-34s %16.6g %-12s %s\n", d.Name, v, d.Unit, note)
	}
	if r.TablesSHA256 != "" {
		fmt.Printf("%-34s %s\n", "tables sha256", r.TablesSHA256)
	}
	if len(r.Spans) == 0 {
		return
	}
	self := selfByName(r.Spans)
	names := make([]string, 0, len(self))
	var total time.Duration
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	sort.Strings(names)
	fmt.Println("   self time by span name (traced pass and out-of-band probes):")
	for _, n := range names {
		fmt.Printf("   %-28s %10.4f s %5.1f%%\n", n, self[n].Seconds(), 100*ratio(self[n].Seconds(), total.Seconds()))
	}
}

// compareSets prints, for every workload and bounded or exact metric,
// both sets' values and their relative difference, and reports whether
// the second set stayed within each bound of the first.
func compareSets(a, b []*report) (ok bool) {
	ok = true
	fmt.Printf("\n%-16s %-22s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range a {
		for _, d := range metricDefs {
			if d.Bound == 0 && !d.Exact {
				continue
			}
			x, y := a[i].Metrics[d.Name], b[i].Metrics[d.Name]
			if x == 0 && y == 0 {
				continue // the workload does not measure it
			}
			worse := ratio(y-x, x)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if d.Exact && x != y || !d.Exact && worse > d.Bound {
				verdict, ok = "EXCEEDED", false
			}
			fmt.Printf("%-16s %-22s %14.6g %14.6g %+7.1f%% %7.0f%% %s\n",
				a[i].Workload, d.Name, x, y, 100*ratio(y-x, x), 100*d.Bound, verdict)
		}
		if a[i].Failed+b[i].Failed > 0 {
			fmt.Printf("%-16s failed operations: %d then %d\n", a[i].Workload, a[i].Failed, b[i].Failed)
			ok = false
		}
	}
	return ok
}

// runAll is the one command: every workload's measured (or traced) run,
// or with aa the measured set twice and their comparison.
func runAll(rc runConfig, aa bool, reportPath string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "bench-reports-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	if rc.simdBin == "" {
		bin, tmp, secs, err := buildSimd()
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(tmp)
		rc.simdBin = bin
		fmt.Printf("%-34s %16.6g %-12s built once for the run\n", "simd.build_s", secs, "s")
	}

	sets := 1
	if aa {
		sets, rc.trace = 2, false
	}
	var all [][]*report
	failed := 0
	for set := 0; set < sets; set++ {
		reports, err := runSet(rc, dir, set)
		if err != nil {
			return fail(err)
		}
		for _, r := range reports {
			printReport(r)
			failed += r.Failed
		}
		all = append(all, reports)
	}
	if reportPath != "" {
		if err := writeJSON(reportPath, all); err != nil {
			return fail(err)
		}
	}
	if aa && !compareSets(all[0], all[1]) {
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}
