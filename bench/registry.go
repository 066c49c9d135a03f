package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// analytic lists the registry's tables that simulate nothing: what is
// left of their time is the engine's and the renderer's overhead.
var analytic = map[string]bool{"fig7": true, "fig8": true, "fig9": true, "tab1": true,
	"tab2": true, "tab3": true, "fig10": true, "fig11": true}

// registryPass is one run of the quick registry: its wall time and, per
// experiment, the rendered table and the time the engine reports.
type registryPass struct {
	wall    time.Duration
	results []experiments.Result
	tables  []string
}

func registryRun(exps []experiments.Experiment, workers int, tr *tracer) registryPass {
	opt := experiments.Options{Quick: true, Workers: workers}
	begin := time.Now()
	var results []experiments.Result
	if tr == nil {
		results = experiments.RunAll(exps, opt, nil)
	} else {
		// One experiment at a time: inside one RunAll every experiment's
		// points queue on the shared pool together, so Result.Elapsed
		// includes the wait for the others and cannot be attributed.
		for _, e := range exps {
			id := tr.start("experiments."+e.ID, e.ID, 0)
			results = append(results, experiments.RunAll([]experiments.Experiment{e}, opt, nil)...)
			tr.end(id)
		}
	}
	p := registryPass{wall: time.Since(begin), results: results}
	for _, res := range results {
		s := ""
		if res.Table != nil {
			s = res.Table.String()
		}
		p.tables = append(p.tables, s)
	}
	return p
}

// checkTable is the verdict on one table of a pass: the experiment's own
// error, a byte that moved since the first pass, or fig9 no longer
// reporting the paper's 54- and 64-cycle HMMA totals.
func checkTable(res experiments.Result, table, first string) error {
	if res.Err != nil {
		return res.Err
	}
	if table != first {
		return errors.New("table bytes differ between passes")
	}
	if res.Experiment.ID == "fig9" {
		return checkFig9(res.Table)
	}
	return nil
}

func checkFig9(tb *experiments.Table) error {
	last := map[string]string{}
	for _, row := range tb.Rows {
		last[row[0]] = row[len(row)-1]
	}
	if last["mixed"] != "54" || last["fp16"] != "64" {
		return fmt.Errorf("fig9 totals are %s/%s cycles, want 54/64", last["mixed"], last["fp16"])
	}
	return nil
}

// column parses one named column of a table as floats.
func column(tb *experiments.Table, name string) ([]float64, error) {
	for i, c := range tb.Columns {
		if c != name {
			continue
		}
		var out []float64
		for _, row := range tb.Rows {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s column %s: %w", tb.ID, name, err)
			}
			out = append(out, v)
		}
		return out, nil
	}
	return nil, fmt.Errorf("%s has no column %s", tb.ID, name)
}

// accuracy reads the two accuracy figures off a pass's tables. The
// reference is internal/hwproxy, an analytical proxy, not silicon.
func accuracy(results []experiments.Result, m metrics) error {
	for _, res := range results {
		if res.Table == nil {
			continue
		}
		switch res.Experiment.ID {
		case "fig14b":
			hw, err := column(res.Table, "hw_ipc")
			if err != nil {
				return err
			}
			sim, err := column(res.Table, "sim_ipc")
			if err != nil {
				return err
			}
			m["ipc_corr_pct"] = 100 * stats.Correlation(hw, sim)
		case "fig14a":
			sim, err := column(res.Table, "sim_cycles")
			if err != nil {
				return err
			}
			hw, err := column(res.Table, "hw_cycles")
			if err != nil {
				return err
			}
			ratios := make([]float64, len(sim))
			for i := range sim {
				ratios[i] = sim[i] / hw[i]
			}
			m["cycle_err_stddev_pct"] = 100 * stats.StdDev(ratios) / stats.Mean(ratios)
		}
	}
	return nil
}

func registryQuick(rc runConfig, r *report) error {
	exps := experiments.All()
	if rc.tiny {
		// The analytic tables and the cheapest simulating ones.
		var small []experiments.Experiment
		for _, e := range exps {
			if analytic[e.ID] || e.ID == "fig14a" || e.ID == "fig12c" {
				small = append(small, e)
			}
		}
		exps = small
	}
	r.endSetup(rc, 0)

	// No warm-up: a CLI user pays the cold pass, so every pass is timed.
	var first registryPass
	record := func(p registryPass) {
		if first.tables == nil {
			first = p
		}
		for i, res := range p.results {
			r.op(res.Experiment.ID, checkTable(res, p.tables[i], first.tables[i]))
		}
	}
	walls := timedPasses(rc, 2, func() time.Duration {
		p := registryRun(exps, 1, nil)
		record(p)
		return p.wall
	})
	r.setWall(walls)
	r.Metrics["peak_rss_mb"] = selfPeakRSSMiB()
	if err := accuracy(first.results, r.Metrics); err != nil {
		return err
	}
	h := sha256.New()
	for _, t := range first.tables {
		h.Write([]byte(t))
	}
	sum := h.Sum(nil)
	r.TablesSHA256 = hex.EncodeToString(sum)
	m := r.Metrics
	m["experiments.tables_sha256"] = float64(binary.BigEndian.Uint64(sum) >> 16)
	if !rc.trace {
		return nil
	}

	tr := newTracer(r.Workload)
	traced := registryRun(exps, 1, tr)
	record(traced)
	m["trace.overhead_pct"] = 100 * (traced.wall.Seconds()/m["wall_s"] - 1)
	for _, res := range traced.results {
		id, s := res.Experiment.ID, res.Elapsed.Seconds()
		switch {
		case analytic[id]:
			m["experiments.analytic_ms"] += s * 1e3
		case id == "fig17" || id == "fig14b" || id == "fig16" || id == "sched":
			m["experiments.exp_s."+id] = s
		default:
			m["experiments.exp_s.rest"] += s
		}
	}
	pooled := registryRun(exps, rc.procs, nil)
	record(pooled)
	m["experiments.pool_speedup"] = m["wall_s"] / pooled.wall.Seconds()
	for k, v := range runProbes(rc, tr) {
		m[k] = v
	}
	r.Spans = tr.all()
	return nil
}
