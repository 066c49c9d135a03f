package main

import (
	"math"
	"sort"
)

// metricDef declares one metric the benchmark reports. The table below
// is the single source of truth: BENCHMARK.json is generated from it
// (go run ./bench -manifest) and a test pins the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the first set's value by which the second
	// set may be worse before -aa (and, for the universal metrics, the
	// driver) rejects the run. 0 = no bound: a per-layer metric.
	Bound float64
	// Exact marks a simulated statistic: deterministic, so two sets of
	// the same code must report the identical value.
	Exact bool
	// Universal metrics are measured on every workload and are never 0;
	// they form BENCHMARK.json's end_to_end list. Every other metric is
	// emitted by the traced run (0 on a workload it does not apply to).
	Universal bool
}

// hostBound bounds every host-side metric: the widest the driver
// contract allows. On an idle 2-core box ten back-to-back runs spread
// (quartile distance over median) by 2.5–5 % on wall time and 1.5–8 % on
// peak memory, but the box also has phases, minutes long, in which every
// workload runs 15–40 % slower; a tighter bound would reject unchanged
// code (see README, "A/A spread").
const hostBound = 0.25

var metricDefs = []metricDef{
	// Universal end-to-end metrics.
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: hostBound, Universal: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: hostBound, Universal: true},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: hostBound, Universal: true},

	// End-to-end metrics that exist on some workloads only. The driver
	// contract wants every end_to_end metric on every workload, never 0,
	// so these ride in per_layer; -aa still holds them to their bounds.
	{Name: "sim_kwinstr_per_s", Unit: "kwinstr/s", Better: "higher", Bound: hostBound},
	{Name: "ipc_corr_pct", Unit: "%", Better: "higher", Exact: true},
	{Name: "cycle_err_stddev_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: hostBound},
	{Name: "cold_p50_ms", Unit: "ms", Better: "lower", Bound: hostBound},
	{Name: "hit_p50_ms", Unit: "ms", Better: "lower", Bound: hostBound},

	// Per-layer metrics; the layer is the name up to the first dot.
	{Name: "kernels.build_ms", Unit: "ms", Better: "lower"},
	{Name: "cutlass.build_ms", Unit: "ms", Better: "lower"},

	{Name: "ptx.func_s", Unit: "s", Better: "lower"},
	{Name: "ptx.func_kwinstr_per_s", Unit: "kwinstr/s", Better: "higher"},
	{Name: "ptx.func_share", Unit: "ratio", Better: "lower"},
	{Name: "ptx.parse_us", Unit: "us", Better: "lower"},

	{Name: "gpu.run_s", Unit: "s", Better: "lower"},
	{Name: "gpu.self_s", Unit: "s", Better: "lower"},
	{Name: "gpu.host_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "gpu.run_s.gto", Unit: "s", Better: "lower"},
	{Name: "gpu.run_s.lrr", Unit: "s", Better: "lower"},
	{Name: "gpu.run_s.twolevel", Unit: "s", Better: "lower"},
	{Name: "gpu.run_s.low_occ", Unit: "s", Better: "lower"},
	{Name: "gpu.cycles", Unit: "count", Better: "lower", Exact: true},
	{Name: "gpu.warp_instr", Unit: "count", Better: "lower", Exact: true},
	{Name: "gpu.thread_instr", Unit: "count", Better: "lower", Exact: true},
	{Name: "gpu.tensor_ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "gpu.ipc", Unit: "instr/cycle", Better: "higher", Exact: true},

	{Name: "mem.dram_accesses", Unit: "count", Better: "lower", Exact: true},
	{Name: "mem.shared_conflicts", Unit: "count", Better: "lower", Exact: true},
	{Name: "mem.l1_hit_rate", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "mem.l2_hit_rate", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "mem.coalesce_ns.uniform", Unit: "ns", Better: "lower"},
	{Name: "mem.coalesce_ns.unit", Unit: "ns", Better: "lower"},
	{Name: "mem.coalesce_ns.sorted", Unit: "ns", Better: "lower"},
	{Name: "mem.coalesce_ns.scattered", Unit: "ns", Better: "lower"},
	{Name: "mem.bank_ns.free", Unit: "ns", Better: "lower"},
	{Name: "mem.bank_ns.way2", Unit: "ns", Better: "lower"},
	{Name: "mem.bank_ns.way32", Unit: "ns", Better: "lower"},
	{Name: "mem.port_global_ns.unit", Unit: "ns", Better: "lower"},
	{Name: "mem.port_global_ns.scattered", Unit: "ns", Better: "lower"},
	{Name: "mem.cache_access_ns", Unit: "ns", Better: "lower"},

	{Name: "wmma.mma_ns.mixed", Unit: "ns", Better: "lower"},
	{Name: "wmma.mma_ns.fp16", Unit: "ns", Better: "lower"},
	{Name: "wmma.mma_share", Unit: "ratio", Better: "lower"},
	{Name: "wmma.map_us", Unit: "us", Better: "lower"},
	{Name: "tcore.exec_volta_us", Unit: "us", Better: "lower"},
	{Name: "fp16.conv_ns", Unit: "ns", Better: "lower"},

	{Name: "cuda.new_device_ms", Unit: "ms", Better: "lower"},
	{Name: "cuda.upload_ms", Unit: "ms", Better: "lower"},

	{Name: "experiments.exp_s.fig17", Unit: "s", Better: "lower"},
	{Name: "experiments.exp_s.fig14b", Unit: "s", Better: "lower"},
	{Name: "experiments.exp_s.fig16", Unit: "s", Better: "lower"},
	{Name: "experiments.exp_s.sched", Unit: "s", Better: "lower"},
	{Name: "experiments.exp_s.rest", Unit: "s", Better: "lower"},
	{Name: "experiments.analytic_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.pool_speedup", Unit: "ratio", Better: "higher"},
	{Name: "experiments.tables_sha256", Unit: "sha48", Better: "lower", Exact: true},

	{Name: "servecache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "servecache.put_ns", Unit: "ns", Better: "lower"},
	{Name: "servecache.hits", Unit: "count", Better: "higher"},
	{Name: "servecache.misses", Unit: "count", Better: "lower"},
	{Name: "servecache.evictions", Unit: "count", Better: "lower"},
	{Name: "servecache.hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "simd.hit_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "simd.hit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "simd.cold_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "simd.async_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "simd.dup_both_simulated", Unit: "count", Better: "lower"},
	{Name: "simd.rss_start_mb", Unit: "MiB", Better: "lower"},
	{Name: "simd.rss_end_mb", Unit: "MiB", Better: "lower"},
	{Name: "simd.rss_kb_per_kjob", Unit: "KiB", Better: "lower"},
	{Name: "simd.http_failed", Unit: "count", Better: "lower"},
	{Name: "simd.build_s", Unit: "s", Better: "lower"},

	{Name: "runtime.alloc_mb_per_pass", Unit: "MiB", Better: "lower"},
	{Name: "runtime.gc_count_per_pass", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metrics maps a declared metric name to its measured value; a declared
// metric the workload does not measure reads 0.
type metrics map[string]float64

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
