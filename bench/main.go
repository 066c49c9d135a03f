// Command bench is the repository's benchmark: seven workloads over the
// simulator, the experiment registry and the simd server, measured end
// to end and, in a separate traced run, layer by layer. See README.md.
//
//	go run ./bench -seed 1                  every workload, measured set
//	go run ./bench -seed 1 -trace 1         every workload, traced run
//	go run ./bench -aa                      the measured set twice, compared
//	go run ./bench -workload tc_gemm -seed 3 -seconds 10 -trace 0
//
// The last form is what BENCHMARK.json's command runs (through run.sh):
// one workload in this process, one JSON result on the last line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the measuring budget of
// one workload run.
const runSeconds = 10

// runConfig is what one workload run is told. Only seed-derived inputs
// reach the simulator and simd; the workload name and the seed do not.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every workload to smoke-test size (go test).
	tiny bool
	// procs is GOMAXPROCS and every worker, pool and client count.
	procs int
	// simdBin is a prebuilt simd binary; empty builds one for the run.
	simdBin string
	// startupS is what starting this program costs before main runs
	// (see processStartup); every workload's setup_s begins with it.
	startupS float64
}

// report is one workload run's outcome: what the contract line is
// derived from, plus the detail the -report file keeps.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Passes is the number of timed passes behind wall_s (their median),
	// WallQ1/WallQ3 their quartiles.
	Passes  int     `json:"passes"`
	WallQ1  float64 `json:"wall_q1_s"`
	WallQ3  float64 `json:"wall_q3_s"`
	Metrics metrics `json:"metrics"`
	// TablesSHA256 is the digest of the registry's rendered tables
	// (registry_quick only); its leading 48 bits are the
	// experiments.tables_sha256 metric.
	TablesSHA256 string `json:"tables_sha256,omitempty"`
	Spans        []span `json:"spans,omitempty"`

	setupBegin time.Time
}

// endSetup closes the set-up phase: setup_s is the program's start-up
// plus everything the workload did up to now, less the harness's own
// work (reference results, one-off builds) that happened in between.
func (r *report) endSetup(rc runConfig, harness time.Duration) {
	r.Metrics["setup_s"] = rc.startupS + (time.Since(r.setupBegin) - harness).Seconds()
}

// processStartup measures what a user pays before main runs: process
// creation, runtime start and the package initialisers (decode and
// conversion tables). It starts this binary five times in a mode that
// exits at once and returns the median, so work a change moves into
// package initialisation shows up in setup_s.
func processStartup() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	samples := make([]float64, 5)
	for i := range samples {
		begin := time.Now()
		if err := exec.Command(exe, "-manifest").Run(); err != nil {
			return 0, fmt.Errorf("start-up probe: %w", err)
		}
		samples[i] = time.Since(begin).Seconds()
	}
	return median(samples), nil
}

// op counts one operation and, when err is non-nil, its failure.
func (r *report) op(name string, err error) {
	r.Attempted++
	if err == nil {
		return
	}
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, name+": "+err.Error())
	}
}

func (r *report) setWall(walls []time.Duration) {
	s := make([]float64, len(walls))
	for i, w := range walls {
		s[i] = w.Seconds()
	}
	r.Passes = len(s)
	r.Metrics["wall_s"] = median(s)
	r.WallQ1, r.WallQ3 = quantile(s, 0.25), quantile(s, 0.75)
}

// timedPasses runs pass at least minPasses times, and then for as long
// as another pass of the usual length still fits the measuring budget.
func timedPasses(rc runConfig, minPasses int, pass func() time.Duration) []time.Duration {
	var walls []time.Duration
	budget := time.Duration(rc.seconds * float64(time.Second))
	begin := time.Now()
	for {
		walls = append(walls, pass())
		used := time.Since(begin)
		if len(walls) >= minPasses && (rc.tiny || used+used/time.Duration(len(walls)) > budget) {
			return walls
		}
	}
}

// selfPeakRSSMiB is this process's peak resident set.
func selfPeakRSSMiB() float64 { return procStatusMiB(os.Getpid(), "VmHWM") }

// procStatusMiB reads one kB-valued field of /proc/<pid>/status.
func procStatusMiB(pid int, field string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb)
			return kb / 1024
		}
	}
	return 0
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string
	run  func(runConfig, *report) error
}

var workloads = []workload{
	{"simt_gemm", "SIMT SGEMM/HGEMM on 8 SMs: ALU/mad and ld/st bound, no wmma work - the fig17 bottleneck a ptx/ALU change must move and a wmma change must not",
		simWorkload(simtGemmLaunches)},
	{"tc_gemm", "CUTLASS and WMMA tensor-core GEMMs plus the max-perf mma loop on 8 SMs: wmma fragment movement and MMA math dominate, ALU little",
		simWorkload(tcGemmLaunches)},
	{"sched_occupancy", "one SM at 64 resident warps under GTO, LRR and two-level, plus 1-CTA and 4-warp launches: issue selection, scoreboard and wake heap at both occupancy extremes",
		simWorkload(schedOccupancyLaunches)},
	{"mem_stride", "PTX-text global copies at lane stride 1/2/32/33 and shared-memory loops at stride 1/2/32: the coalescer, caches, DRAM queue and bank conflicts do most of the work",
		simWorkload(memStrideLaunches)},
	{"registry_quick", "the whole quick experiment registry on one worker: the north-star CLI wall-clock and the carrier of the accuracy figures",
		registryQuick},
	{"serve_mixed", "real simd over loopback, closed loop: Zipf-popular keys, ~90% cache hits beside cold simulations and duplicate first-touch POSTs sharing the pool",
		serveWorkload(mixedPlanFor)},
	{"serve_hot", "real simd with every key pre-warmed: HTTP, JSON, cache lookup and the job table do all the work, the simulator none",
		serveWorkload(hotPlanFor)},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload measures one workload in this process.
func runWorkload(w workload, rc runConfig) (*report, error) {
	r := &report{Workload: w.Name, Seed: rc.seed, Traced: rc.trace, Metrics: metrics{}, setupBegin: time.Now()}
	if err := w.run(rc, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return r, nil
}

// contractLine is the driver's result object: the run's verdict and the
// metric set the traced flag selects — the universal metrics when
// untraced, every other declared metric when traced.
func contractLine(r *report) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range metricDefs {
		if d.Universal != r.Traced {
			out.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
		}
	}
	return json.Marshal(out)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload in-process and print the contract result (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed for operands, probe address sets and request sequences")
	seconds := fs.Float64("seconds", runSeconds, "measuring budget per workload run")
	trace := fs.Int("trace", 0, "1 = traced run: one extra pass under spans plus the layer probes; prints the per-layer metrics")
	reportPath := fs.String("report", "", "also write the full report (every metric, failures, spans) to this JSON file")
	aa := fs.Bool("aa", false, "run the measured set twice and compare every bounded metric")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	simdBin := fs.String("simd", "", "prebuilt simd binary for the serve workloads (default: build one)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return 0
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace wants 0 or 1, -seconds a positive number")
		return 2
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, procs: procs, simdBin: *simdBin}

	if *name == "" {
		return runAll(rc, *aa, *reportPath)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	var err error
	if rc.startupS, err = processStartup(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	r, err := runWorkload(w, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *reportPath != "" {
		if err := writeJSON(*reportPath, r); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintln(os.Stderr, "bench: failed operation:", f)
	}
	line, err := contractLine(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
