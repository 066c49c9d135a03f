package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/keytest"
)

// The exit-code contract, pinned in-process: -h/-help is a successful
// usage request (exit 0 with usage text — flag.ErrHelp used to exit 2
// like a typo), and bad flags exit 2: undefined ones (among them the
// deleted -scheduler alias and -legacyfrag) and bad values, -sizes and
// -kernel included (they used to exit 1 like a simulation failure).
func TestRunExitCodes(t *testing.T) {
	for _, h := range []string{"-h", "-help"} {
		var stderr bytes.Buffer
		if code := run([]string{h}, &stderr); code != exitOK {
			t.Errorf("%s = %d, want %d", h, code, exitOK)
		}
		if !strings.Contains(stderr.String(), "-kernel") {
			t.Errorf("%s did not print usage: %q", h, stderr.String())
		}
	}
	for _, args := range [][]string{
		{"-bogus"},
		{"-m", "-1"},
		{"-sms", "bogus"},
		{"-sched", "fifo"},
		{"-scheduler", "lrr"},
		{"-legacyfrag"},
		{"-sizes", "bogus"},
		{"-sizes", "16,0"},
		{"-kernel", "bogus"},
	} {
		if code := run(args, &bytes.Buffer{}); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitUsage)
		}
	}
}

// -cpuprofile and -memprofile must leave non-empty profiles behind a
// successful run, and an unwritable path must fail at the flag boundary,
// before anything is simulated.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var stderr bytes.Buffer
	args := []string{"-kernel", "hgemm", "-m", "64", "-n", "128", "-k", "16", "-sms", "1"}
	if code := run(append(args, "-cpuprofile", cpu, "-memprofile", mem), &stderr); code != exitOK {
		t.Fatalf("profiled run = %d, want %d: %s", code, exitOK, stderr.String())
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no profile written (%v)", filepath.Base(p), err)
		}
	}
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		stderr.Reset()
		bad := filepath.Join(dir, "missing", "p.pprof")
		if code := run(append(args, flag, bad), &stderr); code != exitUsage {
			t.Errorf("%s to an unwritable path = %d, want %d", flag, code, exitUsage)
		}
		if !strings.Contains(stderr.String(), flag) {
			t.Errorf("%s to an unwritable path did not name the flag: %q", flag, stderr.String())
		}
	}
}

// The MAX PERF kernel on the full 80-SM chip (Section V-C reports 109.6
// TFLOPS in FP16 mode and 108.7 in mixed precision against a 125 peak).
// Nothing stores its products, so every launch skips them and the full
// chip costs a fraction of a second.
func TestMaxPerfThroughput(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fp16acc"}, "107.84 TFLOPS"},
		{nil, "106.54 TFLOPS"},
	} {
		got, code, stderr := runStdout(t, append([]string{"-kernel", "maxperf"}, c.args...))
		if code != exitOK || !strings.Contains(got, "80 SMs") || !strings.Contains(got, "throughput  : "+c.want) {
			t.Errorf("maxperf %v = exit %d, want 80 SMs at %s:\n%s%s", c.args, code, c.want, got, stderr)
		}
	}
}

// runStdout calls run with the process stdout redirected to a file and
// returns what it printed, its exit code and its stderr.
func runStdout(t *testing.T, args []string) (stdout string, code int, stderr string) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	var errBuf bytes.Buffer
	code = run(args, &errBuf)
	os.Stdout = saved
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(got), code, errBuf.String()
}

// Verified launches print the same bytes whether the launch replays its
// values beside the timing loop (GOMAXPROCS 2) or computes them inline
// (GOMAXPROCS 1): Stats, TFLOPS and the error against the float64
// reference.
func TestStdoutIdenticalAcrossGOMAXPROCS(t *testing.T) {
	for _, args := range [][]string{
		{"-kernel", "sgemm", "-m", "64", "-n", "64", "-k", "32", "-sms", "2"},
		{"-kernel", "hgemm", "-m", "64", "-n", "128", "-k", "16", "-sms", "2"},
		{"-kernel", "cutlass", "-m", "128", "-n", "128", "-k", "64", "-sms", "2", "-policy", "b64x64_w32x32"},
		{"-kernel", "wmma", "-m", "64", "-n", "64", "-k", "64", "-sms", "2", "-fp16acc"},
	} {
		var outs [2]string
		for i, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			var code int
			var stderr string
			outs[i], code, stderr = runStdout(t, args)
			runtime.GOMAXPROCS(prev)
			if code != exitOK || !strings.Contains(outs[i], "max |error|") {
				t.Fatalf("%v at GOMAXPROCS %d = exit %d, want a verified run:\n%s%s", args, procs, code, outs[i], stderr)
			}
		}
		if outs[0] != outs[1] {
			t.Errorf("%v: stdout differs\nGOMAXPROCS 1:\n%s\nGOMAXPROCS 2:\n%s", args, outs[0], outs[1])
		}
	}
}

// Negative or absurd dimension/SM/worker flags must be rejected at the
// flag boundary instead of panicking inside the kernel generators or
// being silently ignored.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name         string
		kernel       string
		m, n, k      int
		sms, workers int
		tlActive     int
		scheduler    string
		sizes        string
		ok           bool
	}{
		{"defaults", "wmma", 256, 256, 256, 0, 0, 0, "gto", "", true},
		{"lrr", "sgemm", 64, 64, 64, 16, 2, 0, "lrr", "", true},
		{"twolevel", "hgemm", 64, 64, 64, 16, 2, 0, "twolevel", "", true},
		{"max bounds", "cutlass", maxDim, maxDim, maxDim, maxSMs, maxWorkers, 0, "gto", "", true},
		{"sizes", "wmma-naive", 256, 256, 256, 0, 0, 0, "gto", "16, 32,64", true},
		{"unknown kernel", "dgemm", 256, 256, 256, 0, 0, 0, "gto", "", false},
		{"negative m", "wmma", -64, 256, 256, 0, 0, 0, "gto", "", false},
		{"zero n", "wmma", 256, 0, 256, 0, 0, 0, "gto", "", false},
		{"huge k", "wmma", 256, 256, maxDim + 1, 0, 0, 0, "gto", "", false},
		{"negative sms", "wmma", 256, 256, 256, -5, 0, 0, "gto", "", false},
		{"huge sms", "wmma", 256, 256, 256, maxSMs + 1, 0, 0, "gto", "", false},
		{"negative workers", "wmma", 256, 256, 256, 0, -1, 0, "gto", "", false},
		{"tlactive", "maxperf", 256, 256, 256, 0, 0, 8, "twolevel", "", true},
		{"negative tlactive", "wmma", 256, 256, 256, 0, 0, -1, "gto", "", false},
		{"huge tlactive", "wmma", 256, 256, 256, 0, 0, maxTLActive + 1, "gto", "", false},
		{"bad scheduler", "wmma", 256, 256, 256, 0, 0, 0, "fifo", "", false},
		{"bad size", "wmma", 256, 256, 256, 0, 0, 0, "gto", "16,x", false},
		{"zero size", "wmma", 256, 256, 256, 0, 0, 0, "gto", "16,0", false},
		{"huge size", "wmma", 256, 256, 256, 0, 0, 0, "gto", "16,262144", false},
	}
	for _, c := range cases {
		sizes, err := validateFlags(c.kernel, c.m, c.n, c.k, c.sms, c.workers, c.tlActive, c.scheduler, c.sizes)
		if (err == nil) != c.ok {
			t.Errorf("%s: validateFlags = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.name == "sizes" && !slices.Equal(sizes, []int{16, 32, 64}) {
			t.Errorf("sizes: parsed %v, want [16 32 64]", sizes)
		}
	}
}

// Every numeric gpu.Stats counter reaches the report: changing any one
// of them changes the printed block, so a counter added to Stats cannot
// be silently dropped from it.
func TestReportStatsPrintsEveryCounter(t *testing.T) {
	cfg := gpu.TitanV()
	st := gpu.Stats{Cycles: 1000, WarpInstructions: 400, ThreadInstructions: 12800, TensorOps: 16,
		CTAsSimulated: 2, CTAsTotal: 4, L1HitRate: 0.5, L2HitRate: 0.25, DRAMAccesses: 64, SharedConflicts: 8}
	report := func() string {
		var b bytes.Buffer
		reportStats(&b, &st, cfg, 1e9)
		return b.String()
	}
	base := report()
	keytest.EachField(&st, func(path string) {
		if path == "Trace" {
			return // latency samples, not a counter
		}
		if report() == base {
			t.Errorf("changing Stats.%s leaves the report unchanged:\n%s", path, base)
		}
	})
}
