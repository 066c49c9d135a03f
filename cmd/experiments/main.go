// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig9
//	experiments -run all -quick
//	experiments -run fig17 -sms 16
//	experiments -run all -workers 8
//	experiments -run all -quick -checkpoint sweep.ckpt
//	experiments -run all -quick -checkpoint sweep.ckpt -resume
//
// -run all schedules every experiment on one shared worker pool (the
// -workers budget is global across experiments) and streams each table to
// stdout in registry order as soon as it completes. Tables are
// byte-identical whatever the worker count; per-experiment timing and
// errors go to stderr. A failing experiment no longer suppresses the
// others: everything that succeeded still prints, and the command exits
// non-zero with a failure summary at the end.
//
// Fault tolerance: -checkpoint journals every completed data point so an
// interrupted sweep resumes with -resume, skipping finished points and
// emitting byte-identical tables. SIGINT/SIGTERM drain gracefully —
// in-flight points finish, completed tables still print, the journal
// stays valid. -keepgoing isolates per-point failures into annotated
// table cells; -maxcycles reaps runaway kernels.
//
// Exit codes: 0 success; 1 one or more experiments failed; 2 flag or
// infrastructure errors (bad flags, unknown experiment, unwritable
// checkpoint); 130 interrupted (completed work is in the checkpoint —
// rerun with -resume).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/gpu"
	"repro/internal/profiling"
	"repro/internal/ptx"
)

// Flag bounds: values beyond these are almost certainly typos (the full
// Titan V has 80 SMs) and would otherwise surface as panics or absurd
// memory use deep inside gpu.New.
const (
	maxSMs     = 1024
	maxWorkers = 4096
	// maxTLActive bounds -tlactive at the architectural warp budget: no
	// sub-core ever holds more warps than the SM-wide maximum.
	maxTLActive = 64
	maxRetries  = 16
)

// Exit codes of the fault-tolerance contract (see the package comment).
const (
	exitOK          = 0
	exitFailed      = 1
	exitUsage       = 2
	exitInterrupted = 130
)

// validateFlags rejects out-of-range -sms/-workers/-tlactive values and
// unknown -sched spellings at the flag boundary with a clear error
// instead of letting them misbehave deep in the simulator.
func validateFlags(sms, workers, tlActive int, sched string) error {
	if sms < 0 || sms > maxSMs {
		return fmt.Errorf("experiments: -sms %d out of range (want 0 for the default, or 1..%d)", sms, maxSMs)
	}
	if workers < 0 || workers > maxWorkers {
		return fmt.Errorf("experiments: -workers %d out of range (want 0 for one per CPU, or 1..%d)", workers, maxWorkers)
	}
	if tlActive < 0 || tlActive > maxTLActive {
		return fmt.Errorf("experiments: -tlactive %d out of range (want 0 for the config default, or 1..%d)", tlActive, maxTLActive)
	}
	if sched != "" {
		if _, err := gpu.ParseSchedulerPolicy(sched); err != nil {
			return fmt.Errorf("experiments: -sched: %v", err)
		}
	}
	return nil
}

// validateFaultFlags checks the fault-tolerance flag combinations.
func validateFaultFlags(checkpoint string, resume bool, retries int, faults string) error {
	if resume && checkpoint == "" {
		return fmt.Errorf("experiments: -resume requires -checkpoint <file>")
	}
	if retries < 0 || retries > maxRetries {
		return fmt.Errorf("experiments: -retries %d out of range (want 0..%d)", retries, maxRetries)
	}
	if _, err := faultinject.Parse(faults); err != nil {
		return fmt.Errorf("experiments: -faults: %v", err)
	}
	return nil
}

func main() {
	// SIGINT/SIGTERM cancel the run context: workers stop picking up new
	// data points, in-flight points drain, completed tables still print,
	// and the checkpoint journal is closed cleanly. A second signal kills
	// the process the usual way (signal.NotifyContext resets handlers
	// once the context is done — but only after run returns, so we stop
	// listening explicitly when run exits).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main's body with a normal return path, so the pprof writers'
// defers run before the process exits (os.Exit skips defers). It takes
// its args, streams and context explicitly so CLI tests can pin the
// whole exit-code contract in-process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available experiments")
	runID := fs.String("run", "", "experiment id to run, or 'all'")
	quick := fs.Bool("quick", false, "reduced problem sizes (seconds instead of minutes)")
	sms := fs.Int("sms", 0, "override simulated SM count (chip-slice scaling)")
	sched := fs.String("sched", "", "override warp scheduler for every experiment: gto | lrr | twolevel (default: per-experiment; the sched sweep ignores it)")
	tlActive := fs.Int("tlactive", 0, "two-level scheduler active-subset size per sub-core (0 = config default; other policies ignore it)")
	workers := fs.Int("workers", 0, "global worker-pool budget shared by all experiments' data points (0 = one per CPU, 1 = sequential)")
	checkpoint := fs.String("checkpoint", "", "journal completed data points to this file (crash-safe, append-only)")
	resume := fs.Bool("resume", false, "replay completed points from the -checkpoint journal instead of re-simulating them")
	keepGoing := fs.Bool("keepgoing", false, "a failing data point becomes an annotated table cell instead of aborting its experiment")
	maxCycles := fs.Uint64("maxcycles", 0, "per-launch simulated-cycle budget; runaway kernels fail with a cycle-budget error (0 = generous backstop)")
	retries := fs.Int("retries", 0, "retry budget per data point for transient failures (deterministic backoff)")
	faults := fs.String("faults", "", "fault-injection spec, e.g. 'panic@fig9:0,transient@*:*~5' (testing/debug)")
	faultSeed := fs.Uint64("faultseed", 0, "seed for probabilistic fault sampling")
	legacyFrag := fs.Bool("legacyfrag", false, "route wmma fragments through the per-element legacy path (debug/ablation; tables are bit-identical, just slower)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (hot-spot hunts: go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		// -h/-help surfaces as flag.ErrHelp: a successful usage request,
		// not a usage error — it used to exit 2 like a typo.
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}

	if err := validateFlags(*sms, *workers, *tlActive, *sched); err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	if err := validateFaultFlags(*checkpoint, *resume, *retries, *faults); err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	if *legacyFrag {
		// Swap-and-restore, not a bare set: run() is re-entered
		// in-process by the CLI tests, and leaking the process-global
		// knob across invocations is exactly what the Swap discipline
		// (PR 6) exists to prevent.
		defer ptx.SwapLegacyFragmentPath(true)()
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return exitUsage
	}
	defer stopProfiles()

	if *list || *runID == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "  %-8s %-11s %s\n", e.ID, e.Paper, e.Title)
		}
		if *runID == "" && !*list {
			fmt.Fprintln(stdout, "\nuse -run <id> or -run all")
		}
		return exitOK
	}

	// The injected Kill fault cancels the same context a SIGINT does: an
	// in-process stand-in for hard kills that makes the interrupt path
	// deterministically testable.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	plan, err := faultinject.Parse(*faults) // validated above
	if err != nil {
		fmt.Fprintln(stderr, "experiments: -faults:", err)
		return exitUsage
	}
	if plan != nil {
		plan.Seed = *faultSeed
		plan.Kill = cancel
	}

	opt := experiments.Options{Quick: *quick, SMs: *sms, Workers: *workers,
		Scheduler: *sched, TwoLevelActive: *tlActive,
		Ctx: ctx, MaxCycles: *maxCycles, KeepGoing: *keepGoing,
		Retries: *retries, Faults: plan}
	var todo []experiments.Experiment
	if *runID == "all" {
		todo = experiments.All()
	} else {
		e, err := experiments.ByID(*runID)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitUsage
		}
		todo = []experiments.Experiment{e}
	}

	if *checkpoint != "" {
		j, err := experiments.OpenJournal(*checkpoint, *resume)
		if err != nil {
			fmt.Fprintln(stderr, "experiments: -checkpoint:", err)
			return exitUsage
		}
		opt.Journal = j
		defer func() {
			points, replayed := j.Stats()
			if err := j.Close(); err != nil {
				fmt.Fprintln(stderr, "experiments: -checkpoint:", err)
			}
			fmt.Fprintf(stderr, "checkpoint %s: %d points journaled, %d replayed\n",
				*checkpoint, points, replayed)
		}()
	}

	// Stream each table in registry order as soon as it completes. Only
	// tables go to stdout — timing and failures go to stderr — so stdout
	// is byte-identical whatever the worker count. Under -keepgoing an
	// experiment can carry both a partial table and an error; the table
	// still prints, with its failed cells marked.
	results := experiments.RunAll(todo, opt, func(r experiments.Result) {
		if r.Err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", r.Experiment.ID, r.Err)
		}
		if r.Table == nil {
			return
		}
		fmt.Fprintf(stdout, "# %s (%s)\n", r.Experiment.Paper, r.Experiment.ID)
		fmt.Fprintln(stdout, r.Table.String())
		fmt.Fprintf(stderr, "%s completed in %v\n", r.Experiment.ID, r.Elapsed.Round(time.Millisecond))
	})

	// Interruption wins over per-experiment failures: the run was cut
	// short, so "failed" experiments are mostly just canceled ones.
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "experiments: interrupted")
		if *checkpoint != "" {
			fmt.Fprintf(stderr, "completed points are journaled; rerun with -checkpoint %s -resume\n", *checkpoint)
		}
		return exitInterrupted
	}
	if failed := experiments.Failures(results); len(failed) > 0 {
		fmt.Fprintf(stderr, "%d of %d experiments failed:\n", len(failed), len(results))
		for _, r := range failed {
			fmt.Fprintf(stderr, "  %-8s %v\n", r.Experiment.ID, r.Err)
		}
		return exitFailed
	}
	return exitOK
}
