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
// Fault tolerance: -checkpoint journals every completed launch by its
// content so an interrupted sweep resumes with -resume, replaying
// finished launches and emitting byte-identical tables. SIGINT/SIGTERM drain gracefully —
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
	"repro/internal/profiling"
)

// Flag bounds: values beyond these are almost certainly typos and would
// otherwise surface as panics or absurd memory use. -sms and -tlactive
// take experiments.Options.Validate's.
const (
	maxSMs      = experiments.MaxSMs
	maxWorkers  = 4096
	maxTLActive = experiments.MaxTwoLevelActive
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
	if workers < 0 || workers > maxWorkers {
		return fmt.Errorf("experiments: -workers %d out of range (want 0 for one per CPU, or 1..%d)", workers, maxWorkers)
	}
	return experiments.Options{SMs: sms, TwoLevelActive: tlActive, Scheduler: sched}.Validate()
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
	checkpoint := fs.String("checkpoint", "", "journal completed launches to this file (crash-safe, append-only)")
	resume := fs.Bool("resume", false, "replay completed launches from the -checkpoint journal instead of re-simulating them")
	keepGoing := fs.Bool("keepgoing", false, "a failing data point becomes an annotated table cell instead of aborting its experiment")
	maxCycles := fs.Uint64("maxcycles", 0, "per-launch simulated-cycle budget; runaway kernels fail with a cycle-budget error (0 = generous backstop)")
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
	if *resume && *checkpoint == "" {
		fmt.Fprintln(stderr, "experiments: -resume requires -checkpoint <file>")
		return exitUsage
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

	opt := experiments.Options{Quick: *quick, SMs: *sms, Workers: *workers,
		Scheduler: *sched, TwoLevelActive: *tlActive,
		Ctx: ctx, MaxCycles: *maxCycles, KeepGoing: *keepGoing}
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
			launches, replayed := j.Stats()
			if err := j.Close(); err != nil {
				fmt.Fprintln(stderr, "experiments: -checkpoint:", err)
			}
			fmt.Fprintf(stderr, "checkpoint %s: %d launches journaled, %d replayed\n",
				*checkpoint, launches, replayed)
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
			fmt.Fprintf(stderr, "completed launches are journaled; rerun with -checkpoint %s -resume\n", *checkpoint)
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
