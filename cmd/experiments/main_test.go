package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The -sms, -workers and -tlactive flags must be rejected at the flag
// boundary: negative or absurd values used to panic or silently
// misbehave deep in gpu.New.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		sms, workers, tlActive int
		sched                  string
		ok                     bool
	}{
		{0, 0, 0, "", true},
		{16, 4, 0, "", true},
		{16, 4, 0, "gto", true},
		{16, 4, 0, "lrr", true},
		{16, 4, 2, "twolevel", true},
		{maxSMs, maxWorkers, maxTLActive, "", true},
		{-1, 0, 0, "", false},
		{0, -1, 0, "", false},
		{maxSMs + 1, 0, 0, "", false},
		{0, maxWorkers + 1, 0, "", false},
		{0, 0, -1, "", false},
		{0, 0, maxTLActive + 1, "", false},
		{-80, -80, 0, "", false},
		{0, 0, 0, "fifo", false},
	}
	for _, c := range cases {
		err := validateFlags(c.sms, c.workers, c.tlActive, c.sched)
		if (err == nil) != c.ok {
			t.Errorf("validateFlags(%d, %d, %d, %q) = %v, want ok=%v",
				c.sms, c.workers, c.tlActive, c.sched, err, c.ok)
		}
	}
}

// execRun invokes the CLI in-process, returning (exit code, stdout,
// stderr). The whole exit-code contract is pinned this way — no
// subprocesses, no signals, fully deterministic.
func execRun(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// -h/-help is a successful usage request: flag.ErrHelp must map to
// exit 0 with the usage text, not to the usage-error exit 2.
func TestExitOKOnHelp(t *testing.T) {
	for _, h := range []string{"-h", "-help"} {
		code, _, serr := execRun(t, h)
		if code != exitOK {
			t.Errorf("%s = %d, want %d", h, code, exitOK)
		}
		if !strings.Contains(serr, "-run") {
			t.Errorf("%s did not print usage: %q", h, serr)
		}
	}
}

func TestExitOKAndListing(t *testing.T) {
	code, out, _ := execRun(t, "-list")
	if code != exitOK || !strings.Contains(out, "fig12c") {
		t.Fatalf("-list = %d, output %q", code, out)
	}
	code, out, _ = execRun(t, "-run", "fig9")
	if code != exitOK || !strings.Contains(out, "fig9") {
		t.Fatalf("-run fig9 = %d, want %d with a table", code, exitOK)
	}
}

// Flag and infrastructure errors exit 2: undefined flags (among them
// the deleted -retries, -faults, -faultseed and -legacyfrag),
// out-of-range values, unknown experiments, -resume without a
// checkpoint, and an unwritable checkpoint path.
func TestExitUsage(t *testing.T) {
	cases := [][]string{
		{"-bogus"},
		{"-run", "fig9", "-sms", "-1"},
		{"-run", "nope"},
		{"-run", "fig9", "-resume"},
		{"-run", "fig9", "-retries", "1"},
		{"-run", "fig9", "-faults", "panic@fig9:0"},
		{"-run", "fig9", "-faultseed", "1"},
		{"-run", "fig9", "-legacyfrag"},
		{"-run", "fig9", "-checkpoint", "/nonexistent-dir/ckpt"},
	}
	for _, args := range cases {
		if code, _, _ := execRun(t, args...); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitUsage)
		}
	}
}

// An experiment failure exits 1; under -keepgoing the partial table
// still prints with its failed cells marked. A one-cycle budget fails
// every point.
func TestExitFailedAndKeepGoing(t *testing.T) {
	args := []string{"-run", "fig12c", "-quick", "-workers", "1",
		"-maxcycles", "1"}
	code, out, _ := execRun(t, args...)
	if code != exitFailed || strings.Contains(out, "fig12c") {
		t.Fatalf("failing run = %d with table %q, want %d and no table", code, out, exitFailed)
	}
	code, out, serr := execRun(t, append(args, "-keepgoing")...)
	if code != exitFailed {
		t.Fatalf("keepgoing failing run = %d, want %d", code, exitFailed)
	}
	if !strings.Contains(out, "ERR!") || !strings.Contains(out, "fig12c") {
		t.Errorf("keepgoing stdout lacks the partial table: %q", out)
	}
	if !strings.Contains(serr, "fig12c point 0: gpu: cycle budget exceeded after 1 cycles") {
		t.Errorf("stderr lacks the failed point: %q", serr)
	}
}

// The acceptance path: an interrupted run exits 130 and points at
// -resume; resuming from a journal that holds only the first points
// exits 0, replays exactly those points, and prints stdout
// byte-identical to an uninterrupted run's.
func TestExitInterruptedAndResume(t *testing.T) {
	base := []string{"-run", "fig12c", "-quick", "-workers", "1"}

	t.Run("interrupted", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var stdout, stderr bytes.Buffer
		ckpt := filepath.Join(t.TempDir(), "ckpt")
		code := run(ctx, append(base, "-checkpoint", ckpt), &stdout, &stderr)
		if code != exitInterrupted {
			t.Fatalf("interrupted run = %d, want %d (stderr %q)", code, exitInterrupted, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-resume") {
			t.Errorf("interrupted stderr does not point at -resume: %q", stderr.String())
		}
	})

	t.Run("resume", func(t *testing.T) {
		ckpt := filepath.Join(t.TempDir(), "ckpt")
		code, ref, serr := execRun(t, append(base, "-checkpoint", ckpt)...)
		if code != exitOK {
			t.Fatalf("journaled run = %d, want %d (stderr %q)", code, exitOK, serr)
		}
		// Keep the first 3 journal lines: a run cut after its third launch.
		raw, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(raw), "\n")
		if len(lines) < 4 {
			t.Fatalf("journal holds %d lines, want 8 launches", len(lines)-1)
		}
		if err := os.WriteFile(ckpt, []byte(strings.Join(lines[:3], "")), 0o644); err != nil {
			t.Fatal(err)
		}

		code, out, serr := execRun(t, append(base, "-checkpoint", ckpt, "-resume")...)
		if code != exitOK {
			t.Fatalf("resumed run = %d, want %d (stderr %q)", code, exitOK, serr)
		}
		if out != ref {
			t.Fatalf("resumed stdout differs from the uninterrupted run:\n--- resumed\n%s\n--- reference\n%s", out, ref)
		}
		if !strings.Contains(serr, "8 launches journaled, 3 replayed") {
			t.Errorf("stderr does not report 3 of 8 launches replayed: %q", serr)
		}
	})
}
