package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/keytest"
)

func TestJournalRecordAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	first := &gpu.Stats{Cycles: 15, L1HitRate: 0.1, Trace: &gpu.Trace{WmmaMMA: []float64{70, 71.5}}}
	if err := j.record("k1", "fig12c", 0, first); err != nil {
		t.Fatal(err)
	}
	if err := j.record("k2", "fig12c", 1, &gpu.Stats{Cycles: 25}); err != nil {
		t.Fatal(err)
	}
	// Duplicate keys are idempotent.
	if err := j.record("k1", "fig12c", 0, &gpu.Stats{Cycles: 9}); err != nil {
		t.Fatal(err)
	}
	if launches, _ := j.Stats(); launches != 2 {
		t.Fatalf("Stats launches = %d, want 2", launches)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	st, ok := j2.lookup("k1")
	if !ok || !reflect.DeepEqual(st, first) {
		t.Fatalf("lookup(k1) = %+v, %v; want the first Stats", st, ok)
	}
	if _, ok := j2.lookup("k3"); ok {
		t.Fatal("lookup(k3) found a record that was never journaled")
	}
	if launches, replayed := j2.Stats(); launches != 2 || replayed != 1 {
		t.Fatalf("Stats = (%d, %d), want (2, 1)", launches, replayed)
	}
}

// Opening without resume starts from scratch even over an existing file.
func TestJournalTruncatesWithoutResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record("k1", "e", 0, &gpu.Stats{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, ok := j2.lookup("k1"); ok {
		t.Fatal("truncating open replayed an old record")
	}
}

// A torn trailing line — the artifact of dying mid-write — must not
// poison the journal: intact records load, the torn one re-simulates,
// and appending after resume does not concatenate onto the torn bytes.
func TestJournalTornTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record("k1", "e", 0, &gpu.Stats{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"k2","exp":"e","po`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j2.lookup("k1"); !ok {
		t.Fatal("intact record lost behind a torn line")
	}
	if _, ok := j2.lookup("k2"); ok {
		t.Fatal("torn record replayed")
	}
	if err := j2.record("k3", "e", 2, &gpu.Stats{Cycles: 3}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	for _, k := range []string{"k1", "k3"} {
		if _, ok := j3.lookup(k); !ok {
			t.Errorf("record %s lost after appending past a torn line", k)
		}
	}
}

// Pool workers record concurrently; run with -race this pins the
// journal's locking. Every record must survive a resume round-trip.
func TestJournalConcurrentRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("k%d-%d", w, i)
				if err := j.record(key, "e", i, &gpu.Stats{Cycles: uint64(i)}); err != nil {
					t.Errorf("record(%s): %v", key, err)
				}
				j.lookup(key)
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if launches, _ := j2.Stats(); launches != workers*per {
		t.Fatalf("resume found %d records, want %d", launches, workers*per)
	}
}

// Two runs sharing one checkpoint file used to interleave their
// journals silently; the advisory lock makes the second opener fail
// fast with a clear error, and closing the holder releases the lock.
func TestJournalLockExcludesSecondOpener(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record("k1", "e", 0, &gpu.Stats{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	for _, resume := range []bool{false, true} {
		if _, err := OpenJournal(path, resume); err == nil {
			t.Fatalf("second OpenJournal(resume=%t) on a locked journal succeeded", resume)
		} else if !strings.Contains(err.Error(), "locked") {
			t.Errorf("second OpenJournal(resume=%t) error does not name the lock: %v", resume, err)
		}
	}
	// The failed resume attempt must not have clobbered the journal.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer j2.Close()
	if _, ok := j2.lookup("k1"); !ok {
		t.Fatal("record lost across a rejected second opener")
	}
}

// A checkpoint cannot outlive its kernel: when a resumed experiment's
// point launches another kernel than the interrupted run's, the old
// launch's Stats is not replayed — the new launch simulates.
func TestResumeSimulatesChangedKernel(t *testing.T) {
	cfg, k := memoLaunch(t)
	k2, err := kernels.MMALoop(kernels.TensorMixed, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt")
	point := func(l *kernels.Launch, j *Journal) *gpu.Stats {
		vals, _, err := runPoints(Options{Workers: 1, Journal: j}, "stale", 1, func(opt Options, _ int) (*gpu.Stats, error) {
			return opt.memoLaunchOn(cfg, l)
		})
		if err != nil {
			t.Fatal(err)
		}
		return vals[0]
	}
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	old := point(k, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := point(k2, nil)
	if old.Cycles == want.Cycles {
		t.Fatalf("both kernels take %d cycles; the test cannot tell their Stats apart", old.Cycles)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := point(k2, j2); *got != *want {
		t.Errorf("resumed point with a changed kernel = %+v, want the new kernel's %+v", *got, *want)
	}
	if _, replayed := j2.Stats(); replayed != 0 {
		t.Errorf("replayed %d launches of a kernel the resumed run never launched", replayed)
	}
}

// The whole quick registry journals and resumes: the resumed tables are
// byte-identical, every journaled launch is replayed, and the resume
// simulates nothing.
func TestResumeWholeRegistry(t *testing.T) {
	var exps []Experiment
	for _, e := range All() {
		if testing.Short() && e.ID == "fig17" {
			continue // as in TestAllExperimentsQuick
		}
		exps = append(exps, e)
	}
	path := filepath.Join(t.TempDir(), "ckpt")
	run := func(resume bool) (out string, sims int64, launches, replayed int) {
		j, err := OpenJournal(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		var n atomic.Int64
		opt := Options{Quick: true, Journal: j, launchMod: func(*gpu.LaunchSpec) { n.Add(1) }}
		var b strings.Builder
		results := RunAll(exps, opt, func(r Result) {
			if r.Table != nil {
				b.WriteString(r.Table.String())
			}
		})
		if err := Errs(results); err != nil {
			t.Fatal(err)
		}
		launches, replayed = j.Stats()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return b.String(), n.Load(), launches, replayed
	}
	ref, sims, journaled, _ := run(false)
	if sims == 0 || int64(journaled) != sims {
		t.Fatalf("the journaled run simulated %d launches and journaled %d; want every one journaled", sims, journaled)
	}
	got, sims, launches, replayed := run(true)
	if got != ref {
		t.Error("resumed registry tables differ from the journaled run's")
	}
	if sims != 0 || launches != journaled || replayed != journaled {
		t.Errorf("resume simulated %d launches and replayed %d of %d (journal now holds %d); want 0 and all",
			sims, replayed, journaled, launches)
	}
}

// A journal of the older point-keyed format (or any record without
// Stats) loads as empty: it replays nothing and raises no error.
func TestJournalOldFormatReplaysNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	old := `{"key":"0123456789abcdef0123456789abcdef","exp":"fig12c","point":0,"payload":123}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if launches, replayed := j.Stats(); launches != 0 || replayed != 0 {
		t.Errorf("old-format journal loads as (%d, %d), want (0, 0)", launches, replayed)
	}
}

// ExperimentKey is the whole-table content address: every exported
// Options field must move it — the serving cache serves stale bytes
// otherwise — unless it is on the list of fields that never change what
// a successful table contains.
func TestExperimentKeyIdentity(t *testing.T) {
	exempt := map[string]bool{"Workers": true, "Ctx": true, "MaxCycles": true, "KeepGoing": true, "Journal": true}
	opt := Options{Quick: true, Ctx: context.Background()}
	base := ExperimentKey("fig12c", opt)
	if base == ExperimentKey("fig14a", opt) {
		t.Error("ExperimentKey ignores the experiment ID")
	}
	visited := map[string]bool{}
	keytest.EachField(&opt, func(path string) {
		visited[path] = true
		if moved := ExperimentKey("fig12c", opt) != base; moved == exempt[path] {
			t.Errorf("changing %s: key moved = %t, want %t", path, moved, !exempt[path])
		}
	})
	for name := range exempt {
		if !visited[name] {
			t.Errorf("exception %s is no Options field", name)
		}
	}
}
