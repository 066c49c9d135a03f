package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// PointKey must separate every identity axis that changes a point's
// payload, and nothing else: Workers and the fault-tolerance knobs must
// not perturb it, or a resumed run would re-simulate everything.
func TestPointKeyIdentity(t *testing.T) {
	base := Options{Quick: true}
	k := PointKey("fig12c", 3, base)
	distinct := map[string]string{
		"experiment": PointKey("fig14a", 3, base),
		"index":      PointKey("fig12c", 4, base),
		"quick":      PointKey("fig12c", 3, Options{}),
		"sms":        PointKey("fig12c", 3, Options{Quick: true, SMs: 8}),
		"sched":      PointKey("fig12c", 3, Options{Quick: true, Scheduler: "lrr"}),
		"tlactive":   PointKey("fig12c", 3, Options{Quick: true, TwoLevelActive: 4}),
	}
	for axis, other := range distinct {
		if other == k {
			t.Errorf("PointKey ignores the %s axis", axis)
		}
	}
	same := base
	same.Workers = 7
	same.KeepGoing = true
	same.MaxCycles = 1 << 20
	if PointKey("fig12c", 3, same) != k {
		t.Error("PointKey depends on Workers or fault-tolerance knobs; resume would re-simulate everything")
	}
}

func TestJournalRecordAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	type payload struct{ V float64 }
	if err := j.Record("k1", "fig12c", 0, payload{1.5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("k2", "fig12c", 1, payload{2.5}); err != nil {
		t.Fatal(err)
	}
	// Duplicate keys are idempotent.
	if err := j.Record("k1", "fig12c", 0, payload{9}); err != nil {
		t.Fatal(err)
	}
	if points, _ := j.Stats(); points != 2 {
		t.Fatalf("Stats points = %d, want 2", points)
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
	raw, ok := j2.Lookup("k1")
	if !ok || string(raw) != `{"V":1.5}` {
		t.Fatalf("Lookup(k1) = %q, %v; want the first payload", raw, ok)
	}
	if _, ok := j2.Lookup("k3"); ok {
		t.Fatal("Lookup(k3) found a record that was never journaled")
	}
	if points, replayed := j2.Stats(); points != 2 || replayed != 1 {
		t.Fatalf("Stats = (%d, %d), want (2, 1)", points, replayed)
	}
}

// Opening without resume starts from scratch even over an existing file.
func TestJournalTruncatesWithoutResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("k1", "e", 0, 1); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, ok := j2.Lookup("k1"); ok {
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
	if err := j.Record("k1", "e", 0, 1); err != nil {
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
	if _, ok := j2.Lookup("k1"); !ok {
		t.Fatal("intact record lost behind a torn line")
	}
	if _, ok := j2.Lookup("k2"); ok {
		t.Fatal("torn record replayed")
	}
	if err := j2.Record("k3", "e", 2, 3); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	for _, k := range []string{"k1", "k3"} {
		if _, ok := j3.Lookup(k); !ok {
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
				if err := j.Record(key, "e", i, i); err != nil {
					t.Errorf("Record(%s): %v", key, err)
				}
				j.Lookup(key)
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
	if points, _ := j2.Stats(); points != workers*per {
		t.Fatalf("resume found %d records, want %d", points, workers*per)
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
	if err := j.Record("k1", "e", 0, 1); err != nil {
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
	if _, ok := j2.Lookup("k1"); !ok {
		t.Fatal("record lost across a rejected second opener")
	}
}

// ExperimentKey is the whole-table content address: it must share
// PointKey's knob sensitivity (the serving cache serves stale bytes
// otherwise) while never colliding with any real point's key.
func TestExperimentKeyIdentity(t *testing.T) {
	base := Options{Quick: true}
	k := ExperimentKey("fig12c", base)
	if k == ExperimentKey("fig14a", base) {
		t.Error("ExperimentKey ignores the experiment ID")
	}
	if k == ExperimentKey("fig12c", Options{}) {
		t.Error("ExperimentKey ignores Quick")
	}
	if k == ExperimentKey("fig12c", Options{Quick: true, SMs: 16}) {
		t.Error("ExperimentKey ignores SMs")
	}
	if k != ExperimentKey("fig12c", Options{Quick: true, Workers: 7, MaxCycles: 99, KeepGoing: true}) {
		t.Error("ExperimentKey is perturbed by non-table-affecting knobs")
	}
	for i := 0; i < 64; i++ {
		if k == PointKey("fig12c", i, base) {
			t.Fatalf("ExperimentKey collides with PointKey index %d", i)
		}
	}
}
