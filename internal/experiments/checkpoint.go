package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
)

// Checkpoint/resume: an append-only, crash-safe JSONL journal of
// completed data points. Every point is keyed by a deterministic hash
// of (experiment ID, point index, table-affecting knobs), so a resumed
// run replays exactly the points an interrupted run completed and
// simulates only the remainder. Because tables are assembled in point
// index order (the PR 1/2 contract), a resumed run's tables are
// byte-identical to an uninterrupted run's. The same keying is the seed
// of the content-addressed result cache the serving roadmap item needs:
// the key is the cache address, the payload the cached value.

// pointKeyVersion is bumped whenever the key derivation or any payload
// encoding changes shape, invalidating old journals wholesale instead
// of replaying stale payloads into new table layouts.
const pointKeyVersion = "tcgpu-point-v1"

// PointKey returns the deterministic identity of one data point: a
// 128-bit hex digest of the experiment ID, the point index and every
// Options knob that can change the point's payload (Quick, SMs,
// Scheduler, TwoLevelActive). Workers is excluded — tables are
// byte-identical at any pool size — as are the fault-tolerance knobs
// themselves (checkpointing, the watchdog and keep-going never change
// what a *successful* point computes, and only successes are journaled).
func PointKey(expID string, index int, opt Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00quick=%t sms=%d sched=%s tla=%d",
		pointKeyVersion, expID, index, opt.Quick, opt.SMs, opt.Scheduler, opt.TwoLevelActive)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ExperimentKey returns the deterministic identity of one experiment's
// whole table under the given options: the content address the serving
// cache (internal/servecache, cmd/simd) stores rendered tables under.
// It is the PointKey derivation applied to the reserved whole-table
// index -1 (real data points are numbered from 0), so the two key
// spaces can never collide and a cache entry inherits PointKey's
// invalidation story — bumping pointKeyVersion invalidates both.
// Like PointKey it hashes only the table-affecting knobs: the
// fault-tolerance options (MaxCycles, KeepGoing, Journal) bound how
// a run can fail, never what a *successful* table contains, and only
// successes are cached.
func ExperimentKey(expID string, opt Options) string {
	return PointKey(expID, -1, opt)
}

// journalRecord is one JSONL line of the checkpoint file.
type journalRecord struct {
	Key     string          `json:"key"`
	Exp     string          `json:"exp"`
	Point   int             `json:"point"`
	Payload json.RawMessage `json:"payload"`
}

// Journal is the crash-safe checkpoint store. Records append as single
// O_APPEND writes — a record either lands whole or, if the process dies
// mid-write (power loss; a plain kill leaves completed writes in the
// page cache), as a torn trailing line that the loader skips. Pool
// workers record concurrently; every field access is mutex-guarded.
type Journal struct {
	mu sync.Mutex
	//simlint:guardedby mu
	f *os.File
	//simlint:guardedby mu
	seen map[string]json.RawMessage
	//simlint:guardedby mu
	replayed int
}

// OpenJournal opens the checkpoint file at path. With resume true, any
// existing records are loaded for replay and new records append after
// them; otherwise the file is truncated and the run journals from
// scratch.
//
// The file is held under an exclusive advisory lock (flock) for the
// journal's lifetime: two processes pointing -checkpoint at the same
// file used to interleave their records silently, corrupting both
// runs' resume state. The second opener now fails fast with a clear
// error instead. The lock is advisory — it serializes journal users,
// not arbitrary writers — and releases automatically when the journal
// (or the process) closes.
func OpenJournal(path string, resume bool) (*Journal, error) {
	// Open before truncating: the truncation must only happen once the
	// lock is held, or a fresh run could clobber a live journal it then
	// fails to lock.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiments: checkpoint %s: %w", path, err)
	}
	if err := lockJournal(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: checkpoint %s: %w", path, err)
	}
	seen := make(map[string]json.RawMessage)
	if resume {
		data, err := os.ReadFile(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			f.Close()
			return nil, fmt.Errorf("experiments: resume checkpoint %s: %w", path, err)
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				// A torn trailing line is the expected crash artifact;
				// it is simply not replayed (the point re-simulates).
				continue
			}
			seen[rec.Key] = rec.Payload
		}
	} else if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: checkpoint %s: %w", path, err)
	}
	if resume {
		// Terminate a torn trailing line so the first appended record
		// does not concatenate onto the crash artifact.
		if st, err := f.Stat(); err == nil && st.Size() > 0 {
			var last [1]byte
			if _, err := f.ReadAt(last[:], st.Size()-1); err == nil && last[0] != '\n' {
				if _, err := f.Write([]byte("\n")); err != nil {
					f.Close()
					return nil, fmt.Errorf("experiments: checkpoint %s: %w", path, err)
				}
			}
		}
	}
	j := &Journal{}
	j.mu.Lock()
	j.f = f
	j.seen = seen
	j.mu.Unlock()
	return j, nil
}

// Lookup returns the journaled payload for key, if any.
func (j *Journal) Lookup(key string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, ok := j.seen[key]
	if ok {
		j.replayed++
	}
	return raw, ok
}

// Record journals one completed point. Duplicate keys (a replayed point
// re-recorded, or two options signatures colliding on the same work)
// are ignored, keeping the file append-only and replay idempotent.
func (j *Journal) Record(key, exp string, point int, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("experiments: checkpoint %s point %d: %w", exp, point, err)
	}
	line, err := json.Marshal(journalRecord{Key: key, Exp: exp, Point: point, Payload: raw})
	if err != nil {
		return fmt.Errorf("experiments: checkpoint %s point %d: %w", exp, point, err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.seen[key]; dup {
		return nil
	}
	if j.f != nil {
		if _, err := j.f.Write(line); err != nil {
			return fmt.Errorf("experiments: checkpoint write: %w", err)
		}
	}
	j.seen[key] = raw
	return nil
}

// Stats reports the journal's totals: completed points on record and
// how many of them this run replayed instead of simulating.
func (j *Journal) Stats() (points, replayed int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.seen), j.replayed
}

// Close syncs and closes the journal file. Safe to call once.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
