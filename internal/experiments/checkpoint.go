package experiments

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"repro/internal/gpu"
)

// Checkpoint/resume: an append-only, crash-safe JSONL journal of
// completed launches. A record is addressed by the launch key the memo
// uses (memo.go) — kernel digest, canonical config, geometry, operand
// sizes, CTA cap and trace flag — and holds that launch's Stats. A
// resumed run replays every launch an interrupted run completed and
// simulates only the rest; a launch whose kernel or config changed
// since has another key and simulates. Because tables are assembled in
// point index order from the same Stats, a resumed run's tables are
// byte-identical to an uninterrupted run's.

// journalRecord is one JSONL line of the checkpoint file. Exp and Point
// name the data point that first simulated the launch: provenance for a
// reader of the file, never part of the address.
type journalRecord struct {
	Key   string     `json:"key"`
	Exp   string     `json:"exp"`
	Point int        `json:"point"`
	Stats *gpu.Stats `json:"stats"`
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
	// seen maps every key on record to its Stats when loaded for replay,
	// and to nil when this run recorded it: the memo, not the journal,
	// answers a run's repeats, so the journal holds no Trace it wrote.
	//simlint:guardedby mu
	seen map[string]*gpu.Stats
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
	seen := make(map[string]*gpu.Stats)
	if resume {
		data, err := os.ReadFile(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			f.Close()
			return nil, fmt.Errorf("experiments: resume checkpoint %s: %w", path, err)
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			var rec journalRecord
			// A torn trailing line is the expected crash artifact, and a
			// record without Stats one of an older journal format: neither
			// replays (the launch re-simulates).
			if json.Unmarshal(line, &rec) == nil && rec.Stats != nil {
				seen[rec.Key] = rec.Stats
			}
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

// lookup returns the journaled Stats of the launch addressed by key (a
// launchKey), if any. A nil journal holds nothing. The Stats is shared
// and read-only, like a memo hit's.
func (j *Journal) lookup(key string) (*gpu.Stats, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.seen[hex.EncodeToString([]byte(key))]
	if st != nil {
		j.replayed++
	}
	return st, st != nil
}

// record journals one completed launch, with the data point that ran it
// as provenance. Duplicate keys are ignored, keeping the file
// append-only and replay idempotent. A nil journal records nothing.
func (j *Journal) record(key, exp string, point int, st *gpu.Stats) error {
	if j == nil {
		return nil
	}
	hexKey := hex.EncodeToString([]byte(key))
	line, err := json.Marshal(journalRecord{Key: hexKey, Exp: exp, Point: point, Stats: st})
	if err != nil {
		return fmt.Errorf("experiments: checkpoint %s point %d: %w", exp, point, err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.seen[hexKey]; dup {
		return nil
	}
	if j.f != nil {
		if _, err := j.f.Write(line); err != nil {
			return fmt.Errorf("experiments: checkpoint write: %w", err)
		}
	}
	j.seen[hexKey] = nil
	return nil
}

// Stats reports the journal's totals: completed launches on record and
// how many of them this run replayed instead of simulating.
func (j *Journal) Stats() (launches, replayed int) {
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
