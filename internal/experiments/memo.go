package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/servecache"
)

// The launch memo: every distinct launch simulates once per pool. The
// simulator is deterministic, so a launch's Stats are a pure function
// of its content — kernel, config, geometry, operand sizes, sampling
// cap and trace flag (launchOn zero-fills the operands, so nothing else
// feeds the result). Options.launchOn addresses each launch by that
// content and consults the memo its pool owns: RunAll's for one call,
// a serving Pool's for the server's life, the transient pool's for a
// bare Experiment.Run. The same key, hex-encoded, addresses the launch
// in a checkpoint journal (checkpoint.go).

// launchMemoBytes is the memo's byte budget, Trace slices included.
const launchMemoBytes = 64 << 20

// LaunchStats is the launch memo's counter snapshot, surfaced on
// cmd/simd's /statsz. Hits + Misses + Joined is the number of launches
// that reached the memo; Misses of them simulated.
type LaunchStats struct {
	// Hits counts launches answered from a stored result.
	Hits int64
	// Misses counts launches that simulated (and stored their result
	// unless they failed).
	Misses int64
	// Joined counts launches that found an identical one in flight and
	// waited for its leader instead of simulating.
	Joined int64
	// Evictions counts results dropped to hold the byte budget.
	Evictions int64
	// Entries is the current number of stored results.
	Entries int64
	// Bytes is their current total as statsBytes prices them; at most
	// launchMemoBytes.
	Bytes int64
}

// launchMemo is a bounded, single-flight memo of launch results.
type launchMemo struct {
	// results has its own lock; mu is taken first wherever both are held.
	results *servecache.LRU[*gpu.Stats]

	// mu guards flights and joined.
	mu sync.Mutex
	// flights holds the launches being simulated right now. A key is
	// never both in flight and stored: the leader stores its result and
	// retires the flight under one hold of mu.
	flights map[string]*flight
	joined  int64
}

// flight is one in-progress launch its followers wait on.
type flight struct {
	// done closes when the leader has finished, however it finished.
	done chan struct{}
	// st is the leader's result, written before done closes; nil when
	// the leader failed, was canceled or panicked.
	st *gpu.Stats
}

func newLaunchMemo(maxBytes int64) *launchMemo {
	m := &launchMemo{results: servecache.NewLRU(maxBytes, statsBytes)}
	m.mu.Lock()
	m.flights = make(map[string]*flight)
	m.mu.Unlock()
	return m
}

// statsBytes prices one stored result: the struct plus the backing
// arrays of its Trace.
func statsBytes(st *gpu.Stats) int64 {
	n := int64(128)
	if t := st.Trace; t != nil {
		n += 8 * int64(cap(t.WmmaLoad)+cap(t.WmmaMMA)+cap(t.WmmaStore))
	}
	return n
}

// do returns the result of the launch addressed by key, simulating it
// with run at most once however many callers ask at the same time. The
// returned Stats (and its Trace) is shared with every other caller of
// the key and must be treated as read-only.
//
// Only successes are stored. A caller that waited on a leader which
// failed, was canceled or panicked starts over — typically becoming the
// next leader — so one caller's context or cycle budget never decides
// another's outcome. A waiting caller still honours its own ctx.
func (m *launchMemo) do(ctx context.Context, key string, run func() (*gpu.Stats, error)) (*gpu.Stats, error) {
	for {
		m.mu.Lock()
		f, inFlight := m.flights[key]
		if inFlight {
			m.joined++
			m.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("experiments: canceled waiting on an identical launch: %w", ctx.Err())
			}
			if f.st != nil {
				return f.st, nil
			}
			continue
		}
		if st, ok := m.results.Get(key); ok {
			m.mu.Unlock()
			return st, nil
		}
		f = &flight{done: make(chan struct{})}
		m.flights[key] = f
		m.mu.Unlock()
		return m.lead(key, f, run)
	}
}

// lead simulates as the key's leader and publishes the outcome to the
// flight's followers. The deferred publish also runs when run panics
// (the results are then still nil, so nothing is stored) and lets the
// panic continue to the data point's recover.
func (m *launchMemo) lead(key string, f *flight, run func() (*gpu.Stats, error)) (st *gpu.Stats, err error) {
	defer func() {
		m.mu.Lock()
		if err == nil && st != nil {
			m.results.Put(key, st)
			f.st = st
		}
		delete(m.flights, key)
		m.mu.Unlock()
		close(f.done)
	}()
	return run()
}

// stats returns the counter snapshot.
func (m *launchMemo) stats() LaunchStats {
	m.mu.Lock()
	joined := m.joined
	m.mu.Unlock()
	rs := m.results.Stats()
	return LaunchStats{
		Hits:      rs.Hits,
		Misses:    rs.Misses,
		Joined:    joined,
		Evictions: rs.Evictions,
		Entries:   rs.Entries,
		Bytes:     rs.Bytes,
	}
}

// launchKey is the content address of one launchOn call: a SHA-256 over
// the kernel digest, the canonical config, the launch geometry, the
// operand byte sizes (which fix the argument addresses), the CTA
// sampling cap and the trace flag. ok is false for a hand-assembled
// kernel, which has no digest and is never memoized or journaled.
func launchKey(cfg gpu.Config, l *kernels.Launch, argBytes []int, maxCTAs int, trace bool) (key string, ok bool) {
	digest := l.Kernel.Digest()
	if digest == "" {
		return "", false
	}
	b := append(make([]byte, 0, 2048), digest...)
	for _, v := range []int{l.Grid.X, l.Grid.Y, l.Grid.Z, l.Block.X, l.Block.Y, l.Block.Z, maxCTAs, len(argBytes)} {
		b = binary.AppendVarint(b, int64(v))
	}
	for _, n := range argBytes {
		b = binary.AppendVarint(b, int64(n))
	}
	b = strconv.AppendBool(b, trace)
	// The variable-length config goes last, after the fixed-width digest
	// and the self-delimiting varints, so no two part lists can alias.
	b = cfg.AppendLaunchKey(b)
	sum := sha256.Sum256(b)
	return string(sum[:]), true
}
