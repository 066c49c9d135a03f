package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/wmma"
)

// memoLaunch is a small real launch for the memo tests: the fig12c
// microbenchmark at one warp.
func memoLaunch(t *testing.T) (gpu.Config, *kernels.Launch) {
	t.Helper()
	l, err := kernels.MMALoop(kernels.TensorMixed, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.TitanV()
	cfg.NumSMs = 1
	return cfg, l
}

func (o Options) memoLaunchOn(cfg gpu.Config, l *kernels.Launch) (*gpu.Stats, error) {
	return o.launchOn(cfg, l, []wmma.Precision{wmma.F16}, [][2]int{{64, 64}}, 0, false)
}

// waitJoined spins until n callers are waiting on a leader.
func waitJoined(m *launchMemo, n int64) {
	for m.stats().Joined < n {
		runtime.Gosched()
	}
}

// The launch key moves with every launch-level part the kernel digest
// and the config key do not cover (those have their own reflection
// tests in ptx and gpu), and a hand-assembled kernel has no key.
func TestLaunchKeyParts(t *testing.T) {
	cfg, l := memoLaunch(t)
	args := []int{8192}
	base, ok := launchKey(cfg, l, args, 0, false)
	if !ok {
		t.Fatal("a built kernel has no launch key")
	}
	if again, _ := launchKey(cfg, l, args, 0, false); again != base {
		t.Fatal("launch key is not a function of the launch")
	}
	rebuilt, err := kernels.MMALoop(kernels.TensorMixed, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := launchKey(cfg, rebuilt, args, 0, false); k != base {
		t.Error("two builds of one kernel have different launch keys")
	}
	alias := cfg
	alias.Name, alias.TwoLevelActive = "renamed", 9
	if k, _ := launchKey(alias, l, args, 0, false); k != base {
		t.Error("Name or a GTO launch's TwoLevelActive moved the launch key")
	}

	grid, block := *l, *l
	grid.Grid.Y++
	block.Block.X += 32
	otherKernel, err := kernels.MMALoop(kernels.TensorMixed, 1, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	otherCfg := cfg
	otherCfg.Scheduler = gpu.LRR
	for name, k := range map[string]func() (string, bool){
		"grid":       func() (string, bool) { return launchKey(cfg, &grid, args, 0, false) },
		"block":      func() (string, bool) { return launchKey(cfg, &block, args, 0, false) },
		"kernel":     func() (string, bool) { return launchKey(cfg, otherKernel, args, 0, false) },
		"config":     func() (string, bool) { return launchKey(otherCfg, l, args, 0, false) },
		"arg size":   func() (string, bool) { return launchKey(cfg, l, []int{8448}, 0, false) },
		"arg count":  func() (string, bool) { return launchKey(cfg, l, []int{8192, 0}, 0, false) },
		"maxCTAs":    func() (string, bool) { return launchKey(cfg, l, args, 1, false) },
		"trace flag": func() (string, bool) { return launchKey(cfg, l, args, 0, true) },
	} {
		if got, ok := k(); !ok || got == base {
			t.Errorf("changing the %s leaves the launch key unchanged", name)
		}
	}

	hand := &kernels.Launch{Kernel: &ptx.Kernel{Name: "hand"}, Grid: l.Grid, Block: l.Block}
	if _, ok := launchKey(cfg, hand, nil, 0, false); ok {
		t.Error("a hand-assembled kernel got a launch key")
	}
}

// N goroutines launching one key through a pool simulate exactly once
// and share the result; a bare Options (no pool) never touches a memo.
func TestMemoSingleFlight(t *testing.T) {
	cfg, l := memoLaunch(t)
	p := NewPool(4)
	defer p.Close()
	opt := Options{pool: p.p}
	const n = 16
	got := make([]*gpu.Stats, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st, err := opt.memoLaunchOn(cfg, l)
			if err != nil {
				t.Error(err)
			}
			got[g] = st
		}(g)
	}
	wg.Wait()
	ls := p.LaunchStats()
	if ls.Misses != 1 || ls.Hits+ls.Joined != n-1 || ls.Entries != 1 {
		t.Errorf("launch counters = %+v, want 1 miss and %d hits+joined", ls, n-1)
	}
	for g := 1; g < n; g++ {
		if got[g] != got[0] {
			t.Fatalf("caller %d got its own Stats; the launch simulated more than once", g)
		}
	}

	bare, err := Options{}.memoLaunchOn(cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	if bare == got[0] || *bare != *got[0] {
		t.Errorf("a pool-less launch = %+v (shared: %t), want a fresh equal result", *bare, bare == got[0])
	}
	if after := p.LaunchStats(); after != ls {
		t.Errorf("a pool-less launch moved the pool's counters: %+v → %+v", ls, after)
	}
}

// With the leader held inside its simulation, every other caller joins
// it: one run, n-1 joined, all sharing the leader's result.
func TestMemoFollowersWaitForLeader(t *testing.T) {
	m := newLaunchMemo(1 << 20)
	const n = 8
	want := &gpu.Stats{Cycles: 42}
	release := make(chan struct{})
	var runs atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := m.do(context.Background(), "k", func() (*gpu.Stats, error) {
				runs.Add(1)
				<-release
				return want, nil
			})
			if err != nil || st != want {
				t.Errorf("do = %v, %v", st, err)
			}
		}()
	}
	waitJoined(m, n-1)
	close(release)
	wg.Wait()
	if ls := m.stats(); runs.Load() != 1 || ls.Misses != 1 || ls.Joined != n-1 || ls.Hits != 0 {
		t.Errorf("%d runs, counters %+v; want 1 run, 1 miss, %d joined", runs.Load(), ls, n-1)
	}
}

// A leader that fails (a canceled simulation) or panics stores nothing:
// the follower that waited on it runs the launch itself and succeeds,
// and only that success is cached.
func TestMemoFailedLeaderIsNotCached(t *testing.T) {
	failures := map[string]func() (*gpu.Stats, error){
		"canceled": func() (*gpu.Stats, error) { return nil, context.Canceled },
		"panicked": func() (*gpu.Stats, error) { panic("leader blew up") },
	}
	for name, fail := range failures {
		t.Run(name, func(t *testing.T) {
			m := newLaunchMemo(1 << 20)
			want := &gpu.Stats{Cycles: 7}
			var wg sync.WaitGroup
			wg.Add(2)
			leading := make(chan struct{})
			go func() { // the leader
				defer wg.Done()
				defer func() { _ = recover() }()
				st, err := m.do(context.Background(), "k", func() (*gpu.Stats, error) {
					close(leading)
					waitJoined(m, 1)
					return fail()
				})
				if st != nil || err == nil {
					t.Errorf("failed leader returned %v, %v", st, err)
				}
			}()
			go func() { // the follower
				defer wg.Done()
				<-leading
				st, err := m.do(context.Background(), "k", func() (*gpu.Stats, error) { return want, nil })
				if err != nil || st != want {
					t.Errorf("follower = %v, %v; want its own successful run", st, err)
				}
			}()
			wg.Wait()
			if ls := m.stats(); ls.Misses != 2 || ls.Joined != 1 || ls.Entries != 1 {
				t.Errorf("counters %+v, want 2 misses (leader, then follower), 1 joined, 1 entry", ls)
			}
			if st, err := m.do(context.Background(), "k", nil); err != nil || st != want {
				t.Errorf("after the retry the key holds %v, %v; want the follower's result", st, err)
			}
		})
	}
}

// A waiting caller honours its own context while the leader runs on.
func TestMemoFollowerHonoursItsContext(t *testing.T) {
	m := newLaunchMemo(1 << 20)
	release := make(chan struct{})
	leaderDone := make(chan *gpu.Stats)
	go func() {
		st, _ := m.do(context.Background(), "k", func() (*gpu.Stats, error) {
			<-release
			return &gpu.Stats{Cycles: 1}, nil
		})
		leaderDone <- st
	}()
	for m.stats().Misses == 0 { // until the leader has registered
		runtime.Gosched()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st, err := m.do(ctx, "k", nil); st != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled follower = %v, %v; want context.Canceled", st, err)
	}
	close(release)
	if st := <-leaderDone; st == nil || st.Cycles != 1 {
		t.Errorf("leader result = %v", st)
	}
}

// A hit must not hand back a result the caller's own cycle budget would
// have reaped, and such a caller must not disturb the stored result.
func TestMemoHonoursMaxCycles(t *testing.T) {
	cfg, l := memoLaunch(t)
	p := NewPool(1)
	defer p.Close()
	st, err := Options{pool: p.p}.memoLaunchOn(cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	tight := Options{pool: p.p, MaxCycles: st.Cycles - 1}
	if got, err := tight.memoLaunchOn(cfg, l); !errors.Is(err, gpu.ErrCycleBudget) {
		t.Errorf("launch under MaxCycles %d (cached run took %d) = %v, %v; want ErrCycleBudget",
			tight.MaxCycles, st.Cycles, got, err)
	}
	exact := Options{pool: p.p, MaxCycles: st.Cycles}
	if got, err := exact.memoLaunchOn(cfg, l); err != nil || got != st {
		t.Errorf("launch under an exactly sufficient budget = %v, %v; want the cached result", got, err)
	}
	// A tight-budget leader fails uncached; the next caller simulates.
	q := NewPool(1)
	defer q.Close()
	tight.pool = q.p
	if _, err := tight.memoLaunchOn(cfg, l); !errors.Is(err, gpu.ErrCycleBudget) {
		t.Errorf("tight-budget leader: %v, want ErrCycleBudget", err)
	}
	if got, err := (Options{pool: q.p}).memoLaunchOn(cfg, l); err != nil || *got != *st {
		t.Errorf("launch after a reaped leader = %v, %v; want a fresh success", got, err)
	}
	if ls := q.LaunchStats(); ls.Entries != 1 || ls.Hits != 0 {
		t.Errorf("counters after a reaped leader = %+v, want 1 entry and no hits", ls)
	}
}

// The memo holds its byte budget, Trace slices included, by evicting
// least-recently-used results; a result larger than the whole budget is
// handed to its callers but never stored.
func TestMemoEvictionHoldsByteBound(t *testing.T) {
	const budget = 16 << 10
	m := newLaunchMemo(budget)
	traced := func(n int) *gpu.Stats {
		return &gpu.Stats{Trace: &gpu.Trace{WmmaLoad: make([]float64, n), WmmaMMA: make([]float64, n/2, n)}}
	}
	if got := statsBytes(traced(100)); got != 128+8*200 {
		t.Fatalf("statsBytes = %d, want the struct plus both backing arrays", got)
	}
	for i := 0; i < 64; i++ {
		key := string(rune('a' + i))
		if _, err := m.do(context.Background(), key, func() (*gpu.Stats, error) { return traced(100), nil }); err != nil {
			t.Fatal(err)
		}
		if ls := m.stats(); ls.Bytes > budget {
			t.Fatalf("after %d results the memo holds %d bytes, over its %d budget", i+1, ls.Bytes, budget)
		}
	}
	ls := m.stats()
	if ls.Evictions == 0 || ls.Entries+ls.Evictions != 64 {
		t.Errorf("counters %+v, want 64 results split between entries and evictions", ls)
	}
	huge := traced(budget)
	if st, err := m.do(context.Background(), "huge", func() (*gpu.Stats, error) { return huge, nil }); err != nil || st != huge {
		t.Errorf("oversize result = %v, %v; want it returned", st, err)
	}
	if after := m.stats(); after.Entries != ls.Entries || after.Bytes != ls.Bytes {
		t.Errorf("an oversize result changed the store: %+v → %+v", ls, after)
	}
}

// Every quick experiment, run twice on one long-lived Pool — the second
// pass answered from the memo — renders byte-identically to a fresh
// pool-less Run.
func TestPoolRepeatedRunsMatchFreshRun(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	for _, e := range All() {
		if testing.Short() && e.ID == "fig17" {
			continue // as in TestAllExperimentsQuick
		}
		want := runQuick(t, e.ID).String()
		for pass := 1; pass <= 2; pass++ {
			tb, err := p.Run(e, Options{Quick: true})
			if err != nil {
				t.Fatalf("%s pass %d: %v", e.ID, pass, err)
			}
			if tb.String() != want {
				t.Errorf("%s pass %d on the pool differs from a fresh Run", e.ID, pass)
			}
		}
	}
	ls := p.LaunchStats()
	if ls.Hits < ls.Misses || ls.Misses == 0 {
		t.Errorf("launch counters %+v: the second passes should all have hit", ls)
	}
}
