// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment produces a Table whose rows are the same
// series the paper plots; EXPERIMENTS.md records the paper-vs-measured
// comparison for each. cmd/experiments runs them from the command line
// and bench_test.go wraps each in a testing.B benchmark.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/wmma"
)

// Options tunes experiment cost.
type Options struct {
	// Quick shrinks problem sizes and sweep points so the experiment
	// finishes in seconds — used by tests and benchmarks. The full
	// configuration reproduces the paper's sweep ranges.
	Quick bool
	// SMs overrides the number of simulated SMs for the chip-slice
	// scaling substitution (0 = experiment default). DRAM and L2
	// bandwidth scale proportionally so per-SM behaviour is preserved.
	SMs int
	// Scheduler overrides the warp scheduling policy of every simulated
	// launch ("gto", "lrr" or "twolevel"; "" = experiment default). The
	// scheduler sweep experiment ignores it — the sweep is the policy
	// axis itself.
	Scheduler string
	// TwoLevelActive overrides the two-level scheduler's active-subset
	// size per sub-core for every simulated launch (0 = config default).
	// GTO and LRR launches ignore it; the scheduler sweep honours it for
	// its twolevel column.
	TwoLevelActive int
	// Workers bounds the worker pool that fans an experiment's
	// independent data points across CPUs: 0 uses one worker per CPU,
	// 1 runs one point at a time. Parallel runs produce byte-identical
	// tables to sequential ones — each point simulates on its own
	// Simulator and results are assembled in point order. Under RunAll
	// the same value is the global budget shared by every experiment.
	Workers int

	// Ctx, when non-nil, cancels the run: the pool stops handing out
	// data points and in-flight simulations abort at their next
	// cancellation poll, so a SIGINT drains gracefully — completed
	// tables still stream and journaled launches survive for -resume.
	Ctx context.Context
	// MaxCycles is the per-simulation cycle-budget watchdog (0 = off,
	// i.e. the simulator's 4e9 backstop): a malformed infinite-loop
	// kernel is reaped with gpu.ErrCycleBudget instead of occupying a
	// shared pool worker forever.
	MaxCycles uint64
	// KeepGoing isolates point failures: a failing data point renders
	// as an annotated error cell and is aggregated into the
	// experiment's PointFailures error, instead of discarding the
	// experiment's remaining points.
	KeepGoing bool
	// Journal, when non-nil, checkpoints every completed launch and
	// replays journaled launches instead of re-simulating them (see
	// checkpoint.go).
	Journal *Journal

	// launchMod, when set, edits each launch before it simulates: the
	// tests' seam for turning TimingOnly off (to pin that it changes no
	// table) and for seeing which kernels the registry launches.
	launchMod func(*gpu.LaunchSpec)
	// pointHook, when set, runs inside each data point's panic
	// isolation before the point computes, and a non-nil error fails the
	// point: the tests' seam for panicking, hanging or killing a point.
	pointHook func(expID string, i int) error
	// pool, when set by RunAll or a Pool, routes every data point of
	// every experiment through one shared cross-experiment worker pool so
	// the Workers budget is global rather than per experiment; runPoints
	// sets a transient one when the caller has none.
	pool *sharedPool
	// exp and point, set by runPoints, name the data point a launch
	// belongs to: the provenance of its journal record.
	exp   string
	point int
}

// ctx resolves the cancellation context (Background when unset).
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Table is one regenerated artifact.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a summary line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	line(dashes(widths))
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Experiment is one registered table/figure reproduction.
type Experiment struct {
	ID    string
	Paper string // the artifact in the paper, e.g. "Figure 9"
	Title string
	Run   func(Options) (*Table, error)
}

// All returns the registry in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig7", "Figure 7", "Volta fragment-to-thread mappings", Fig7},
		{"fig8", "Figure 8", "Turing fragment-to-thread mappings", Fig8},
		{"fig9", "Figure 9", "Volta HMMA cumulative clock cycles", Fig9},
		{"tab1", "Table I", "Turing cumulative cycles per HMMA set", TableI},
		{"tab2", "Table II", "Octet composition and accessed elements", TableII},
		{"tab3", "Table III", "Octet outer-product computation by set and step", TableIII},
		{"fig10", "Figure 10", "Volta per-set/per-step sub-tile extents", Fig10},
		{"fig11", "Figure 11", "Turing per-set sub-tile extents", Fig11},
		{"fig12c", "Figure 12c", "Cycles vs warps per CTA for parallel HMMA", Fig12c},
		{"fig14a", "Figure 14a", "WMMA GEMM cycles vs matrix size, sim vs hardware proxy", Fig14a},
		{"fig14b", "Figure 14b", "CUTLASS GEMM IPC correlation", Fig14b},
		{"fig14c", "Figure 14c", "CUTLASS GEMM IPC vs matrix size", Fig14c},
		{"fig15", "Figure 15", "wmma instruction latency distributions", Fig15},
		{"fig16", "Figure 16", "wmma latency vs matrix size, with/without shared memory", Fig16},
		{"fig17", "Figure 17", "GEMM TFLOPS by implementation and size", Fig17},
		{"sched", "Extension", "CUTLASS GEMM IPC by warp scheduler policy", SchedSweep},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}

// fmtI formats an integer cell.
func fmtI(v uint64) string { return fmt.Sprintf("%d", v) }

// fmtF formats a float cell.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

// scaledTitanV returns a Titan V slice with sms SMs and proportionally
// scaled chip resources, so that per-SM behaviour (and therefore
// throughput per SM) matches the full 80-SM part. This is the scale
// substitution DESIGN.md documents for the paper's largest problems.
func scaledTitanV(sms int) gpu.Config {
	cfg := gpu.TitanV()
	if sms <= 0 || sms >= cfg.NumSMs {
		return cfg
	}
	frac := float64(sms) / float64(cfg.NumSMs)
	cfg.NumSMs = sms
	cfg.Mem.DRAMBytesPerCycle = max(8, int(float64(cfg.Mem.DRAMBytesPerCycle)*frac))
	cfg.Mem.DRAMChannels = max(1, int(float64(cfg.Mem.DRAMChannels)*frac))
	cfg.Mem.L2SizeBytes = max(64<<10, int(float64(cfg.Mem.L2SizeBytes)*frac))
	cfg.Mem.L2Banks = max(1, int(float64(cfg.Mem.L2Banks)*frac))
	cfg.Mem.L2BytesPerCycle = max(8, cfg.Mem.L2BytesPerCycle)
	return cfg
}

// The ranges Validate accepts: beyond them a value is almost certainly a
// typo (the full Titan V has 80 SMs, and no sub-core ever holds more warps
// than the SM-wide maximum of 64) and would otherwise surface as a panic
// or absurd memory use deep inside gpu.New.
const (
	MaxSMs            = 1024
	MaxTwoLevelActive = 64
)

// Validate rejects malformed options upfront — a misspelled Scheduler,
// which would otherwise be accepted silently by experiments that never
// simulate (the analytic tables) and reported once per simulating
// experiment under RunAll, and an SMs or TwoLevelActive out of range, which
// a caller that does not validate would run under a launch key of its own.
func (o Options) Validate() error {
	if o.Scheduler != "" {
		if _, err := gpu.ParseSchedulerPolicy(o.Scheduler); err != nil {
			return err
		}
	}
	if o.SMs < 0 || o.SMs > MaxSMs {
		return fmt.Errorf("experiments: SMs %d out of range (want 0 for the default, or 1..%d)", o.SMs, MaxSMs)
	}
	if o.TwoLevelActive < 0 || o.TwoLevelActive > MaxTwoLevelActive {
		return fmt.Errorf("experiments: TwoLevelActive %d out of range (want 0 for the config default, or 1..%d)",
			o.TwoLevelActive, MaxTwoLevelActive)
	}
	return nil
}

// applyKnobs applies the policy-independent config overrides — the
// per-policy knob sweep axis (currently TwoLevelActive). The scheduler
// sweep applies it too, so the knob reaches its twolevel column.
func (o Options) applyKnobs(cfg gpu.Config) gpu.Config {
	if o.TwoLevelActive > 0 {
		cfg.TwoLevelActive = o.TwoLevelActive
	}
	return cfg
}

// applySched applies the Options.Scheduler override (and the knob
// overrides) to a config.
func (o Options) applySched(cfg gpu.Config) (gpu.Config, error) {
	cfg = o.applyKnobs(cfg)
	if o.Scheduler == "" {
		return cfg, nil
	}
	p, err := gpu.ParseSchedulerPolicy(o.Scheduler)
	if err != nil {
		return cfg, err
	}
	cfg.Scheduler = p
	return cfg, nil
}

// titanV returns the chip-slice configuration (scaledTitanV) with the
// option overrides applied.
func (o Options) titanV(sms int) (gpu.Config, error) {
	return o.applySched(scaledTitanV(sms))
}

// launchOn runs a generated kernel on a fresh device of the given config,
// with zero-filled operands (timing experiments are data independent) and
// optional CTA sampling / tracing. The receiver threads the run's
// cancellation context and cycle-budget watchdog into the simulation,
// so every experiment's per-point launch is interruptible and bounded.
// It must carry the pool its point runs on (runPoints sets it).
//
// The launch goes through the pool's memo (memo.go): identical launches
// — across data points, experiments and, on a serving Pool, requests —
// simulate once. The memo's leader consults the run's journal first, so
// a launch an interrupted run completed replays instead of simulating,
// and journals what it simulates. The returned Stats may therefore be
// shared with other callers and is read-only, Trace included.
func (o Options) launchOn(cfg gpu.Config, l *kernels.Launch, elems []wmma.Precision, dims [][2]int,
	maxCTAs int, trace bool) (*gpu.Stats, error) {
	argBytes := make([]int, len(elems))
	for i := range elems {
		argBytes[i] = dims[i][0] * dims[i][1] * bytesOf(elems[i])
	}
	sim := func() (*gpu.Stats, error) { return o.simulate(cfg, l, argBytes, maxCTAs, trace) }
	key, ok := launchKey(cfg, l, argBytes, maxCTAs, trace)
	if !ok {
		return sim()
	}
	st, err := o.pool.memo.do(o.ctx(), key, func() (*gpu.Stats, error) {
		if st, ok := o.Journal.lookup(key); ok {
			return st, nil
		}
		st, err := sim()
		if err != nil {
			return nil, err
		}
		return st, o.Journal.record(key, o.exp, o.point, st)
	})
	if err == nil && st.Cycles > gpu.CycleBudget(o.MaxCycles) {
		// Another caller's larger budget, or an earlier run's, produced
		// this result; ours would have reaped the run. Let the simulator
		// say so itself.
		return sim()
	}
	return st, err
}

// simulate is launchOn's one simulation path. Tables read Stats and
// never an operand value, so the launch is TimingOnly.
func (o Options) simulate(cfg gpu.Config, l *kernels.Launch, argBytes []int, maxCTAs int, trace bool) (*gpu.Stats, error) {
	sim, err := gpu.New(cfg)
	if err != nil {
		return nil, err
	}
	mem := newZeroMemory()
	args := make([]uint64, len(argBytes))
	for i, n := range argBytes {
		args[i] = mem.alloc(n)
	}
	spec := gpu.LaunchSpec{
		Kernel:     l.Kernel,
		Grid:       l.Grid,
		Block:      l.Block,
		Args:       args,
		Global:     mem,
		MaxCTAs:    maxCTAs,
		Trace:      trace,
		MaxCycles:  o.MaxCycles,
		Ctx:        o.Ctx,
		TimingOnly: true,
	}
	if o.launchMod != nil {
		o.launchMod(&spec)
	}
	return sim.Run(spec)
}

func bytesOf(p wmma.Precision) int {
	b := p.Bits() / 8
	if b == 0 {
		b = 1
	}
	return b
}

// zeroMemory is an allocation-tracking memory that stays zero-filled but
// sparse: reads return zeros, writes land in a page map. It keeps the
// largest sampled GEMMs (16384² matrices would be 0.5 GiB each) cheap.
type zeroMemory struct {
	pages map[uint64][]byte
	brk   uint64
}

const zpageBits = 16

func newZeroMemory() *zeroMemory { return &zeroMemory{pages: make(map[uint64][]byte)} }

func (m *zeroMemory) alloc(n int) uint64 {
	addr := (m.brk + 255) &^ 255
	m.brk = addr + uint64(n)
	return addr
}

func (m *zeroMemory) Read(addr uint64, buf []byte) {
	for len(buf) > 0 {
		off := addr & (1<<zpageBits - 1)
		n := min(len(buf), 1<<zpageBits-int(off))
		if p, ok := m.pages[addr>>zpageBits]; ok {
			copy(buf[:n], p[off:])
		} else {
			clear(buf[:n])
		}
		addr += uint64(n)
		buf = buf[n:]
	}
}

func (m *zeroMemory) Write(addr uint64, data []byte) {
	for len(data) > 0 {
		page := addr >> zpageBits
		off := addr & (1<<zpageBits - 1)
		n := min(len(data), 1<<zpageBits-int(off))
		p, ok := m.pages[page]
		if !ok {
			p = make([]byte, 1<<zpageBits)
			m.pages[page] = p
		}
		copy(p[off:], data[:n])
		addr += uint64(n)
		data = data[n:]
	}
}

var _ ptx.Memory = (*zeroMemory)(nil)
