package main

import (
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// step is one job of a request sequence: which key, and whether it is
// submitted async (POST, then GET the output) or as a waiting POST.
type step struct {
	Key   int
	Async bool
}

// serveExperiments are the simulating experiments that finish in
// 30–350 ms in quick mode: cheap enough to simulate a hundred of, dear
// enough that a cold job and a cache hit differ by three orders.
var serveExperiments = []string{"fig12c", "fig14a", "fig14c", "fig15", "fig16", "sched"}

// jobKey is the j-th cache key of an experiment: each experiment has 36
// (scheduler spelling × two-level subset size × SM override), of which
// class 0 and class 1 pick two disjoint dozens that each cover every
// scheduler and subset size. The key sets are fixed so that every seed
// pays for the same simulations; the seed decides their popularity and
// the order of the requests.
func jobKey(exp string, j, class int) jobRequest {
	i := 3*j + (j+class)%3
	return jobRequest{Experiment: exp, Quick: true,
		Sched:    []string{"", "gto", "lrr", "twolevel"}[i/9],
		TLActive: []int{0, 2, 8}[i/3%3],
		SMs:      []int{0, 4, 8}[i%3]}
}

// keySet returns n keys of a class, cycling through the experiments.
func keySet(n, class int, tiny bool) []jobRequest {
	exps := serveExperiments
	if tiny {
		exps = exps[:2]
	}
	keys := make([]jobRequest, n)
	for k := range keys {
		keys[k] = jobKey(exps[k%len(exps)], k/len(exps), class)
	}
	return keys
}

// mixedPlan is serve_mixed's request sequence. The jobs of one segment
// are pulled by whichever client is free; after each segment every
// client posts that segment's Dup key at the same moment, a key nothing
// has touched before.
type mixedPlan struct {
	Keys     []jobRequest
	Segments [][]step
	Dups     []jobRequest
}

// planMixed draws the sequence from the seed: every popular key once,
// at a seeded position, among Zipf draws over a seeded popularity
// order, so that about one request in fourteen simulates and the rest
// are cache hits.
func planMixed(seed int64, seconds float64, tiny bool) mixedPlan {
	rng := rand.New(rand.NewSource(seed))
	requests, popular, dups := int(150*seconds), 6*min(12, max(1, int(1.2*seconds))), 16
	if tiny {
		requests, popular, dups = 24, 4, 2
	}
	p := mixedPlan{Keys: keySet(popular, 0, tiny), Dups: keySet(dups, 1, tiny)}
	rng.Shuffle(popular, func(i, j int) { p.Keys[i], p.Keys[j] = p.Keys[j], p.Keys[i] })

	zipf := rand.NewZipf(rng, 1.1, 1, uint64(popular-1))
	seq := make([]step, requests)
	for i := range seq {
		seq[i].Key = int(zipf.Uint64())
	}
	for k, at := range rng.Perm(requests)[:popular] {
		seq[at].Key = k
	}
	p.Segments = make([][]step, dups)
	for i, st := range seq {
		seg := i * dups / requests
		p.Segments[seg] = append(p.Segments[seg], st)
	}
	return p
}

// planHot draws serve_hot's sequence: uniform over the hot keys in a
// seeded order, alternating waiting and async submission.
func planHot(seed int64, seconds float64, tiny bool) (keys []jobRequest, steps []step) {
	rng := rand.New(rand.NewSource(seed))
	hot, requests := 32, int(6000*seconds)
	if tiny {
		hot, requests = 4, 200
	}
	keys = keySet(hot, 0, tiny)
	for i := 0; i < requests; i++ {
		steps = append(steps, step{Key: rng.Intn(hot), Async: i%2 == 1})
	}
	return keys, steps
}

// load is the closed-loop generator: clients goroutines, each sending
// its next job only when the previous one has answered, as callers of a
// waiting API do.
type load struct {
	srv     *simdServer
	clients int
	seen    outputs
	tr      *tracer
	r       *report

	mu      sync.Mutex
	results []jobResult
}

func (l *load) job(q jobRequest, async bool) jobResult {
	res, err := l.srv.do(q, async, &l.seen, l.tr)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.r.op(q.Experiment, err)
	if err == nil {
		l.results = append(l.results, res)
	}
	return res
}

// drain has the clients pull steps off one shared queue until it is empty.
func (l *load) drain(keys []jobRequest, steps []step) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(steps) {
					return
				}
				l.job(keys[steps[i].Key], steps[i].Async)
			}
		}()
	}
	wg.Wait()
}

// together has every client post the same request at once and reports
// how many of them were answered from a simulation of their own.
func (l *load) together(q jobRequest) (simulated int) {
	var wg sync.WaitGroup
	var n atomic.Int64
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !l.job(q, false).cached {
				n.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(n.Load())
}

// latencies splits the collected results into sorted-by-arrival
// millisecond samples: cold waits, hit waits and async exchanges.
func (l *load) latencies() (cold, hit, async []float64) {
	for _, res := range l.results {
		ms := res.latency.Seconds() * 1e3
		switch {
		case res.async:
			async = append(async, ms)
		case res.cached:
			hit = append(hit, ms)
		default:
			cold = append(cold, ms)
		}
	}
	return
}

// servePlan is a serve workload's traffic: warm prepares the server
// during set-up, drive is the timed request sequence.
type servePlan struct {
	warm  func(*load)
	drive func(*load, metrics)
}

// serveOnce runs the plan against a fresh simd: start, warm, time the
// sequence, read the server's counters and memory into m, and shut the
// server down to its contract. It returns how long the server took to
// start, the warm phase took, and the sequence took.
func serveOnce(rc runConfig, bin string, plan servePlan, tr *tracer, r *report, m metrics) (start, warm, wall time.Duration, err error) {
	begin := time.Now()
	srv, err := startSimd(bin, rc.procs)
	if err != nil {
		return 0, 0, 0, err
	}
	defer srv.kill()
	start = time.Since(begin)
	l := &load{srv: srv, clients: rc.procs, r: r}
	begin = time.Now()
	plan.warm(l)
	warm = time.Since(begin)
	before, err := srv.statsz()
	if err != nil {
		return 0, 0, 0, err
	}
	rssStart := srv.rssMiB("VmRSS")
	l.results, l.tr = nil, tr

	attempted := r.Attempted
	begin = time.Now()
	plan.drive(l, m)
	wall = time.Since(begin)
	jobs := float64(r.Attempted - attempted)

	after, err := srv.statsz()
	if err != nil {
		return 0, 0, 0, err
	}
	m["peak_rss_mb"] = srv.rssMiB("VmHWM")
	m["jobs_per_s"] = float64(len(l.results)) / wall.Seconds()
	cold, hit, async := l.latencies()
	m["cold_p50_ms"] = median(cold)
	m["hit_p50_ms"] = median(hit)
	m["simd.cold_p95_ms"] = quantile(cold, 0.95)
	m["simd.hit_p95_ms"] = quantile(hit, 0.95)
	m["simd.hit_p99_ms"] = quantile(hit, 0.99)
	m["simd.async_p50_ms"] = median(async)
	m["simd.rss_start_mb"] = rssStart
	m["simd.rss_end_mb"] = srv.rssMiB("VmRSS")
	m["simd.rss_kb_per_kjob"] = ratio((m["simd.rss_end_mb"]-rssStart)*1024, jobs/1e3)
	m["simd.http_failed"] = float64(r.Failed)
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	m["servecache.hits"] = hits
	m["servecache.misses"] = misses
	m["servecache.evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
	m["servecache.hit_ratio"] = ratio(hits, hits+misses)
	return start, warm, wall, srv.stop()
}

// serveWorkload measures a plan once untraced and, in a traced run,
// once more under spans against a second fresh server: the sequence
// warms the cache it runs against, so it cannot simply be repeated.
func serveWorkload(plan func(runConfig) servePlan) func(runConfig, *report) error {
	return func(rc runConfig, r *report) error {
		bin, buildS := rc.simdBin, 0.0
		if bin == "" {
			var tmp string
			var err error
			if bin, tmp, buildS, err = buildSimd(); err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
		}
		// A server start is a few milliseconds, too short to read once:
		// start it three more times and take the median.
		var starts []float64
		for i := 0; i < 3; i++ {
			begin := time.Now()
			srv, err := startSimd(bin, rc.procs)
			if err != nil {
				return err
			}
			starts = append(starts, time.Since(begin).Seconds())
			if err := srv.stop(); err != nil {
				return err
			}
		}
		m := r.Metrics
		start, warm, wall, err := serveOnce(rc, bin, plan(rc), nil, r, m)
		if err != nil {
			return err
		}
		// The build is a one-off whose cost depends on the build cache;
		// it is reported on its own, not as set-up.
		m["setup_s"] = rc.startupS + median(append(starts, start.Seconds())) + warm.Seconds()
		m["simd.build_s"] = buildS
		r.setWall([]time.Duration{wall})
		if !rc.trace {
			return nil
		}
		tr := newTracer(r.Workload)
		_, _, traced, err := serveOnce(rc, bin, plan(rc), tr, r, metrics{})
		if err != nil {
			return err
		}
		m["trace.overhead_pct"] = 100 * (traced.Seconds()/wall.Seconds() - 1)
		for k, v := range runProbes(rc, tr) {
			m[k] = v
		}
		r.Spans = tr.all()
		return nil
	}
}

func mixedPlanFor(rc runConfig) servePlan {
	plan := planMixed(rc.seed, rc.seconds, rc.tiny)
	return servePlan{
		warm: func(*load) {},
		drive: func(l *load, m metrics) {
			both := 0
			for i, seg := range plan.Segments {
				l.drain(plan.Keys, seg)
				if l.together(plan.Dups[i]) == l.clients {
					both++
				}
			}
			m["simd.dup_both_simulated"] = float64(both)
		},
	}
}

func hotPlanFor(rc runConfig) servePlan {
	keys, steps := planHot(rc.seed, rc.seconds, rc.tiny)
	return servePlan{
		warm: func(l *load) {
			var all []step
			for k := range keys {
				all = append(all, step{Key: k})
			}
			l.drain(keys, all)
		},
		drive: func(l *load, _ metrics) { l.drain(keys, steps) },
	}
}
