package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// newTestServer starts the serving core behind an httptest listener.
func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(2, 1<<20, time.Minute)
	t.Cleanup(s.close)
	hs := httptest.NewServer(s.handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// postJob submits one job and decodes the response.
func postJob(t *testing.T, baseURL, body string) (int, jobStatus) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode job response: %v", err)
	}
	return resp.StatusCode, st
}

func getStatsz(t *testing.T, baseURL string) statszResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// The acceptance path: a repeated POST for the same (experiment,
// knobs) is served from the content-addressed cache — byte-identical
// to both the cold response and an out-of-band engine run — with no
// new simulation, as the cache counters and an instrumented executor
// prove.
func TestCacheHitByteEquivalence(t *testing.T) {
	s, hs := newTestServer(t)
	var sims atomic.Int64
	inner := s.runExp
	s.runExp = func(e experiments.Experiment, opt experiments.Options) (*experiments.Table, error) {
		sims.Add(1)
		return inner(e, opt)
	}

	// The out-of-band reference: what the batch engine computes for the
	// same knobs, rendered the same way the CLI streams it.
	e, err := experiments.ByID("fig9")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := e.Run(experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	want := string(renderTable(e, tb))

	const body = `{"experiment":"fig9","quick":true,"wait":true}`
	code, cold := postJob(t, hs.URL, body)
	if code != http.StatusOK || cold.Status != statusDone {
		t.Fatalf("cold POST = %d %+v", code, cold)
	}
	if cold.Cached {
		t.Error("cold run claims to be cached")
	}
	if cold.Output != want {
		t.Errorf("cold output differs from the batch engine's table:\n%s\nwant:\n%s", cold.Output, want)
	}

	code, warm := postJob(t, hs.URL, body)
	if code != http.StatusOK || warm.Status != statusDone {
		t.Fatalf("warm POST = %d %+v", code, warm)
	}
	if !warm.Cached {
		t.Error("repeated submission was not served from the cache")
	}
	if warm.Output != cold.Output {
		t.Error("cached output is not byte-identical to the cold run")
	}
	if got := sims.Load(); got != 1 {
		t.Errorf("executor ran %d times, want 1 (the cache hit must not re-simulate)", got)
	}
	st := getStatsz(t, hs.URL)
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Errorf("cache counters = %+v, want 1 hit, 1 miss, 1 entry", st.Cache)
	}
	if st.Jobs.Submitted != 2 || st.Jobs.Done != 2 || st.Jobs.Failed != 0 {
		t.Errorf("job counters = %+v, want 2 submitted, 2 done", st.Jobs)
	}

	// The output endpoint serves the same bytes as plain text.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + warm.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(raw) != want {
		t.Errorf("output endpoint = %d, %q", resp.StatusCode, raw)
	}

	// Different knobs are a different content address: no false hit.
	code, other := postJob(t, hs.URL, `{"experiment":"fig9","quick":true,"sms":1,"wait":true}`)
	if code != http.StatusOK || other.Cached {
		t.Errorf("distinct knobs served from cache: %d %+v", code, other)
	}
	if other.Key == warm.Key {
		t.Error("distinct knobs share a content address")
	}
}

// Async submission: 202 with a queued/running job, status polling, and
// the long-polling output endpoint.
func TestAsyncJobLifecycle(t *testing.T) {
	_, hs := newTestServer(t)
	code, st := postJob(t, hs.URL, `{"experiment":"tab1","quick":true}`)
	if code != http.StatusAccepted || st.ID == "" {
		t.Fatalf("async POST = %d %+v", code, st)
	}
	if st.Output != "" {
		t.Error("async response carries output")
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/output") // long-polls to completion
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(raw) == 0 {
		t.Fatalf("output long-poll = %d, %d bytes", resp.StatusCode, len(raw))
	}
	resp, err = http.Get(hs.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var done jobStatus
	json.NewDecoder(resp.Body).Decode(&done)
	resp.Body.Close()
	if done.Status != statusDone {
		t.Errorf("job status = %+v, want done", done)
	}
}

// Bad requests are rejected at the boundary with 400s; unknown jobs 404.
func TestRequestValidation(t *testing.T) {
	_, hs := newTestServer(t)
	for _, body := range []string{
		`{"experiment":"nope","wait":true}`,
		`{"experiment":"fig9","sched":"fifo","wait":true}`,
		`{"experiment":"fig9","tlactive":-1,"wait":true}`,
		`not json`,
		`{"experiment":"fig9","wait":true} {"experiment":"tab1"}`,
		`{"experiment":"fig9","wait":true}]`,
	} {
		if code, _ := postJob(t, hs.URL, body); code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, code)
		}
	}
	// A misspelt knob is an error that names the field, not a silent run
	// of the default table under the wrong cache key.
	code, st := postJob(t, hs.URL, `{"experiment":"fig9","quick":true,"schd":"lrr","wait":true}`)
	if code != http.StatusBadRequest || !strings.Contains(st.Error, `"schd"`) {
		t.Errorf("misspelt knob = %d %q, want 400 naming the field", code, st.Error)
	}
	if got := getStatsz(t, hs.URL).Jobs.Submitted; got != 0 {
		t.Errorf("%d rejected requests were admitted as jobs", got)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// The job table is bounded: every unfinished job plus the newest
// maxTerminalJobs finished ones. Older IDs answer 404, and a job that
// has only just finished is still there for its output to be fetched.
func TestJobTableBounded(t *testing.T) {
	s, hs := newTestServer(t)
	s.runExp = func(experiments.Experiment, experiments.Options) (*experiments.Table, error) {
		return &experiments.Table{ID: "tab1"}, nil
	}
	h := s.handler()
	const submissions = 10000
	for i := 0; i < submissions; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(`{"experiment":"tab1","wait":true}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("submission %d = %d %s", i, rec.Code, rec.Body)
		}
	}
	s.mu.Lock()
	held := len(s.jobs)
	s.mu.Unlock()
	if held != maxTerminalJobs {
		t.Errorf("job table holds %d jobs after %d submissions, want the newest %d", held, submissions, maxTerminalJobs)
	}
	for id, want := range map[string]int{
		"job-1": http.StatusNotFound,
		fmt.Sprintf("job-%d", submissions-maxTerminalJobs):   http.StatusNotFound,
		fmt.Sprintf("job-%d", submissions-maxTerminalJobs+1): http.StatusOK,
		fmt.Sprintf("job-%d", submissions):                   http.StatusOK,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
		if rec.Code != want {
			t.Errorf("GET %s = %d, want %d", id, rec.Code, want)
		}
	}

	code, st := postJob(t, hs.URL, `{"experiment":"tab1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("async POST = %d %+v", code, st)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(raw) == 0 {
		t.Errorf("output of a just-finished job = %d, %d bytes", resp.StatusCode, len(raw))
	}
}

// Two requests that differ only in a knob the model never reads
// (sched "" and "gto" spell the same policy) are different table-cache
// keys but the same launches: the second simulates nothing, and /statsz
// says so.
func TestAliasRequestsShareLaunches(t *testing.T) {
	_, hs := newTestServer(t)
	_, first := postJob(t, hs.URL, `{"experiment":"fig12c","quick":true,"sched":"","wait":true}`)
	cold := getStatsz(t, hs.URL).Launches
	_, second := postJob(t, hs.URL, `{"experiment":"fig12c","quick":true,"sched":"gto","wait":true}`)
	if first.Status != statusDone || second.Status != statusDone || first.Cached || second.Cached {
		t.Fatalf("alias pair = %+v, %+v; want two uncached successes", first, second)
	}
	if first.Output != second.Output {
		t.Error("alias requests rendered different tables")
	}
	if cold.Misses != 8 || cold.Hits != 0 || cold.Entries != 8 || cold.Bytes == 0 {
		t.Errorf("launch counters after the cold request = %+v, want fig12c's 8 launches missed and stored", cold)
	}
	warm := getStatsz(t, hs.URL).Launches
	if warm.Misses != cold.Misses || warm.Hits != 8 || warm.Joined != 0 || warm.Evictions != 0 {
		t.Errorf("launch counters after the alias request = %+v, want 8 hits and no new miss", warm)
	}
}

// Concurrent submissions — identical and distinct keys interleaved —
// must all succeed with per-key byte-identical outputs. Run under
// -race (CI does) this pins the serving layer's locking.
func TestConcurrentRequests(t *testing.T) {
	_, hs := newTestServer(t)
	bodies := []string{
		`{"experiment":"fig9","quick":true,"wait":true}`,
		`{"experiment":"tab1","quick":true,"wait":true}`,
	}
	const perBody = 6
	outputs := make([][]string, len(bodies))
	for i := range outputs {
		outputs[i] = make([]string, perBody)
	}
	var wg sync.WaitGroup
	for bi, body := range bodies {
		for r := 0; r < perBody; r++ {
			wg.Add(1)
			go func(bi, r int, body string) {
				defer wg.Done()
				code, st := postJob(t, hs.URL, body)
				if code != http.StatusOK || st.Status != statusDone {
					t.Errorf("concurrent POST = %d %+v", code, st)
					return
				}
				outputs[bi][r] = st.Output
			}(bi, r, body)
		}
	}
	wg.Wait()
	for bi := range outputs {
		for r := 1; r < perBody; r++ {
			if outputs[bi][r] != outputs[bi][0] {
				t.Errorf("body %d: response %d differs from response 0", bi, r)
			}
		}
	}
}

// The graceful-drain contract: on shutdown (SIGTERM in production; the
// canceled context is the same path) the server stops accepting jobs,
// in-flight jobs run to completion, and only then does serve return 0.
func TestGracefulDrainCompletesInFlightJobs(t *testing.T) {
	s := newServer(1, 1<<20, time.Minute)
	defer s.close()
	release := make(chan struct{})
	s.runExp = func(e experiments.Experiment, opt experiments.Options) (*experiments.Table, error) {
		<-release
		return &experiments.Table{ID: e.ID, Title: "drained", Columns: []string{"ok"}}, nil
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	codec := make(chan int, 1)
	go func() { codec <- s.serve(ctx, ln, io.Discard) }()
	baseURL := "http://" + ln.Addr().String()

	code, st := postJob(t, baseURL, `{"experiment":"fig9","quick":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	cancel() // the SIGTERM analogue
	// The drain must block on the in-flight job: serve cannot have
	// returned yet because the job is still parked on release.
	select {
	case c := <-codec:
		t.Fatalf("serve returned %d while a job was in flight", c)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case c := <-codec:
		if c != exitOK {
			t.Fatalf("drained serve returned %d, want %d", c, exitOK)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after the in-flight job completed")
	}

	j, ok := s.lookupJob(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	got := j.snapshot(true)
	if got.Status != statusDone || !strings.Contains(got.Output, "drained") {
		t.Errorf("in-flight job after drain = %+v, want done with output", got)
	}
	// Post-drain, the registry no longer accepts work.
	if _, ok := s.startJob(experiments.Experiment{ID: "x"}, experiments.Options{}, "k"); ok {
		t.Error("draining server accepted a new job")
	}
}

// A drain that exceeds -draintimeout cancels the stuck jobs through
// the engine's cancellation context instead of hanging forever.
func TestDrainTimeoutCancelsStuckJobs(t *testing.T) {
	s := newServer(1, 1<<20, 50*time.Millisecond)
	defer s.close()
	s.runExp = func(e experiments.Experiment, opt experiments.Options) (*experiments.Table, error) {
		<-opt.Ctx.Done() // a wedged job that only cancellation can reap
		return nil, fmt.Errorf("canceled: %w", opt.Ctx.Err())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	codec := make(chan int, 1)
	go func() { codec <- s.serve(ctx, ln, io.Discard) }()

	code, st := postJob(t, "http://"+ln.Addr().String(), `{"experiment":"fig9","quick":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	cancel()
	select {
	case c := <-codec:
		if c != exitOK {
			t.Fatalf("serve returned %d, want %d", c, exitOK)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain timeout did not reap the wedged job")
	}
	j, _ := s.lookupJob(st.ID)
	if got := j.snapshot(false); got.Status != statusFailed {
		t.Errorf("wedged job = %+v, want failed", got)
	}
}

// The exit-code contract: -h is a successful usage request (exit 0,
// usage on stderr), bad flags exit 2, an unusable listen address exits
// 1, and a clean signal shutdown exits 0.
func TestRunExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &stdout, &stderr); code != exitOK {
		t.Errorf("-h = %d, want %d", code, exitOK)
	}
	if !strings.Contains(stderr.String(), "-addr") {
		t.Errorf("-h did not print usage: %q", stderr.String())
	}
	for _, args := range [][]string{
		{"-bogus"},
		{"-workers", "-1"},
		{"-workers", "999999"},
		{"-cachemb", "-1"},
		{"-addr", ""},
		{"-draintimeout", "-1s"},
	} {
		if code := run(context.Background(), args, io.Discard, io.Discard); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitUsage)
		}
	}
	if code := run(context.Background(), []string{"-addr", "doesnotresolve.invalid:0"}, io.Discard, io.Discard); code != exitFailed {
		t.Errorf("bad listen address exited %d, want %d", code, exitFailed)
	}

	ctx, cancel := context.WithCancel(context.Background())
	codec := make(chan int, 1)
	go func() { codec <- run(ctx, []string{"-addr", "127.0.0.1:0"}, io.Discard, io.Discard) }()
	time.Sleep(100 * time.Millisecond) // let it bind and serve
	cancel()
	select {
	case c := <-codec:
		if c != exitOK {
			t.Errorf("signal shutdown exited %d, want %d", c, exitOK)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after cancellation")
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		addr         string
		workers, mb  int
		drainTimeout time.Duration
		ok           bool
	}{
		{"127.0.0.1:8080", 0, 64, time.Minute, true},
		{":0", maxWorkers, maxCacheMB, 0, true},
		{"", 0, 64, 0, false},
		{":0", -1, 64, 0, false},
		{":0", maxWorkers + 1, 64, 0, false},
		{":0", 0, -1, 0, false},
		{":0", 0, maxCacheMB + 1, 0, false},
		{":0", 0, 64, -time.Second, false},
	}
	for _, c := range cases {
		err := validateFlags(c.addr, c.workers, c.mb, c.drainTimeout)
		if (err == nil) != c.ok {
			t.Errorf("validateFlags(%q, %d, %d, %v) = %v, want ok=%v",
				c.addr, c.workers, c.mb, c.drainTimeout, err, c.ok)
		}
	}
}

// healthz flips to 503 once draining so load balancers stop routing.
func TestHealthz(t *testing.T) {
	s, hs := newTestServer(t)
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp.StatusCode)
	}
}
