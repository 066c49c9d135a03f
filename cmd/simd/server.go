package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/servecache"
)

// The serving core: a job registry over the long-lived shared worker
// pool (experiments.Pool) fronted by the content-addressed result
// cache (internal/servecache). A job is one experiment run under one
// Options signature; its content address (experiments.ExperimentKey)
// memoizes the rendered table, so a repeated submission is served the
// byte-identical bytes with zero simulation. Decoded-kernel programs
// are shared read-only across concurrent jobs — the immutability the
// simlint frozen analyzer enforces is what makes one process safe for
// many tenants without per-request state audits.

// Job lifecycle states.
const (
	statusQueued  = "queued"
	statusRunning = "running"
	statusDone    = "done"
	statusFailed  = "failed"
)

// job is one submitted experiment run.
type job struct {
	id    string
	expID string
	key   string
	// done closes when the job reaches a terminal state.
	done chan struct{}

	mu sync.Mutex
	//simlint:guardedby mu
	status string
	// output is the rendered table; immutable once set (it is also the
	// cached payload, shared with other requests).
	//simlint:guardedby mu
	output []byte
	//simlint:guardedby mu
	errMsg string
	// cached records whether the job was served from the cache instead
	// of simulating.
	//simlint:guardedby mu
	cached bool
}

func (j *job) setStatus(st string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = st
}

// complete moves the job to its terminal state and wakes every waiter.
func (j *job) complete(out []byte, cached bool, err error) {
	j.mu.Lock()
	if err != nil {
		j.status = statusFailed
		j.errMsg = err.Error()
	} else {
		j.status = statusDone
		j.output = out
		j.cached = cached
	}
	j.mu.Unlock()
	close(j.done)
}

// jobStatus is the wire form of a job. Output rides along only on
// wait-mode responses and the output endpoint.
type jobStatus struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	Key        string `json:"key"`
	Status     string `json:"status"`
	Cached     bool   `json:"cached"`
	Error      string `json:"error,omitempty"`
	Output     string `json:"output,omitempty"`
}

func (j *job) snapshot(withOutput bool) jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{ID: j.id, Experiment: j.expID, Key: j.key,
		Status: j.status, Cached: j.cached, Error: j.errMsg}
	if withOutput {
		st.Output = string(j.output)
	}
	return st
}

// output returns the terminal payload; call only after done closes.
func (j *job) terminal() (out []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.output, j.errMsg
}

// jobRequest is the POST /v1/jobs body: an experiment ID plus the
// table-affecting Options knobs (the same set ExperimentKey hashes, so
// the request *is* its own cache address) and the run-bounding knobs
// that never change a successful table.
type jobRequest struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	SMs        int    `json:"sms"`
	Scheduler  string `json:"sched"`
	TwoLevel   int    `json:"tlactive"`
	MaxCycles  uint64 `json:"maxcycles"`
	// Wait blocks the POST until the job completes and inlines the
	// rendered table in the response.
	Wait bool `json:"wait"`
}

// maxTerminalJobs bounds the finished jobs the table remembers, so a
// long-lived server's memory does not grow with the jobs it has served.
const maxTerminalJobs = 4096

// server is the simd process state.
type server struct {
	pool  *experiments.Pool
	cache *servecache.Cache
	// runExp executes one job — pool.Run in production; tests swap it
	// to control timing and failure modes.
	runExp func(experiments.Experiment, experiments.Options) (*experiments.Table, error)
	// jobCtx is every job's cancellation context: independent of the
	// serve context so a SIGTERM drains in-flight jobs instead of
	// killing them; canceled only when the drain deadline passes.
	jobCtx    context.Context
	cancelJob context.CancelFunc
	// drainTimeout bounds the drain: past it, jobCtx cancels and the
	// still-running jobs abort through the simulator's own
	// cancellation polling (0 = wait forever).
	drainTimeout time.Duration
	// jobWG counts accepted jobs; the drain barrier.
	jobWG sync.WaitGroup

	mu sync.Mutex
	// jobs holds every job that has not finished and the newest
	// maxTerminalJobs that have; older IDs answer 404.
	//simlint:guardedby mu
	jobs map[string]*job
	// terminal is a ring of the finished jobs still in the table, in
	// finishing order: slot finished%maxTerminalJobs holds the next to go.
	//simlint:guardedby mu
	terminal [maxTerminalJobs]string
	//simlint:guardedby mu
	nextID int
	//simlint:guardedby mu
	draining bool
	//simlint:guardedby mu
	submitted int64
	//simlint:guardedby mu
	finished int64
	//simlint:guardedby mu
	failed int64
}

// newServer wires the serving core. workers and cacheBytes follow the
// CLI knobs; drainTimeout bounds the SIGTERM drain.
func newServer(workers int, cacheBytes int64, drainTimeout time.Duration) *server {
	s := &server{
		pool:         experiments.NewPool(workers),
		cache:        servecache.New(cacheBytes),
		drainTimeout: drainTimeout,
	}
	s.runExp = s.pool.Run
	s.jobCtx, s.cancelJob = context.WithCancel(context.Background())
	s.mu.Lock()
	s.jobs = make(map[string]*job)
	s.mu.Unlock()
	return s
}

// close releases the pool; call after the drain.
func (s *server) close() {
	s.cancelJob()
	s.pool.Close()
}

// renderTable renders one finished experiment exactly as
// cmd/experiments streams it to stdout, so a served table is
// byte-identical to the batch CLI's output for the same knobs.
func renderTable(e experiments.Experiment, tb *experiments.Table) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# %s (%s)\n", e.Paper, e.ID)
	fmt.Fprintln(&b, tb.String())
	return b.Bytes()
}

// startJob registers and launches one job, or reports draining=false
// when the server no longer accepts work.
func (s *server) startJob(e experiments.Experiment, opt experiments.Options, key string) (*job, bool) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false
	}
	s.nextID++
	j := &job{
		id:     fmt.Sprintf("job-%d", s.nextID),
		expID:  e.ID,
		key:    key,
		status: statusQueued,
		done:   make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.submitted++
	// Inside the lock so the drain cannot slip between the draining
	// check and the Add.
	s.jobWG.Add(1)
	s.mu.Unlock()
	go s.runJob(j, e, opt)
	return j, true
}

// runJob executes one job: cache first, simulation on the shared pool
// otherwise. A successful simulation populates the cache, so the next
// identical submission costs a map lookup.
func (s *server) runJob(j *job, e experiments.Experiment, opt experiments.Options) {
	defer s.jobWG.Done()
	if out, ok := s.cache.Get(j.key); ok {
		s.finish(j, out, true, nil)
		return
	}
	j.setStatus(statusRunning)
	tb, err := s.runExp(e, opt)
	if err != nil {
		s.finish(j, nil, false, err)
		return
	}
	out := renderTable(e, tb)
	s.cache.Put(j.key, out)
	s.finish(j, out, false, nil)
}

// finish counts a job into the totals, retires the oldest finished job
// once the table holds maxTerminalJobs of them, and only then completes
// the job — so whoever its completion wakes already sees it counted.
func (s *server) finish(j *job, out []byte, cached bool, err error) {
	s.mu.Lock()
	slot := &s.terminal[s.finished%maxTerminalJobs]
	if *slot != "" {
		delete(s.jobs, *slot)
	}
	*slot = j.id
	s.finished++
	if err != nil {
		s.failed++
	}
	s.mu.Unlock()
	j.complete(out, cached, err)
}

func (s *server) lookupJob(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// handler builds the HTTP surface.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/output", s.handleOutput)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

// statszResponse is /statsz's wire form: serving-side job totals, the
// table cache's counters and the launch memo's.
type statszResponse struct {
	Workers  int            `json:"workers"`
	Draining bool           `json:"draining"`
	Jobs     statszJobs     `json:"jobs"`
	Cache    statszCache    `json:"cache"`
	Launches statszLaunches `json:"launches"`
}

type statszJobs struct {
	Submitted int64 `json:"submitted"`
	InFlight  int64 `json:"in_flight"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
}

type statszCache struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

// statszLaunches is experiments.LaunchStats on the wire: of the
// launches the served jobs issued, how many simulated (misses), were
// answered from an earlier identical launch (hits) or waited on a
// concurrent one (joined).
type statszLaunches struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Joined    int64 `json:"joined"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// handleStatsz is the serving layer's counter surface — the sanctioned
// emitter for every servecache.Stats and experiments.LaunchStats
// counter, so a counter added there cannot silently vanish from
// operations (the statcomplete contract).
//
//simlint:emitter
func (s *server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	cs := s.cache.Stats()
	ls := s.pool.LaunchStats()
	s.mu.Lock()
	resp := statszResponse{
		Workers:  s.pool.Workers(),
		Draining: s.draining,
		Jobs: statszJobs{
			Submitted: s.submitted,
			InFlight:  s.submitted - s.finished,
			Done:      s.finished - s.failed,
			Failed:    s.failed,
		},
	}
	s.mu.Unlock()
	resp.Cache = statszCache{
		Hits:      cs.Hits,
		Misses:    cs.Misses,
		Evictions: cs.Evictions,
		Entries:   cs.Entries,
		Bytes:     cs.Bytes,
		MaxBytes:  cs.MaxBytes,
	}
	resp.Launches = statszLaunches{
		Hits:      ls.Hits,
		Misses:    ls.Misses,
		Joined:    ls.Joined,
		Evictions: ls.Evictions,
		Entries:   ls.Entries,
		Bytes:     ls.Bytes,
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	// A misspelt knob must not silently run (and cache) the default
	// table, so unknown fields and trailing data are errors.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request body: " + err.Error()})
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request body: data after the job object"})
		return
	}
	e, err := experiments.ByID(req.Experiment)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	opt := experiments.Options{
		Quick:          req.Quick,
		SMs:            req.SMs,
		Scheduler:      req.Scheduler,
		TwoLevelActive: req.TwoLevel,
		MaxCycles:      req.MaxCycles,
		Ctx:            s.jobCtx,
	}
	if err := opt.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	key := experiments.ExperimentKey(e.ID, opt)
	j, ok := s.startJob(e, opt, key)
	if !ok {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "draining: not accepting new jobs"})
		return
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, j.snapshot(false))
		return
	}
	select {
	case <-j.done:
		writeJSON(w, http.StatusOK, j.snapshot(true))
	case <-r.Context().Done():
		// The client went away; the job keeps running (its result will
		// be cached for the retry).
	}
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot(false))
}

// handleOutput streams the job's rendered table: it long-polls until
// the job completes, then writes the byte-identical cached payload as
// plain text (exactly what cmd/experiments would print for the same
// knobs).
func (s *server) handleOutput(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		return
	}
	out, errMsg := j.terminal()
	if errMsg != "" {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: errMsg})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(out)
}

// serve runs the HTTP server on ln until ctx cancels (the SIGINT/
// SIGTERM path), then shuts down gracefully: new jobs are rejected,
// in-flight jobs drain to completion (bounded by drainTimeout, past
// which they abort through the simulator's cancellation polling), and
// only then does the listener close. Returns the process exit code.
func (s *server) serve(ctx context.Context, ln net.Listener, stderr io.Writer) int {
	hs := &http.Server{Handler: s.handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "simd: serve:", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(stderr, "simd: signal received; draining in-flight jobs")
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(drained)
	}()
	if s.drainTimeout > 0 {
		select {
		case <-drained:
		case <-time.After(s.drainTimeout):
			fmt.Fprintf(stderr, "simd: drain exceeded %v; canceling remaining jobs\n", s.drainTimeout)
			s.cancelJob()
			<-drained
		}
	} else {
		<-drained
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		hs.Close()
	}
	<-errc // Serve has returned http.ErrServerClosed
	fmt.Fprintln(stderr, "simd: drained; bye")
	return 0
}
