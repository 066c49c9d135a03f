package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// simdServer is a running cmd/simd child. It is a separate program
// (package main), so the benchmark builds it and drives it over a real
// loopback socket, the way its users do.
type simdServer struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	client *http.Client
	stderr bytes.Buffer
	// exited receives cmd.Wait's result once; cmd is nil after that.
	exited chan error
}

var servingLine = regexp.MustCompile(`simd: serving on (http://[^ ]+)`)

// buildSimd compiles cmd/simd into a fresh temporary directory and
// returns the binary with the directory to remove afterwards.
func buildSimd() (bin, tmp string, seconds float64, err error) {
	if tmp, err = os.MkdirTemp("", "bench-simd-"); err != nil {
		return "", "", 0, err
	}
	bin = filepath.Join(tmp, "simd")
	begin := time.Now()
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/simd").CombinedOutput(); err != nil {
		os.RemoveAll(tmp)
		return "", "", 0, fmt.Errorf("go build repro/cmd/simd (run inside the repository): %v\n%s", err, out)
	}
	return bin, tmp, time.Since(begin).Seconds(), nil
}

// startSimd starts the binary on a kernel-assigned port and waits until
// /healthz answers. On any error the child is killed and reaped, so a
// failed benchmark never leaves a server behind.
func startSimd(bin string, workers int) (_ *simdServer, err error) {
	s := &simdServer{}
	defer func() {
		if err != nil {
			s.kill()
		}
	}()
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", fmt.Sprint(workers))
	s.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers))
	s.cmd.Stderr = &s.stderr
	announced := &addrWatcher{found: make(chan string, 1)}
	s.cmd.Stdout = announced
	if err := s.cmd.Start(); err != nil {
		s.cmd = nil
		return nil, fmt.Errorf("start simd: %w", err)
	}
	s.exited = make(chan error, 1)
	go func() { s.exited <- s.cmd.Wait() }()
	select {
	case s.base = <-announced.found:
	case err := <-s.exited:
		s.cmd = nil
		return nil, fmt.Errorf("simd exited before announcing its address (%v); stderr:\n%s", err, s.stderr.String())
	case <-time.After(10 * time.Second):
		return nil, errors.New("simd did not announce its address within 10s")
	}

	s.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers},
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("simd not healthy after 10s (last error: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// addrWatcher is simd's stdout: it reports the address of the
// "serving on" line once and discards the rest.
type addrWatcher struct {
	found chan string // buffered, one send
	seen  []byte
	done  bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	if !w.done {
		w.seen = append(w.seen, p...)
		if m := servingLine.FindSubmatch(w.seen); m != nil {
			w.found <- string(m[1])
			w.done, w.seen = true, nil
		}
	}
	return len(p), nil
}

// stop shuts the server down the way an operator would and holds it to
// its contract: SIGTERM, drain, exit 0.
func (s *simdServer) stop() error {
	defer s.kill()
	// Hang up first: the server's drain waits out connections the client
	// dialled but never used.
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal simd: %w", err)
	}
	select {
	case err := <-s.exited:
		s.cmd = nil
		if err != nil {
			return fmt.Errorf("simd did not exit 0 on SIGTERM: %v; stderr:\n%s", err, s.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		return errors.New("simd still running 30s after SIGTERM; killed")
	}
}

// kill leaves no process behind, whatever state the start or the run
// got to; the error paths' exit, and stop's last step.
func (s *simdServer) kill() {
	if s.cmd != nil {
		s.cmd.Process.Kill()
		<-s.exited
		s.cmd = nil
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

func (s *simdServer) rssMiB(field string) float64 { return procStatusMiB(s.cmd.Process.Pid, field) }

// cacheCounters is the part of /statsz the benchmark reads.
type cacheCounters struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
}

func (s *simdServer) statsz() (c cacheCounters, err error) {
	resp, err := s.client.Get(s.base + "/statsz")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("/statsz: %s", resp.Status)
	}
	return c, json.NewDecoder(resp.Body).Decode(&c)
}

// jobRequest is one POST /v1/jobs body less the wait flag: what the
// server keys its cache on.
type jobRequest struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	SMs        int    `json:"sms"`
	Sched      string `json:"sched"`
	TLActive   int    `json:"tlactive"`
}

func (q jobRequest) body(wait bool) []byte {
	b, err := json.Marshal(struct {
		jobRequest
		Wait bool `json:"wait"`
	}{q, wait})
	if err != nil {
		panic(err) // plain strings, ints and bools
	}
	return b
}

// jobResult is what the client saw of one job.
type jobResult struct {
	cached  bool
	async   bool
	latency time.Duration
}

// outputs remembers the first table served for each request and fails
// any later response for the same request that differs.
type outputs struct {
	mu    sync.Mutex
	first map[jobRequest]string
}

func (o *outputs) check(q jobRequest, out string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.first == nil {
		o.first = map[jobRequest]string{}
	}
	if prev, ok := o.first[q]; !ok {
		o.first[q] = out
	} else if prev != out {
		return errors.New("output bytes differ from the first response for the same request")
	}
	return nil
}

// checkJob is the verdict on one job's HTTP exchange.
func checkJob(code int, status, errMsg string) error {
	if code < 200 || code > 299 {
		return fmt.Errorf("HTTP %d: %s", code, strings.TrimSpace(errMsg))
	}
	if status != "done" {
		return fmt.Errorf("job status %q: %s", status, errMsg)
	}
	return nil
}

// do runs one job: a waiting POST, or an async POST followed by a GET of
// its output. It returns the client-side latency of the whole exchange.
func (s *simdServer) do(q jobRequest, async bool, seen *outputs, tr *tracer) (jobResult, error) {
	type status struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Cached bool   `json:"cached"`
		Error  string `json:"error"`
		Output string `json:"output"`
	}
	res := jobResult{async: async}
	op := tr.start("op", q.Experiment, 0)
	defer tr.end(op)
	begin := time.Now()

	id := tr.start("simd.post", q.Experiment, op)
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(q.body(!async)))
	if err != nil {
		tr.end(id)
		return res, err
	}
	var st status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	tr.end(id)
	if err != nil {
		return res, fmt.Errorf("HTTP %d: undecodable body: %v", resp.StatusCode, err)
	}
	if !async {
		res.latency, res.cached = time.Since(begin), st.Cached
		if err := checkJob(resp.StatusCode, st.Status, st.Error); err != nil {
			return res, err
		}
		return res, seen.check(q, st.Output)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return res, checkJob(resp.StatusCode, st.Status, st.Error)
	}

	id = tr.start("simd.get_output", q.Experiment, op)
	out, err := s.client.Get(s.base + "/v1/jobs/" + st.ID + "/output")
	if err != nil {
		tr.end(id)
		return res, err
	}
	table, err := io.ReadAll(out.Body)
	out.Body.Close()
	tr.end(id)
	res.latency = time.Since(begin)
	if err != nil {
		return res, err
	}
	if err := checkJob(out.StatusCode, "done", string(table)); err != nil {
		return res, err
	}
	return res, seen.check(q, string(table))
}
