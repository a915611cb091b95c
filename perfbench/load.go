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
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"khist/internal/serve"
)

// maxBody bounds every response the benchmark reads; the largest real
// body (a 16-item batch envelope) is a few KB.
const maxBody = 8 << 20

// server is one khist-server process, booted from the binary built from
// the commit under test, with its default flags and an ephemeral port.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// listenWatcher is the server's stdout: it picks the bound address out
// of the "listening on" line and discards everything else. exec calls
// Write from one copying goroutine, so it needs no lock.
type listenWatcher struct {
	line []byte
	addr chan string // buffered 1; sent at most once
	sent bool
}

func (w *listenWatcher) Write(p []byte) (int, error) {
	for _, c := range p {
		if w.sent {
			break
		}
		if c != '\n' {
			if len(w.line) < 4096 {
				w.line = append(w.line, c)
			}
			continue
		}
		const prefix = "khist-server: listening on "
		if s := string(w.line); strings.HasPrefix(s, prefix) {
			w.addr <- strings.Fields(s[len(prefix):])[0]
			w.sent = true
		}
		w.line = w.line[:0]
	}
	return len(p), nil
}

// boot starts the server and returns once it listens, with the time
// from exec to the listening line.
func boot(bin string) (*server, time.Duration, error) {
	w := &listenWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout = w
	cmd.Stderr = os.Stderr
	// The server dies with the benchmark, whatever ends the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries nothing
		close(s.exited)
	}()
	select {
	case addr := <-w.addr:
		s.base = "http://" + addr
		return s, time.Since(t0), nil
	case <-s.exited:
		return nil, 0, errors.New("khist-server exited before listening")
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, errors.New("khist-server did not listen within 60s")
	}
}

// stop shuts the server down (SIGTERM, then SIGKILL after a grace
// period) and waits until the process has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMB is the server's high-water resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stats fetches /v1/stats.
func (s *server) stats() (*serve.StatsResponse, error) {
	resp, err := http.Get(s.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return &st, nil
}

// conn is one keep-alive client connection.
type conn struct {
	tr     *http.Transport
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, client: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base}
}

// reply is one response as the checks see it.
type reply struct {
	status int
	cache  string
	body   []byte
	lat    time.Duration
}

// send posts one request and reads the whole response; the latency runs
// from the send to the last byte read.
func (c *conn) send(r *request) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return reply{}, err
	}
	if r.binary {
		req.Header.Set("Content-Type", serve.BinaryContentType)
	}
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return reply{}, fmt.Errorf("reading %s response: %w", r.path, err)
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get(serve.CacheHeader), body: body, lat: lat}, nil
}

// completion is one request of the timed phase as the load saw it.
type completion struct {
	at      time.Duration // from the start of the phase to the last byte
	lat     time.Duration
	queries int
}

// drive runs units over conns keep-alive connections in a closed loop:
// each connection sends its next request only after reading the reply
// to the last. Every reply goes to the checker. It returns the wall time
// and the requests that completed.
func drive(base string, units [][]*request, pinned bool, conns int, chk *checker) (time.Duration, []completion) {
	var next atomic.Int64
	done := make([][]completion, conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := newConn(base)
			defer cn.tr.CloseIdleConnections()
			for {
				u := c
				if !pinned {
					u = int(next.Add(1) - 1)
				}
				if u >= len(units) {
					return
				}
				for _, r := range units[u] {
					rep, err := cn.send(r)
					if err == nil {
						done[c] = append(done[c], completion{at: time.Since(t0), lat: rep.lat, queries: len(r.queries)})
					}
					chk.observe(r, rep, err)
				}
				if pinned {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var all []completion
	for _, d := range done {
		all = append(all, d...)
	}
	return elapsed, all
}

// windows is how many equal time slices throughput is measured over.
const windows = 10

// slice splits the timed phase into n equal time slices.
func slice(elapsed time.Duration, done []completion, n int) [][]completion {
	out := make([][]completion, n)
	for _, d := range done {
		w := int(int64(d.at) * int64(n) / int64(elapsed))
		if w >= n {
			w = n - 1
		}
		out[w] = append(out[w], d)
	}
	return out
}

// throughput is the median over equal time slices of the timed phase
// of the queries completed per second, so a burst of host speed or a
// drained tail in part of a run does not move it.
func throughput(elapsed time.Duration, done []completion) float64 {
	rates := make([]float64, windows)
	for i, sl := range slice(elapsed, done, windows) {
		for _, d := range sl {
			rates[i] += float64(d.queries)
		}
		rates[i] /= elapsed.Seconds() / windows
	}
	return median(rates)
}

// minSliceRequests is the fewest requests a slice needs for its own p99
// (ten beyond it).
const minSliceRequests = 1000

// tailLatency is the p99 latency in ms. A run long enough to cut into
// slices of at least minSliceRequests consecutive requests reports the
// median over up to windows such slices of each slice's p99, so a slow
// stretch of the host in part of a run does not set it; a shorter run
// reports its own p99. Either follows tailOf's rule.
func tailLatency(done []completion) tail {
	byEnd := append([]completion(nil), done...)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].at < byEnd[j].at })
	n := min(len(byEnd)/minSliceRequests, windows)
	n = max(n, 1)
	var tails []tail
	for i := 0; i < n; i++ {
		sl := byEnd[i*len(byEnd)/n : (i+1)*len(byEnd)/n]
		lats := make([]time.Duration, len(sl))
		for j, d := range sl {
			lats[j] = d.lat
		}
		tails = append(tails, tailOf(durs(lats, false), 0.99))
	}
	sort.Slice(tails, func(i, j int) bool { return tails[i].value < tails[j].value })
	return tails[(len(tails)-1)/2]
}
