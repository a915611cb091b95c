// Command khist-bench converts `go test -bench` output for the parallel-
// scaling benchmarks into a machine-readable JSON report, so the perf
// trajectory accumulates across commits (CI uploads the file as an
// artifact; see .github/workflows/ci.yml).
//
// It parses lines of the form
//
//	BenchmarkLearnParallel/workers=4-8    1    123456789 ns/op
//
// groups them by benchmark family, and computes each row's speedup
// relative to the family's workers=1 row. Host metadata (CPU count,
// GOMAXPROCS, the cpu: line go test prints) is recorded because parallel
// speedup is only meaningful relative to the cores that were available.
//
// With -server it additionally queries a live khist-server's /v1/stats
// and prints the server's own learned latency histogram — the k-piece
// summary the serving layer's metrics plane produced with the repo's
// v-optimal learner — next to the measured rps, so the server's
// self-measurement can be compared against the external measurement in
// one place. The snapshot is also embedded in the JSON report. Adding
// -traces N prints the N slowest server-side traces the tracing plane
// retained (/v1/trace), spans inline, so tail latency can be read
// layer by layer right where the rps numbers are. Adding -ingest N
// pushes N deterministic observations into a live stream (-stream names
// it) over POST /v1/ingest and then times a cold and a repeat
// stream-sourced /v1/learn — the repeat must come back from the
// response cache (X-Khist-Cache: rhit), so the flag doubles as a
// smoke check of the whole ingest -> snapshot -> learn -> cache path.
//
// Collect with -benchmem to also record bytes/op and allocs/op per row
// (`... 1234 ns/op 56 B/op 7 allocs/op` lines), so allocation
// regressions show up in the trajectory alongside latency. Batch rows
// (BenchmarkServe/mode=batch/items=N) are amortized: one op is N
// queries, so rps counts queries and ns_per_query is ns_per_op / N.
//
// Usage:
//
//	go test -run '^$' -bench 'Parallel' -benchtime 2x . | khist-bench -out BENCH_parallel.json
//	khist-bench -in bench.txt -out BENCH_parallel.json
//	khist-bench -in serve.txt -server http://localhost:8080 -out BENCH_serve.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"khist/internal/obs"
	"khist/internal/obs/trace"
)

// Result is one benchmark measurement.
type Result struct {
	Name    string `json:"name"`
	Family  string `json:"family"`
	Workers int    `json:"workers,omitempty"`
	Mode    string `json:"mode,omitempty"`
	// Items is the sub-query count of a batch row
	// (BenchmarkServe/mode=batch/items=N): one op = Items queries.
	Items      int     `json:"items,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp come from -benchmem output, so
	// allocation regressions are part of the perf trajectory. They stay
	// zero when the input was collected without -benchmem.
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	// Speedup is ns/op at workers=1 divided by this row's ns/op, within
	// the same family; 0 when the family has no workers=1 row.
	Speedup float64 `json:"speedup,omitempty"`
	// RPS is requests (operations) per second, reported for serve-mode
	// rows (BenchmarkServe/mode=...) where throughput is the headline
	// number rather than per-op latency. Batch rows count every item as
	// a request: RPS = Items * 1e9 / ns_per_op.
	RPS float64 `json:"rps,omitempty"`
	// NsPerQuery is the amortized per-query cost of a batch row
	// (ns_per_op / items); equal to NsPerOp elsewhere, omitted there.
	NsPerQuery float64 `json:"ns_per_query,omitempty"`
}

// Report is the file schema of BENCH_parallel.json.
type Report struct {
	GoOS       string   `json:"goos"`
	GoArch     string   `json:"goarch"`
	CPU        string   `json:"cpu,omitempty"`
	NumCPU     int      `json:"num_cpu"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Note       string   `json:"note,omitempty"`
	Results    []Result `json:"results"`
	// ServerLatency is the live server's self-reported latency snapshot
	// (-server): the k-histogram its metrics plane learned over its own
	// request latencies with the repo's v-optimal learner.
	ServerLatency *obs.LatencySnapshot `json:"server_latency,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)
var workersPart = regexp.MustCompile(`/workers=(\d+)`)
var modePart = regexp.MustCompile(`/mode=(\w+)`)
var itemsPart = regexp.MustCompile(`/items=(\d+)`)

func main() {
	var (
		in     = flag.String("in", "", "benchmark output file (default: stdin)")
		out    = flag.String("out", "", "JSON report file (default: stdout)")
		server = flag.String("server", "", "base URL of a live khist-server; its self-reported learned latency histogram (/v1/stats) is printed next to the measured rps and embedded in the report")
		traces = flag.Int("traces", 0, "with -server: also fetch the server's retained traces (/v1/trace) and print the N slowest, spans inline")
		ingest = flag.Int("ingest", 0, "with -server: push N observations into a live stream (POST /v1/ingest), then time a cold and a repeat stream-sourced /v1/learn — the repeat must come back X-Khist-Cache: rhit")
		stream = flag.String("stream", "bench", "with -ingest: the stream id to feed")
	)
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	report, err := parse(r)
	if err != nil {
		fatal(err)
	}
	if len(report.Results) == 0 && *server == "" {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}
	if *server != "" {
		if *ingest > 0 {
			if err := runIngest(os.Stderr, *server, *stream, *ingest); err != nil {
				fatal(err)
			}
		}
		snap, err := fetchServerLatency(*server)
		if err != nil {
			fatal(err)
		}
		report.ServerLatency = snap
		printServerLatency(os.Stderr, snap, report.Results)
		if *traces > 0 {
			if err := printSlowTraces(os.Stderr, *server, *traces); err != nil {
				fatal(err)
			}
		}
	} else if *traces > 0 {
		fatal(fmt.Errorf("-traces needs -server"))
	} else if *ingest > 0 {
		fatal(fmt.Errorf("-ingest needs -server"))
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

func parse(r io.Reader) (*Report, error) {
	report := &Report{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	if report.NumCPU == 1 {
		report.Note = "single-CPU host: wall-clock speedup is not observable here; " +
			"compare ns/op across worker counts on a multi-core runner"
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			report.CPU = strings.TrimSpace(cpu)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		res := Result{Name: m[1], Family: m[1], Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			res.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			res.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		if wm := workersPart.FindStringSubmatch(m[1]); wm != nil {
			res.Workers, _ = strconv.Atoi(wm[1])
			res.Family = m[1][:strings.Index(m[1], "/workers=")]
		}
		if mm := modePart.FindStringSubmatch(m[1]); mm != nil {
			res.Mode = mm[1]
			res.Family = m[1][:strings.Index(m[1], "/mode=")]
			if im := itemsPart.FindStringSubmatch(m[1]); im != nil {
				res.Items, _ = strconv.Atoi(im[1])
			}
			if ns > 0 {
				if res.Items > 1 {
					// One batch op serves Items queries: report both the
					// amortized per-query cost and the query throughput.
					res.NsPerQuery = ns / float64(res.Items)
					res.RPS = float64(res.Items) * 1e9 / ns
				} else {
					res.RPS = 1e9 / ns
				}
			}
		}
		report.Results = append(report.Results, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// Speedup relative to the family's workers=1 row.
	base := map[string]float64{}
	for _, res := range report.Results {
		if res.Workers == 1 {
			base[res.Family] = res.NsPerOp
		}
	}
	for i := range report.Results {
		res := &report.Results[i]
		if b, ok := base[res.Family]; ok && res.NsPerOp > 0 {
			res.Speedup = b / res.NsPerOp
		}
	}
	return report, nil
}

// maxReplyBytes caps how much of a server reply this tool will buffer.
// A /v1/trace?limit=1000 body with every span populated stays well
// under 4 MiB; a reply past 16 MiB is a misbehaving (or hostile)
// endpoint, not data, and must not balloon the bench process instead
// of erroring.
const maxReplyBytes = 16 << 20

// countReader counts the bytes its inner reader delivered, so hitting
// the cap is distinguishable from a genuinely truncated reply.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// decodeReply decodes one JSON reply from a network body behind an
// explicit length bound (the repo-wide boundedread rule), failing
// loudly when the cap is exceeded rather than truncating silently.
func decodeReply(r io.Reader, v any) error {
	cr := &countReader{r: io.LimitReader(r, maxReplyBytes+1)}
	err := json.NewDecoder(cr).Decode(v)
	if cr.n > maxReplyBytes {
		return fmt.Errorf("reply exceeds the %d-byte cap", maxReplyBytes)
	}
	return err
}

// ingestDomain is the value domain -ingest feeds; it matches the n=512
// the synthetic serve modes use so the learned histograms compare.
const ingestDomain = 512

// ingestBatchCap bounds one /v1/ingest body; larger -ingest totals are
// split so no single request balloons past the server's body cap.
const ingestBatchCap = 4096

// runIngest drives the live ingest plane: it pushes total observations
// into the named stream for tenant "bench" (deterministic skewed values
// — low values hot — so reruns feed identical data), then times a cold
// and a repeat stream-sourced /v1/learn. The repeat must be a response-
// cache hit (X-Khist-Cache: rhit): the ingest advanced the stream
// version, so anything cached before this run is stale by fingerprint
// and the first learn recomputes.
func runIngest(w io.Writer, base, stream string, total int) error {
	hc := &http.Client{Timeout: 30 * time.Second}
	base = strings.TrimRight(base, "/")
	var version uint64
	var count int64
	seq := 0
	batches := 0
	for pushed := 0; pushed < total; {
		n := total - pushed
		if n > ingestBatchCap {
			n = ingestBatchCap
		}
		vals := make([]int, n)
		for i := range vals {
			// Min of two deterministic pseudo-uniform draws: triangular
			// skew toward low values, same data on every rerun.
			a := (seq * 2654435761) % ingestDomain
			b := (seq*40503 + 12345) % ingestDomain
			if b < a {
				a = b
			}
			vals[i] = a
			seq++
		}
		body, err := json.Marshal(map[string]any{
			"tenant": "bench", "stream": stream, "n": ingestDomain, "values": vals,
		})
		if err != nil {
			return err
		}
		resp, err := hc.Post(base+"/v1/ingest", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return fmt.Errorf("POST %s/v1/ingest: %w", base, err)
		}
		var ack struct {
			Version uint64 `json:"version"`
			Count   int64  `json:"count"`
		}
		decErr := decodeReply(resp.Body, &ack)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s/v1/ingest: status %d", base, resp.StatusCode)
		}
		if decErr != nil {
			return fmt.Errorf("decoding %s/v1/ingest: %w", base, decErr)
		}
		version, count = ack.Version, ack.Count
		pushed += n
		batches++
	}
	fmt.Fprintf(w, "ingest    %d observations in %d batches -> stream=%q version=%d count=%d\n",
		total, batches, stream, version, count)

	learnBody := fmt.Sprintf(
		`{"tenant":"bench","source":{"stream":%q},"k":4,"eps":0.2,"scale":0.02,"cap":8000,"seed":1}`, stream)
	learn := func() (time.Duration, string, error) {
		start := time.Now()
		resp, err := hc.Post(base+"/v1/learn", "application/json", strings.NewReader(learnBody))
		if err != nil {
			return 0, "", fmt.Errorf("POST %s/v1/learn: %w", base, err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, io.LimitReader(resp.Body, maxReplyBytes)); err != nil {
			return 0, "", err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, "", fmt.Errorf("%s/v1/learn from stream: status %d", base, resp.StatusCode)
		}
		return time.Since(start), resp.Header.Get("X-Khist-Cache"), nil
	}
	cold, coldStatus, err := learn()
	if err != nil {
		return err
	}
	repeat, repeatStatus, err := learn()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stream    cold learn   %10s  cache=%s\n", cold.Round(time.Microsecond), coldStatus)
	fmt.Fprintf(w, "stream    repeat learn %10s  cache=%s\n", repeat.Round(time.Microsecond), repeatStatus)
	if repeatStatus != "rhit" {
		return fmt.Errorf("repeat stream learn was not a response-cache hit (X-Khist-Cache=%q)", repeatStatus)
	}
	return nil
}

// fetchServerLatency pulls the latency snapshot out of a live server's
// /v1/stats body.
func fetchServerLatency(base string) (*obs.LatencySnapshot, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(strings.TrimRight(base, "/") + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("fetching %s/v1/stats: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/v1/stats: status %d", base, resp.StatusCode)
	}
	var stats struct {
		Latency *obs.LatencySnapshot `json:"latency"`
	}
	if err := decodeReply(resp.Body, &stats); err != nil {
		return nil, fmt.Errorf("decoding %s/v1/stats: %w", base, err)
	}
	if stats.Latency == nil {
		return nil, fmt.Errorf("%s reports no latency snapshot (metrics disabled, or no snapshot window elapsed yet)", base)
	}
	return stats.Latency, nil
}

// printServerLatency renders the server's own learned latency histogram
// next to the externally measured serve-mode rps rows, so the
// self-measurement and the measurement face each other.
func printServerLatency(w io.Writer, snap *obs.LatencySnapshot, results []Result) {
	for _, res := range results {
		if res.Mode != "" && res.RPS > 0 {
			fmt.Fprintf(w, "measured  mode=%-10s %12.1f req/s\n", res.Mode, res.RPS)
		}
	}
	fmt.Fprintf(w, "server    count=%d mean=%.0fus p50=%dus p90=%dus p99=%dus max=%dus\n",
		snap.Count, snap.MeanUS, snap.P50US, snap.P90US, snap.P99US, snap.MaxUS)
	if len(snap.Pieces) == 0 {
		fmt.Fprintln(w, "server    no learned histogram yet (stream below the learner's minimum)")
		return
	}
	fmt.Fprintf(w, "server    learned latency histogram (k=%d -> %d pieces, err_l2=%.3g, learned from %d draws of %d observations):\n",
		snap.K, snap.LearnedK, snap.ErrL2, snap.Samples, snap.SamplesSeen)
	for _, p := range snap.Pieces {
		bar := strings.Repeat("#", int(p.Mass*40+0.5))
		fmt.Fprintf(w, "  [%10dus, %10dus) %6.1f%% %s\n", p.LoUS, p.HiUS, p.Mass*100, bar)
	}
}

// printSlowTraces fetches the server's retained traces and prints the n
// slowest, each with its spans inline — the server-side view of where
// the benchmark's tail latency actually went.
func printSlowTraces(w io.Writer, base string, n int) error {
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(strings.TrimRight(base, "/") + "/v1/trace?limit=1000")
	if err != nil {
		return fmt.Errorf("fetching %s/v1/trace: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/v1/trace: status %d", base, resp.StatusCode)
	}
	var list struct {
		Enabled bool           `json:"enabled"`
		Traces  []*trace.Trace `json:"traces"`
	}
	if err := decodeReply(resp.Body, &list); err != nil {
		return fmt.Errorf("decoding %s/v1/trace: %w", base, err)
	}
	if !list.Enabled {
		fmt.Fprintln(w, "traces    tracing disabled on the server (-no-trace)")
		return nil
	}
	sort.Slice(list.Traces, func(i, j int) bool { return list.Traces[i].DurUS > list.Traces[j].DurUS })
	if len(list.Traces) > n {
		list.Traces = list.Traces[:n]
	}
	fmt.Fprintf(w, "traces    %d slowest retained server-side traces:\n", len(list.Traces))
	for _, tr := range list.Traces {
		fmt.Fprintf(w, "  %s %-8s status=%d kept=%s %8dus\n", tr.ID, tr.Endpoint, tr.Status, tr.Retained, tr.DurUS)
		for _, sp := range tr.Spans {
			loc := ""
			if sp.Node != "" {
				loc = " @" + sp.Node
			}
			note := ""
			if sp.Note != "" {
				note = " (" + sp.Note + ")"
			}
			fmt.Fprintf(w, "    %+8dus %8dus %s%s%s\n", sp.StartUS, sp.DurUS, sp.Name, note, loc)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "khist-bench:", err)
	os.Exit(1)
}
