// Command perfbench is khist's end-to-end benchmark. It boots the
// khist-server binary built from the commit under test, drives it over
// loopback HTTP with one closed-loop keep-alive connection per CPU, and
// checks every response. A run executes a fixed-length request script
// generated from the seed, so every commit does the same work.
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// makes the same load run, then replays the script serially against an
// in-process server, timing each request's handler and every layer call
// the request made, and reports per-layer metrics. The last line of
// standard output is the result as one JSON object. See
// perfbench/README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"khist/internal/serve"
)

// metricSpec names one reported metric and its unit. The two lists
// below are the end_to_end and per_layer lists of BENCHMARK.json.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"throughput_qps", "queries/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"learn_excess_l2", "l2sq"},
	{"test_agreement", "ratio"},
}

func main() {
	workload := flag.String("workload", "", "hot_repeat | sweep | ingest_mix, or all: every workload, untraced and then traced")
	seed := flag.Int64("seed", 1, "script seed: the same seed gives the same requests")
	seconds := flag.Int("seconds", 20, "script length: seconds times the workload's nominal rate, in requests")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay instead of end-to-end metrics")
	bin := flag.String("server", ".bench_build/khist-server", "khist-server binary to boot")
	spansDir := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	type run struct {
		workload string
		traced   bool
	}
	runs := []run{{*workload, *traced == 1}}
	if *workload == "all" {
		runs = nil
		for _, w := range workloads {
			runs = append(runs, run{w.name, false}, run{w.name, true})
		}
	}
	ok := true
	for _, r := range runs {
		passed, err := runOne(r.workload, *seed, *seconds, r.traced, *bin, *spansDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		ok = ok && passed
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload and prints its report, the JSON result last.
// It reports whether every check passed; an error means no result.
func runOne(workload string, seed int64, seconds int, traced bool, bin, spansDir string) (bool, error) {
	conns := runtime.NumCPU()
	sc, err := buildScript(workload, seed, seconds, conns)
	if err != nil {
		return false, err
	}
	boots := 5 // set-up time is the median of five full set-ups
	if traced {
		boots = 1
	}
	ld, err := loadRun(sc, bin, boots, conns)
	if err != nil {
		return false, err
	}
	c := ld.chk
	answers := c.validate(domainOf)
	tc := c.timed
	lats := make([]time.Duration, len(ld.done))
	for i, d := range ld.done {
		lats[i] = d.lat
	}
	p50 := quantile(durs(lats, false), 0.5)
	vals, notes := map[string]float64{}, map[string]string{}
	list := endToEnd
	if traced {
		log, rp, err := tracedRun(sc)
		if err != nil {
			return false, fmt.Errorf("traced run: %w", err)
		}
		if err := log.write(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))); err != nil {
			return false, err
		}
		vals = layerMetrics(log, rp)
		nonRHit := tc.queries - tc.rhit
		vals["serve.rcache_hit_ratio"] = ratio(tc.rhit, tc.queries)
		vals["serve.bundle_hit_ratio"] = ratio(tc.hit, nonRHit)
		vals["serve.bundle_coalesced_ratio"] = ratio(tc.coalesced, nonRHit)
		vals["serve.shed"] = float64(tc.shed)
		vals["serve.rcache_evictions"] = float64(ld.stats.ResponseCache.Evictions)
		var bundleEv int64
		for _, sh := range ld.stats.PerShard {
			bundleEv += sh.CacheEvictions
		}
		vals["serve.bundle_evictions"] = float64(bundleEv)
		vals["wire_wait_ms_p50"] = p50 - vals["serve.handle_us_p50"]/1e3
		list = perLayer
	} else {
		excess, learns, agree, tests, err := quality(sc, append(answers, ld.finals...))
		if err != nil {
			return false, fmt.Errorf("ground truth: %w", err)
		}
		p99 := tailLatency(ld.done)
		vals = map[string]float64{
			"throughput_qps":  throughput(ld.elapsed, ld.done),
			"latency_p50_ms":  p50,
			"latency_p99_ms":  p99.value,
			"setup_s":         median(ld.setups),
			"peak_rss_mb":     ld.rssMB,
			"learn_excess_l2": excess,
			"test_agreement":  agree,
		}
		notes = map[string]string{
			"throughput_qps":  fmt.Sprintf("median of %d slices; %d queries in %d requests over %.2fs", windows, tc.queries, tc.requests, ld.elapsed.Seconds()),
			"latency_p50_ms":  fmt.Sprintf("%d requests", len(lats)),
			"latency_p99_ms":  fmt.Sprintf("median slice's p%g, %d requests beyond it", 100*p99.q, p99.beyond),
			"setup_s":         fmt.Sprintf("median of %d set-ups %.3f", len(ld.setups), ld.setups),
			"peak_rss_mb":     "server VmHWM at run end",
			"learn_excess_l2": fmt.Sprintf("mean over %d learns", learns),
			"test_agreement":  fmt.Sprintf("%d classified verdicts", tests),
		}
	}

	ok := c.failed == 0
	fmt.Printf("perfbench %s seed=%d seconds=%d conns=%d traced=%v\n", workload, seed, seconds, conns, traced)
	out := map[string]any{}
	for _, m := range list {
		fmt.Printf("  %-30s %14.6g %-10s %s\n", m.name, vals[m.name], m.unit, notes[m.name])
		out[m.name] = map[string]any{"value": vals[m.name], "unit": m.unit}
	}
	fmt.Printf("  %-30s %14.6g %-10s %d failed of %d requests\n", "error_rate", ratio(c.failed, c.attempted), "ratio", c.failed, c.attempted)
	nonRHit := tc.queries - tc.rhit
	fmt.Printf("  shares: write %.3f  batch-item %.3f  rcache-hit %.3f  bundle-reuse %.3f  identical-concurrent-miss %.3f\n",
		ratio(tc.writes, tc.requests), ratio(tc.batchItems, tc.queries), ratio(tc.rhit, tc.queries),
		ratio(tc.hit, nonRHit), ratio(tc.coalesced, nonRHit))
	for _, f := range c.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	line, err := json.Marshal(map[string]any{"correct": ok, "attempted": c.attempted, "failed": c.failed, "metrics": out})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return ok, nil
}

var perLayer = []metricSpec{
	{"serve.handle_us_p50", "us"},
	{"serve.self_us_p50", "us"},
	{"serve.self_share", "ratio"},
	{"serve.batch_item_us", "us"},
	{"serve.encode_us_p50", "us"},
	{"serve.rcache_hit_ratio", "ratio"},
	{"serve.bundle_hit_ratio", "ratio"},
	{"serve.bundle_coalesced_ratio", "ratio"},
	{"serve.shed", "count"},
	{"serve.rcache_evictions", "count"},
	{"serve.bundle_evictions", "count"},
	{"dist.resolve_us_p50", "us"},
	{"collision.draw_ms_p50", "ms"},
	{"collision.ns_per_sample", "ns"},
	{"collision.samples", "count"},
	{"collision.share", "ratio"},
	{"learn.scan_ms_p50", "ms"},
	{"learn.scan_ms_p99", "ms"},
	{"learn.ns_per_candidate", "ns"},
	{"learn.share", "ratio"},
	{"histtest.test_ms_p50", "ms"},
	{"histtest.flatness_calls", "count"},
	{"histtest.share", "ratio"},
	{"grid.scan_ms_p50", "ms"},
	{"grid.tabulate_ms_p50", "ms"},
	{"grid.share", "ratio"},
	{"stream.ingest_us_p50", "us"},
	{"stream.snapshot_us_p50", "us"},
	{"stream.sketch_bytes", "bytes"},
	{"stream.share", "ratio"},
	{"wire_wait_ms_p50", "ms"},
}

// domainOf is the domain size a query's source has.
func domainOf(q *query) int {
	switch {
	case q.stream() != "":
		return streamN
	case q.op == "learn":
		return q.lr.Source.N
	case q.op == "learn2d":
		return q.gr.Source.Rows * q.gr.Source.Cols
	}
	return q.tr.Source.N
}

// loadResult is what one load run measured.
type loadResult struct {
	setups  []float64 // seconds, one per boot
	elapsed time.Duration
	done    []completion // the timed phase's requests
	rssMB   float64
	stats   *serve.StatsResponse
	chk     *checker
	// finals are the quiescent reads, decoded after they matched the
	// mirror replay; they are deterministic, so the truth pass scores them.
	finals []decoded
}

// loadRun boots the server boots times, each time through the warm-up;
// the last boot then serves the timed phase and the final quiescent
// reads, which must match the replay on mirror sketches byte for byte.
func loadRun(sc *script, bin string, boots, conns int) (*loadResult, error) {
	ld := &loadResult{chk: newChecker()}
	for b := 0; b < boots; b++ {
		srv, listen, err := boot(bin)
		if err != nil {
			return nil, err
		}
		warm, _ := drive(srv.base, sc.setup, sc.pinned, conns, ld.chk)
		ld.setups = append(ld.setups, (listen + warm).Seconds())
		if b < boots-1 {
			srv.stop()
			continue
		}
		err = ld.timed(srv, sc, conns)
		srv.stop()
		if err != nil {
			return nil, err
		}
	}
	sort.Float64s(ld.setups)
	return ld, nil
}

func (ld *loadResult) timed(srv *server, sc *script, conns int) error {
	ld.chk.counting = true
	ld.elapsed, ld.done = drive(srv.base, sc.units, sc.pinned, conns, ld.chk)
	ld.chk.counting = false
	if len(ld.done) == 0 {
		return fmt.Errorf("no request of the timed phase completed")
	}
	if err := ld.final(srv, sc); err != nil {
		return err
	}
	var err error
	if ld.rssMB, err = srv.peakRSSMB(); err != nil {
		return err
	}
	ld.stats, err = srv.stats()
	if err == nil && ld.stats.ResponseCache == nil {
		err = fmt.Errorf("/v1/stats has no response_cache section")
	}
	return err
}

// final sends the quiescent reads one at a time and checks each against
// the replay on mirror sketches fed every batch of the script.
func (ld *loadResult) final(srv *server, sc *script) error {
	if len(sc.final) == 0 {
		return nil
	}
	rp := newReplayer(runtime.GOMAXPROCS(0), nil)
	// Each stream has one writer, so any order that keeps every unit's
	// own order feeds a mirror its batches as the server got them.
	for _, r := range append(flatten(sc.setup), flatten(sc.units)...) {
		if r.ingest != nil {
			if _, err := rp.ingest(0, r.ingest); err != nil {
				return err
			}
		}
	}
	cn := newConn(srv.base)
	defer cn.tr.CloseIdleConnections()
	for _, r := range sc.final {
		rep, err := cn.send(r)
		ld.chk.observe(r, rep, err)
		if err != nil || rep.status != http.StatusOK {
			continue
		}
		want, resp, err := rp.replay(0, r.queries[0], false, "miss")
		if err != nil {
			return err
		}
		if !bytes.Equal(append(want, '\n'), rep.body) {
			ld.chk.failf("quiescent read of %s differs from the mirror replay\n served: %.300s\n replay: %.300s", r.queries[0].stream(), rep.body, want)
			continue
		}
		ld.finals = append(ld.finals, decoded{q: r.queries[0], resp: resp})
	}
	return nil
}

// flatten concatenates units in order.
func flatten(units [][]*request) []*request {
	var out []*request
	for _, u := range units {
		out = append(out, u...)
	}
	return out
}
