package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"testing"
	"time"

	"khist/internal/par"
	"khist/internal/serve"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailOf(t *testing.T) {
	// Ties at the top: 80 distinct values, then 20 copies of 100.
	tied := seq(100)
	for i := 80; i < 100; i++ {
		tied[i] = 100
	}
	for _, tc := range []struct {
		name    string
		sorted  []float64
		want    float64
		q, v    float64
		beyond  int
		support bool
	}{
		{"p99 supported", seq(1000), 0.99, 0.99, 990, 10, true},
		{"p99 falls back to p95", seq(500), 0.99, 0.95, 475, 25, true},
		{"ties push it down to p75", tied, 0.99, 0.75, 75, 25, true},
		{"asking for p95 never reports p99", seq(1000), 0.95, 0.95, 950, 50, true},
		{"too few samples", seq(12), 0.99, 0.5, 6, 6, false},
	} {
		got := tailOf(tc.sorted, tc.want)
		if got.q != tc.q || got.value != tc.v || got.beyond != tc.beyond {
			t.Errorf("%s: got p%g=%g with %d beyond, want p%g=%g with %d beyond", tc.name, 100*got.q, got.value, got.beyond, 100*tc.q, tc.v, tc.beyond)
		}
		if (got.beyond >= minBeyond) != tc.support {
			t.Errorf("%s: beyond=%d, supported=%v", tc.name, got.beyond, tc.support)
		}
	}
}

// fingerprint hashes a script's requests, unit by unit.
func fingerprint(sc *script) uint64 {
	h := fnv.New64a()
	for _, phase := range [][][]*request{sc.setup, sc.units, {sc.final}} {
		for _, u := range phase {
			h.Write([]byte("|unit|"))
			for _, r := range u {
				h.Write([]byte(r.path))
				h.Write(r.body)
			}
		}
	}
	return h.Sum64()
}

func TestScriptDeterministic(t *testing.T) {
	for _, wl := range workloads {
		w := wl.name
		a, err := buildScript(w, 7, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildScript(w, 7, 1, 2)
		c, _ := buildScript(w, 8, 1, 2)
		if fingerprint(a) != fingerprint(b) {
			t.Errorf("%s: two builds with seed 7 differ", w)
		}
		if fingerprint(a) == fingerprint(c) {
			t.Errorf("%s: seeds 7 and 8 build the same script", w)
		}
		if d, _ := buildScript(w, 7, 2, 2); len(flatten(d.units)) <= len(flatten(a.units)) {
			t.Errorf("%s: two seconds of script are no longer than one", w)
		}
	}
}

// tinyScript touches every path the replay distinguishes: response-cache
// hits (single, binary, batch), bundle hits, misses, 2D, and a stream
// across a version bump.
func tinyScript() *script {
	src := serve.SourceSpec{Gen: "khist", N: 128, K: 3, Seed: 4}
	lq := learnQ(serve.LearnRequest{Tenant: "t", Source: src, K: 2, Eps: 0.3, Scale: 0.05, Seed: 1})
	lq.bin = encodeRequest(lq)
	t2 := testQ("test_l2", serve.TestRequest{Tenant: "t", Source: src, K: 3, Eps: 0.3, Scale: 0.05, Cap: 300, Seed: 1})
	t1 := testQ("test_l1", serve.TestRequest{Tenant: "t", Source: src, K: 3, Eps: 0.3, Scale: 0.05, Cap: 300, Seed: 1})
	t1.bin = encodeRequest(t1)
	g := learn2dQ(serve.Learn2DRequest{Tenant: "t", Source: serve.Source2DSpec{Gen: "rect", Rows: 8, Cols: 8, K: 2, Seed: 3}, K: 2, Eps: 0.3, Samples: 500, Seed: 2})
	sq := streamRead("s", 0)
	ing := func(v uint64, values []int, binary bool) *request {
		op := &ingestOp{req: serve.IngestRequest{Tenant: "mix", Stream: "s", N: streamN, Values: values}, version: v, count: int64(v) * int64(len(values))}
		r := &request{path: "/v1/ingest", ingest: op, body: mustJSON(op.req)}
		if binary {
			r.body, r.binary = encodeIngest(&op.req), true
		}
		return r
	}
	vals := []int{0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}
	units := [][]*request{{
		single(lq, false), single(lq, false), single(lq, true),
		single(t2, false), single(t1, false), single(t1, true),
		batch([]*query{lq, t2}), single(g, false), single(g, false),
		ing(1, vals, false), single(sq, false), single(sq, false),
		ing(2, vals, true), single(sq, false),
	}}
	return &script{units: units, batches: map[string][][]int{"s": {vals, vals}}}
}

func TestReplayMatchesServer(t *testing.T) {
	sc := tinyScript()
	log, rp, err := tracedRun(sc)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range log.spans {
		seen[s.Name] = true
	}
	for _, name := range []string{spanHandle, "serve.encode", "dist.resolve", "collision.draw", "learn.scan", "histtest.test", "grid.tabulate", "grid.scan", "stream.ingest", "stream.snapshot"} {
		if !seen[name] {
			t.Errorf("no %s span", name)
		}
	}
	lm := layerMetrics(log, rp)
	for _, name := range []string{"serve.self_share", "collision.share", "learn.share", "histtest.share", "grid.share", "stream.share"} {
		if v := lm[name]; v < 0 || math.IsNaN(v) {
			t.Errorf("%s = %g", name, v)
		}
	}

	// The gate itself: a body that differs in one byte must be refused.
	q := sc.units[0][0].queries[0]
	good := rp.bodies[answerKey(q, false)]
	bad := bytes.Replace(good, []byte(`"k":2`), []byte(`"k":3`), 1)
	if _, err := rp.verify(0, q, false, serve.StatusRespHit, bad); err == nil {
		t.Error("a tampered body passed the replay check")
	}
}

func TestGroundTruth(t *testing.T) {
	for _, tc := range []struct {
		opt, eps float64
		norm     string
		want     int
	}{
		{0, 0.2, "l2sq", isKHist},
		{0.09, 0.2, "l2sq", isFar},    // distance 0.3
		{0.01, 0.2, "l2sq", excluded}, // distance 0.1
		{0.5, 0.3, "l1", isFar},
		{0.1, 0.3, "l1", excluded},
	} {
		if got := classOf(tc.opt, tc.norm, tc.eps); got != tc.want {
			t.Errorf("classOf(%g, %s, %g) = %d, want %d", tc.opt, tc.norm, tc.eps, got, tc.want)
		}
	}

	sc := &script{batches: map[string][][]int{}}
	rng := par.NewRand(1)
	sc.batches["hist"] = cut(designedStream(rng, false), 5)
	sc.batches["comb"] = cut(designedStream(rng, true), 5)
	tr := newTruth(sc)
	for _, tc := range []struct {
		op   string
		src  serve.SourceSpec
		k    int
		eps  float64
		want int
	}{
		{"test_l2", serve.SourceSpec{Gen: "khist", N: 256, K: 3, Seed: 9}, 3, 0.2, isKHist},
		{"test_l1", serve.SourceSpec{Gen: "uniform", N: 256}, 1, 0.2, isKHist},
		{"test_l2", serve.SourceSpec{Gen: "comb", N: 128}, 2, 0.15, isFar},
		{"test_l1", serve.SourceSpec{Gen: "twolevel", N: 256}, 2, 0.3, isFar},
		{"test_l2", serve.SourceSpec{Gen: "zipf", N: 256}, 4, 0.3, excluded},
		{"test_l2", serve.SourceSpec{Stream: "hist"}, 3, 0.1, isKHist},
		{"test_l2", serve.SourceSpec{Stream: "comb"}, 3, 0.1, isFar},
	} {
		q := testQ(tc.op, serve.TestRequest{Source: tc.src, K: tc.k, Eps: tc.eps})
		got, err := tr.classify(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s on %+v k=%d eps=%g: class %d, want %d", tc.op, tc.src, tc.k, tc.eps, got, tc.want)
		}
	}

	// A histogram equal to p has no excess; a flat one over a 3-piece p
	// has some.
	src := serve.SourceSpec{Gen: "khist", N: 64, K: 3, Seed: 2}
	p, _ := tr.pmf(src)
	exact := &serve.LearnResponse{N: 64, Bounds: []int{0}}
	for i := 0; i < 64; i++ {
		exact.Bounds = append(exact.Bounds, i+1)
		exact.Values = append(exact.Values, p.P(i))
	}
	q := learnQ(serve.LearnRequest{Source: src, K: 3, Eps: 0.3})
	if e, _ := tr.learnExcess(q, exact); e > 1e-15 {
		t.Errorf("excess of p itself = %g", e)
	}
	flat := &serve.LearnResponse{N: 64, Bounds: []int{0, 64}, Values: []float64{1.0 / 64}}
	if e, _ := tr.learnExcess(q, flat); e <= 0 {
		t.Errorf("excess of a flat histogram over a 3-piece p = %g", e)
	}
}

func TestCheckShape(t *testing.T) {
	iv := func(lo, hi int) serve.IntervalJSON { return serve.IntervalJSON{Lo: lo, Hi: hi} }
	lq := learnQ(serve.LearnRequest{K: 2})
	tq := testQ("test_l2", serve.TestRequest{K: 2})
	for _, tc := range []struct {
		q    *query
		resp any
		ok   bool
	}{
		{lq, &serve.LearnResponse{N: 8, K: 2, Bounds: []int{0, 3, 8}, Values: []float64{1, 2}, Pieces: 2}, true},
		{lq, &serve.LearnResponse{N: 8, K: 2, Bounds: []int{0, 3, 7}, Values: []float64{1, 2}, Pieces: 2}, false},
		{lq, &serve.LearnResponse{N: 8, K: 2, Bounds: []int{0, 3, 3, 8}, Values: []float64{1, 2, 3}, Pieces: 3}, false},
		{tq, &serve.TestResponse{Norm: "l2", Accept: true, Partition: []serve.IntervalJSON{iv(0, 5), iv(5, 8)}}, true},
		{tq, &serve.TestResponse{Norm: "l2", Accept: false, Partition: []serve.IntervalJSON{iv(0, 5), iv(5, 6)}}, true},
		{tq, &serve.TestResponse{Norm: "l2", Accept: true, Partition: []serve.IntervalJSON{iv(0, 5), iv(6, 8)}}, false},
		{tq, &serve.TestResponse{Norm: "l2", Accept: false, Partition: []serve.IntervalJSON{iv(0, 8)}}, false},
		{tq, &serve.TestResponse{Norm: "l1", Accept: true, Partition: []serve.IntervalJSON{iv(0, 8)}}, false},
	} {
		if err := checkShape(tc.q, tc.resp, 8); (err == nil) != tc.ok {
			t.Errorf("%+v: err=%v, want ok=%v", tc.resp, err, tc.ok)
		}
	}
}

// The runner reports exactly the metrics BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		json []struct{ Name, Unit string }
		code []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the runner %d", tc.name, len(tc.json), len(tc.code))
		}
		for i, m := range tc.json {
			if m.Name != tc.code[i].name || m.Unit != tc.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), runner %s (%s)", tc.name, i, m.Name, m.Unit, tc.code[i].name, tc.code[i].unit)
			}
		}
	}
}

func TestTailLatencySlices(t *testing.T) {
	// 5000 requests of 1 ms with every hundredth at 2 ms, except a slow
	// stretch of the first 1000 where every tenth takes 50 ms.
	var done []completion
	for i := 0; i < 5000; i++ {
		lat := time.Millisecond
		if i%100 == 0 {
			lat = 2 * time.Millisecond
		}
		if i < 1000 && i%10 == 0 {
			lat = 50 * time.Millisecond
		}
		done = append(done, completion{at: time.Duration(i) * time.Millisecond, lat: lat})
	}
	got := tailLatency(done)
	if got.q != 0.99 || got.value != 1 || got.beyond != 10 {
		t.Errorf("sliced p99 = p%g %g ms with %d beyond, want p99 1 ms with 10 beyond", 100*got.q, got.value, got.beyond)
	}
	// Too few requests to slice: the run's own tail, as tailOf reports it.
	short := done[:999]
	lats := make([]time.Duration, len(short))
	for i, d := range short {
		lats[i] = d.lat
	}
	if got, want := tailLatency(short), tailOf(durs(lats, false), 0.99); got != want {
		t.Errorf("unsliced tail = %+v, want %+v", got, want)
	}
}
