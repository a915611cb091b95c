package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"khist/internal/cli"
	"khist/internal/collision"
	"khist/internal/dist"
	"khist/internal/grid"
	"khist/internal/histtest"
	"khist/internal/learn"
	"khist/internal/par"
	"khist/internal/serve"
	"khist/internal/stream"
)

// replayer recomputes served responses by calling each layer's public
// functions exactly as the server's pipeline does: resolve the source,
// size and draw the sample sets, run the algorithm, encode. With a span
// log it times every call, one span per layer, under the request's id.
type replayer struct {
	workers int
	log     *spanLog // nil: untimed
	dists   map[string]resolved
	grids   map[string]*grid.Grid
	// mirrors are sketches fed the same batches as the server's streams.
	mirrors map[string]*stream.TStream
	bundles *bundleCache
	// bodies holds the last verified body per request, which a response-
	// cache hit must repeat.
	bodies map[string][]byte
}

func newReplayer(workers int, log *spanLog) *replayer {
	return &replayer{
		workers: workers,
		log:     log,
		dists:   map[string]resolved{},
		grids:   map[string]*grid.Grid{},
		mirrors: map[string]*stream.TStream{},
		bundles: &bundleCache{max: 256 << 20, m: map[string]any{}},
		bodies:  map[string][]byte{},
	}
}

// span runs fn as one layer call; fn returns the call's work count
// (samples drawn, candidates scanned, flatness calls).
func (rp *replayer) span(req int, name string, fn func() int64) {
	if rp.log == nil {
		fn()
		return
	}
	t0 := time.Now()
	work := fn()
	rp.log.add(span{Req: req, Name: name, Parent: spanHandle, Start: t0, Dur: time.Since(t0), Work: work})
}

// sampleCap is the server's effective per-set cap for a request cap.
func sampleCap(reqCap int) int {
	if reqCap > 0 && reqCap < serve.DefaultMaxSamplesPerSet {
		return reqCap
	}
	return serve.DefaultMaxSamplesPerSet
}

func streamKey(tenant, id string) string { return tenant + "\x00" + id }

// resolve materializes a 1D source: a registry build the first time a
// generator source is seen (the server's registry caches it after
// that), or the stream mirror's snapshot.
func (rp *replayer) resolve(req int, tenant string, spec serve.SourceSpec) (d *dist.Distribution, fp uint64, err error) {
	if spec.Stream != "" {
		m := rp.mirrors[streamKey(tenant, spec.Stream)]
		if m == nil {
			return nil, 0, fmt.Errorf("no mirror for stream %q", spec.Stream)
		}
		var snap *stream.Snapshot
		rp.span(req, "stream.snapshot", func() int64 { snap = m.Snapshot(); return snap.Count })
		return snap.Dist, snap.Fingerprint, nil
	}
	key := fmt.Sprintf("%s|%d|%d|%d", spec.Gen, spec.N, spec.K, spec.Seed)
	rs, ok := rp.dists[key]
	if !ok {
		rp.span(req, "dist.resolve", func() int64 {
			if rs.d, err = cli.Generate(spec.Gen, spec.N, spec.K, spec.Seed); err == nil {
				rs.fp = rs.d.Fingerprint()
			}
			return int64(spec.N)
		})
		if err != nil {
			return nil, 0, err
		}
		rp.dists[key] = rs
	}
	return rs.d, rs.fp, nil
}

// resolved is a generator source as the server's registry holds it.
type resolved struct {
	d  *dist.Distribution
	fp uint64
}

// bundle returns the tabulated bundle a query ran on. A bundle-cache
// hit reuses the bundle drawn earlier (redrawn untimed if this replay
// dropped it); a miss draws it in a timed span named layer. draw returns
// the bundle, its sample count and its size in bytes.
func (rp *replayer) bundle(req int, status, key, layer string, draw func() (v any, samples, bytes int64)) any {
	if status == "hit" {
		if v, ok := rp.bundles.m[key]; ok {
			return v
		}
		v, _, _ := draw()
		return v
	}
	var v any
	var size int64
	rp.span(req, layer, func() int64 {
		var samples int64
		v, samples, size = draw()
		return samples
	})
	rp.bundles.put(key, v, size)
	return v
}

// drawSets draws the sample sets of a learn or test query exactly as
// the server's sample plane does: one sampler seeded with the request
// seed, each set from its own stream split off that seed.
func (rp *replayer) drawSets(d *dist.Distribution, seed int64, sizes []int) func() (any, int64, int64) {
	return func() (any, int64, int64) {
		sampler := dist.NewSampler(d, par.NewRand(uint64(seed)))
		sets := collision.CollectSetsSized(sampler, sizes, rp.workers, uint64(seed))
		var samples, bytes int64
		for i, e := range sets {
			samples += int64(sizes[i])
			bytes += e.SizeBytes()
		}
		return sets, samples, bytes
	}
}

// replay recomputes query q as the server reported running it (status
// is its cache disposition) and returns the encoded body, plus the
// decoded response when it was computed rather than repeated.
func (rp *replayer) replay(req int, q *query, binary bool, status string) ([]byte, any, error) {
	key := answerKey(q, binary)
	if status == serve.StatusRespHit {
		body, ok := rp.bodies[key]
		if !ok {
			return nil, nil, fmt.Errorf("%s: response-cache hit on a request never answered before", q.op)
		}
		return body, nil, nil
	}
	var resp any
	var err error
	switch q.op {
	case "learn":
		resp, err = rp.learn(req, q, status)
	case "test_l2", "test_l1":
		resp, err = rp.test(req, q, status)
	case "learn2d":
		resp, err = rp.learn2d(req, q, status)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", q.op, err)
	}
	var body []byte
	rp.span(req, "serve.encode", func() int64 {
		if binary {
			body = encodeResponse(resp)
		} else {
			body, err = json.Marshal(resp)
		}
		return int64(len(body))
	})
	return body, resp, err
}

func (rp *replayer) learn(req int, q *query, status string) (any, error) {
	r := q.lr
	d, fp, err := rp.resolve(req, r.Tenant, r.Source)
	if err != nil {
		return nil, err
	}
	opts := learn.Options{K: r.K, Eps: r.Eps, SampleScale: r.Scale, MaxSamplesPerSet: sampleCap(r.Cap), Parallelism: rp.workers}
	ell, nr, m, err := opts.SetSizes(d.N())
	if err != nil {
		return nil, err
	}
	sizes := []int{ell}
	for i := 0; i < nr; i++ {
		sizes = append(sizes, m)
	}
	key := fmt.Sprintf("%016x|%d|%d:%d:%d", fp, r.Seed, ell, nr, m)
	sets := rp.bundle(req, status, key, "collision.draw", rp.drawSets(d, r.Seed, sizes)).([]*dist.Empirical)
	var res *learn.Result
	rp.span(req, "learn.scan", func() int64 {
		if res, err = learn.FromTabulated(d.N(), sets[0], sets[1:], opts, !r.Full); err != nil {
			return 0
		}
		return res.CandidatesScanned
	})
	if err != nil {
		return nil, err
	}
	return &serve.LearnResponse{
		N: d.N(), K: r.K,
		Bounds: res.Tiling.Bounds(), Values: res.Tiling.Values(), Pieces: res.Tiling.Pieces(),
		SamplesUsed: res.SamplesUsed, Iterations: res.Iterations, CandidatesScanned: res.CandidatesScanned,
		Ell: res.Ell, R: res.R, M: res.M,
	}, nil
}

func (rp *replayer) test(req int, q *query, status string) (any, error) {
	r := q.tr
	d, fp, err := rp.resolve(req, r.Tenant, r.Source)
	if err != nil {
		return nil, err
	}
	opts := histtest.Options{K: r.K, Eps: r.Eps, SampleScale: r.Scale, MaxSamplesPerSet: sampleCap(r.Cap), Parallelism: rp.workers}
	l2 := q.op == "test_l2"
	var nr, m int
	if l2 {
		nr, m, err = opts.PlanL2(d.N())
	} else {
		nr, m, err = opts.PlanL1(d.N())
	}
	if err != nil {
		return nil, err
	}
	sizes := make([]int, nr)
	for i := range sizes {
		sizes[i] = m
	}
	key := fmt.Sprintf("%016x|%d|0:%d:%d", fp, r.Seed, nr, m)
	sets := rp.bundle(req, status, key, "collision.draw", rp.drawSets(d, r.Seed, sizes)).([]*dist.Empirical)
	var res *histtest.Result
	rp.span(req, "histtest.test", func() int64 {
		if l2 {
			res, err = histtest.TestTilingL2FromSets(sets, d.N(), opts)
		} else {
			res, err = histtest.TestTilingL1FromSets(sets, d.N(), opts)
		}
		if err != nil {
			return 0
		}
		return int64(res.FlatnessCalls)
	})
	if err != nil {
		return nil, err
	}
	partition := make([]serve.IntervalJSON, len(res.Partition))
	for i, iv := range res.Partition {
		partition[i] = serve.IntervalJSON{Lo: iv.Lo, Hi: iv.Hi}
	}
	return &serve.TestResponse{
		Accept: res.Accept, Norm: q.op[len("test_"):], Partition: partition,
		SamplesUsed: res.SamplesUsed, FlatnessCalls: res.FlatnessCalls, R: res.R, M: res.M,
	}, nil
}

func (rp *replayer) learn2d(req int, q *query, status string) (any, error) {
	r := q.gr
	spec := r.Source
	gkey := fmt.Sprintf("%s|%dx%d|%d|%d", spec.Gen, spec.Rows, spec.Cols, spec.K, spec.Seed)
	g := rp.grids[gkey]
	if g == nil {
		rp.span(req, "dist.resolve", func() int64 {
			switch spec.Gen {
			case "rect":
				g = grid.RandomRectHistogram(spec.Rows, spec.Cols, spec.K, rand.New(rand.NewSource(spec.Seed)))
			case "uniform":
				g = grid.Uniform2D(spec.Rows, spec.Cols)
			}
			return int64(spec.Rows * spec.Cols)
		})
		if g == nil {
			return nil, fmt.Errorf("no 2D generator %q", spec.Gen)
		}
		rp.grids[gkey] = g
	}
	opts := grid.Options2D{Rows: g.Rows(), Cols: g.Cols(), K: r.K, Eps: r.Eps, Samples: r.Samples, MaxCoords: r.MaxCoords, Parallelism: rp.workers}
	m := opts.SampleSize()
	if m > serve.DefaultMaxSamplesPerSet {
		m = serve.DefaultMaxSamplesPerSet
	}
	opts.Samples = m
	flat := g.Flatten()
	key := fmt.Sprintf("2d|%016x|%d|%d", flat.Fingerprint(), r.Seed, m)
	var err error
	emp := rp.bundle(req, status, key, "grid.tabulate", func() (any, int64, int64) {
		sampler := dist.NewSampler(flat, par.NewRand(uint64(r.Seed)))
		var emp *grid.Empirical2D
		if emp, err = grid.NewEmpirical2D(g.Rows(), g.Cols(), dist.DrawBatch(sampler, m)); err != nil {
			return emp, 0, 0
		}
		return emp, int64(m), emp.SizeBytes()
	}).(*grid.Empirical2D)
	if err != nil {
		return nil, err
	}
	var res *grid.Result2D
	rp.span(req, "grid.scan", func() int64 {
		if res, err = grid.Greedy2DFromTabulated(emp, opts); err != nil {
			return 0
		}
		return res.CandidatesScanned
	})
	if err != nil {
		return nil, err
	}
	entries := res.Hist.Entries()
	rects := make([]serve.RectJSON, len(entries))
	for i, e := range entries {
		rects[i] = serve.RectJSON{X0: e.R.X0, Y0: e.R.Y0, X1: e.R.X1, Y1: e.R.Y1, Value: e.V}
	}
	return &serve.Learn2DResponse{
		Rows: g.Rows(), Cols: g.Cols(), K: r.K, Rects: rects,
		SamplesUsed: res.SamplesUsed, Iterations: res.Iterations, CandidatesScanned: res.CandidatesScanned,
	}, nil
}

// ingest folds a batch into the stream's mirror sketch, built exactly
// as the server builds its own, and returns the acknowledgement the
// server must have sent.
func (rp *replayer) ingest(req int, op *ingestOp) ([]byte, error) {
	k := streamKey(op.req.Tenant, op.req.Stream)
	m := rp.mirrors[k]
	if m == nil {
		var err error
		m, err = stream.NewTStream(op.req.N, serve.DefaultStreamBuckets, serve.DefaultStreamReservoir, stream.SeedFor(op.req.Tenant, op.req.Stream))
		if err != nil {
			return nil, err
		}
		rp.mirrors[k] = m
	}
	var version uint64
	var count int64
	var err error
	rp.span(req, "stream.ingest", func() int64 {
		version, count, err = m.Ingest(op.req.Values)
		return int64(len(op.req.Values))
	})
	if err != nil {
		return nil, err
	}
	return append(mustJSON(serve.IngestResponse{Stream: op.req.Stream, Version: version, Count: count, N: op.req.N}), '\n'), nil
}

// verify compares a served body with the replay's and remembers it for
// later response-cache hits.
func (rp *replayer) verify(req int, q *query, binary bool, status string, served []byte) (any, error) {
	want, resp, err := rp.replay(req, q, binary, status)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(want, served) {
		return nil, fmt.Errorf("%s (cache %s): served body differs from the replayed layer calls\n served: %.300s\n replay: %.300s", q.op, status, served, want)
	}
	rp.bodies[answerKey(q, binary)] = want
	return resp, nil
}

// bundleCache holds replayed bundles for later bundle-cache hits, oldest
// dropped first past max bytes.
type bundleCache struct {
	max, used int64
	order     []string
	sizes     []int64
	m         map[string]any
}

func (c *bundleCache) put(key string, v any, size int64) {
	if _, ok := c.m[key]; ok {
		return
	}
	c.m[key] = v
	c.order = append(c.order, key)
	c.sizes = append(c.sizes, size)
	c.used += size
	for c.used > c.max && len(c.order) > 1 {
		delete(c.m, c.order[0])
		c.used -= c.sizes[0]
		c.order, c.sizes = c.order[1:], c.sizes[1:]
	}
}
