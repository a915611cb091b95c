package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"khist/internal/par"
	"khist/internal/serve"
)

// workloads lists the three workloads in report order; each stresses
// different layers of the server (the README gives the reasons). rate
// converts --seconds into the script's fixed length, seconds*rate
// requests (sessions for sweep), so every commit does the same work and
// only the time it takes differs. The rates are what each workload ran
// at on a 2-vCPU x86-64 VM when it was defined.
var workloads = []struct {
	name  string
	build func(g *gen) *script
	rate  int
}{
	{"hot_repeat", hotRepeat, 4500},
	{"sweep", sweep, 4},
	{"ingest_mix", ingestMix, 1000},
}

// query is one algorithm sub-query: the JSON body of one of the four
// algorithm endpoints (batch items embed these bytes verbatim) plus the
// decoded request, which the checks and the replay read.
type query struct {
	op   string // learn | test_l2 | test_l1 | learn2d
	json []byte
	// bin is the application/x-khist-bin encoding of the same request,
	// set when the query is sent as a binary single request.
	bin []byte
	lr  serve.LearnRequest
	tr  serve.TestRequest
	gr  serve.Learn2DRequest
}

// stream returns the stream id the query reads, or "".
func (q *query) stream() string {
	switch q.op {
	case "learn":
		return q.lr.Source.Stream
	case "test_l2", "test_l1":
		return q.tr.Source.Stream
	}
	return ""
}

// request is one HTTP request of a script.
type request struct {
	path string
	body []byte
	// binary marks an application/x-khist-bin request body (the server
	// then answers in the same encoding).
	binary bool
	// queries are the algorithm sub-queries: one for a single request,
	// the items of a /v1/batch envelope, none for an ingest.
	queries []*query
	ingest  *ingestOp
}

// ingestOp is one /v1/ingest batch with the acknowledgement the server
// must send: each stream has one writer, so its versions are known.
type ingestOp struct {
	req     serve.IngestRequest
	version uint64
	count   int64
}

// script is a workload's whole request sequence, a pure function of
// (workload, seed, seconds, conns).
type script struct {
	// setup (the warm-up after each boot) and units (the timed phase)
	// are units: request sequences one connection sends in order.
	// Connections take the next free unit, except when pinned, where unit
	// i of a phase belongs to connection i.
	setup  [][]*request
	units  [][]*request
	pinned bool
	// final holds quiescent reads sent after the load, one at a time.
	final []*request
	// batches lists every stream's ingest batches in the order its single
	// writer sends them; streamN is the domain of every stream.
	batches map[string][][]int
}

// gen carries the generator state of one script build; total is the
// script length, seconds*rate.
type gen struct {
	rng   *rand.Rand
	total int
	conns int
	sc    *script
}

// buildScript generates a workload's script. The server receives only
// the requests generated here.
func buildScript(workload string, seed int64, seconds, conns int) (*script, error) {
	if seconds < 1 || conns < 1 {
		return nil, fmt.Errorf("need seconds >= 1 and conns >= 1")
	}
	for _, w := range workloads {
		if w.name == workload {
			g := &gen{rng: par.NewRand(uint64(seed)), total: seconds * w.rate, conns: conns}
			g.sc = &script{batches: map[string][][]int{}}
			return w.build(g), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want hot_repeat | sweep | ingest_mix | all)", workload)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return b
}

func learnQ(r serve.LearnRequest) *query {
	return &query{op: "learn", lr: r, json: mustJSON(r)}
}

func testQ(op string, r serve.TestRequest) *query {
	return &query{op: op, tr: r, json: mustJSON(r)}
}

func learn2dQ(r serve.Learn2DRequest) *query {
	return &query{op: "learn2d", gr: r, json: mustJSON(r)}
}

var opPaths = map[string]string{
	"learn":   "/v1/learn",
	"test_l2": "/v1/test/l2",
	"test_l1": "/v1/test/l1",
	"learn2d": "/v1/learn2d",
}

// single wraps a query as a single request, binary when q.bin is set.
func single(q *query, binary bool) *request {
	if binary {
		return &request{path: opPaths[q.op], body: q.bin, binary: true, queries: []*query{q}}
	}
	return &request{path: opPaths[q.op], body: q.json, queries: []*query{q}}
}

// batch builds a /v1/batch envelope whose items are the queries' JSON
// bytes, verbatim, so items share response-cache entries with singles.
func batch(qs []*query) *request {
	body := []byte(`{"items":[`)
	for i, q := range qs {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"op":"`...)
		body = append(body, q.op...)
		body = append(body, `","req":`...)
		body = append(body, q.json...)
		body = append(body, '}')
	}
	body = append(body, "]}"...)
	return &request{path: "/v1/batch", body: body, queries: qs}
}

// --- hot_repeat ---

// hotRepeat: a working set of generator-sourced learn/test queries,
// every one computed during setup, then requested with Zipf popularity
// as JSON singles, binary singles and /v1/batch envelopes. Every timed
// query is a response-cache hit.
func hotRepeat(g *gen) *script {
	sc := g.sc
	var ws []*query
	for _, src := range genSources(0) {
		for _, drawSeed := range []int64{g.rng.Int63n(1 << 30), g.rng.Int63n(1 << 30)} {
			for _, k := range []int{2, 3, 4} {
				for _, eps := range []float64{0.25, 0.3} {
					ws = append(ws, learnQ(serve.LearnRequest{Tenant: "hot", Source: src, K: k, Eps: eps, Scale: 0.05, Seed: drawSeed}))
				}
			}
			// One binding cap for every tester of a (source, seed): they
			// share a single tabulated bundle.
			for _, k := range []int{2, 4} {
				for _, eps := range []float64{0.2, 0.3} {
					ws = append(ws, testQ("test_l2", serve.TestRequest{Tenant: "hot", Source: src, K: k, Eps: eps, Scale: 0.05, Cap: 2000, Seed: drawSeed}))
				}
				ws = append(ws, testQ("test_l1", serve.TestRequest{Tenant: "hot", Source: src, K: k, Eps: 0.3, Scale: 0.05, Cap: 2000, Seed: drawSeed}))
			}
		}
	}
	// Every other working-set query also has a binary twin.
	var bins []*query
	for i, q := range ws {
		if i%2 == 0 {
			q.bin = encodeRequest(q)
			bins = append(bins, q)
		}
	}
	for _, q := range ws {
		sc.setup = append(sc.setup, []*request{single(q, false)})
		if q.bin != nil {
			sc.setup = append(sc.setup, []*request{single(q, true)})
		}
	}
	// Popularity: Zipf ranks over a seeded permutation, so the hot set
	// differs per seed while its shape does not.
	pick := func(set []*query) func() *query {
		perm := g.rng.Perm(len(set))
		z := rand.NewZipf(g.rng, 1.2, 1, uint64(len(set)-1))
		return func() *query { return set[perm[z.Uint64()]] }
	}
	pickJSON, pickBin := pick(ws), pick(bins)
	const batchItems = 16
	for i := 0; i < g.total; i++ {
		var r *request
		switch u := g.rng.Float64(); {
		case u < 0.5:
			r = single(pickJSON(), false)
		case u < 0.75:
			r = single(pickBin(), true)
		default:
			qs := make([]*query, batchItems)
			for j := range qs {
				qs[j] = pickJSON()
			}
			r = batch(qs)
		}
		sc.units = append(sc.units, []*request{r})
	}
	return sc
}

// genSources is round r of the generator-sourced source set: exact
// k-histograms (tester instances that must accept), the comb and
// two-level instances the l2 and l1 testers must reject, and smooth
// shapes in between. The shapes depend on the round, not the seed, so
// every run of a given length queries the same instances and the seed
// moves only the draws and the order; the quality metrics then vary
// across seeds by sampling noise alone.
func genSources(r int) []serve.SourceSpec {
	return []serve.SourceSpec{
		{Gen: "khist", N: 256, K: 2, Seed: int64(3*r + 1)},
		{Gen: "khist", N: 256, K: 3, Seed: int64(3*r + 2)},
		{Gen: "khist", N: 256, K: 4, Seed: int64(3*r + 3)},
		{Gen: "uniform", N: 256},
		{Gen: "zipf", N: 256},
		{Gen: "geometric", N: 256},
		{Gen: "comb", N: 128},
		{Gen: "twolevel", N: 256},
	}
}

// --- sweep ---

// sweep: analyst sessions. A session fixes (source, draw seed) and
// walks a (k, eps) grid across learn, test_l2, test_l1 and learn2d;
// no body repeats, so every query misses the response cache. Half of a
// session's learns carry the session's shared cap and half of its
// testers the shared tester cap; the caps bind, so those queries reuse
// one tabulated bundle per family (the first draws it), and the rest
// draw bundles of their own.
func sweep(g *gen) *script {
	sc := g.sc
	sessions := g.total
	var srcs []serve.SourceSpec
	for len(srcs) < sessions {
		set := genSources(len(srcs) / 8)
		g.rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		srcs = append(srcs, set...)
	}
	for s := 0; s < sessions; s++ {
		src := srcs[s]
		tenant := fmt.Sprintf("analyst%d", s%4)
		seed := g.rng.Int63n(1 << 30)
		learnCap := 300 + g.rng.Intn(100)
		testCap := 2000 - g.rng.Intn(100)
		var unit []*request
		i := 0
		reuse := func() bool { i++; return i%2 == 1 }
		for _, k := range []int{2, 3, 4} {
			for _, eps := range []float64{0.3, 0.25, 0.2} {
				c := learnCap
				if !reuse() {
					c = learnCap + i
				}
				// Scale 1 keeps ell and m above every cap used here, so the
				// cap alone sets the bundle's sizes.
				unit = append(unit, single(learnQ(serve.LearnRequest{Tenant: tenant, Source: src, K: k, Eps: eps, Scale: 1, Cap: c, Seed: seed}), false))
			}
		}
		for _, k := range []int{2, 4} {
			for _, t := range []struct {
				op  string
				eps float64
			}{{"test_l2", 0.3}, {"test_l2", 0.2}, {"test_l1", 0.25}} {
				c := testCap
				if !reuse() {
					c = testCap - i
				}
				unit = append(unit, single(testQ(t.op, serve.TestRequest{Tenant: tenant, Source: src, K: k, Eps: t.eps, Scale: 0.05, Cap: c, Seed: seed}), false))
			}
		}
		grid := serve.Source2DSpec{Gen: "rect", Rows: 16, Cols: 16, K: 3, Seed: seed}
		for j, k := range []int{2, 3} {
			unit = append(unit, single(learn2dQ(serve.Learn2DRequest{Tenant: tenant, Source: grid, K: k, Eps: 0.25, Samples: 3000 + j, Seed: seed}), false))
		}
		// Walk order within the session is the analyst's.
		g.rng.Shuffle(len(unit), func(i, j int) { unit[i], unit[j] = unit[j], unit[i] })
		sc.units = append(sc.units, unit)
	}
	// Warm-up: session-like queries on a tenant and sources the timed
	// phase never uses, so the process is warm without pre-filling any
	// cache the sessions read.
	for _, src := range []serve.SourceSpec{{Gen: "staircase", N: 256}, {Gen: "zipf", N: 512}, {Gen: "geometric", N: 512}, {Gen: "uniform", N: 512}} {
		for k := 2; k <= 4; k++ {
			for _, eps := range []float64{0.3, 0.25, 0.2} {
				sc.setup = append(sc.setup, []*request{single(learnQ(serve.LearnRequest{Tenant: "warm", Source: src, K: k, Eps: eps, Scale: 1, Cap: 350, Seed: 1}), false)})
			}
			sc.setup = append(sc.setup, []*request{single(testQ("test_l2", serve.TestRequest{Tenant: "warm", Source: src, K: k, Eps: 0.3, Scale: 0.05, Cap: 1000, Seed: 1}), false)})
		}
	}
	return sc
}

// --- ingest_mix ---

// streamN is the domain of every ingest_mix stream. It equals the
// server's default bucket budget, so the bounded histogram holds every
// value exactly once a stream outgrows its 4096-slot reservoir.
const streamN = 256

// Per connection: liveStreams streams that take batches all run long,
// idleStreams that take one batch and then go idle, liveValues
// observations per live stream over the whole run (past the reservoir),
// readsPerRow reads after each batch, and warmRows rows of warm-up.
const (
	liveStreams = 3
	idleStreams = 4
	liveValues  = 8192
	readsPerRow = 20
	warmRows    = 30
)

// ingestMix: writes beside reads. Connection c is the only writer of its
// streams; it reads learn and test_l2 from its own streams and from the
// next connection's. Reads between version bumps are response-cache
// hits; the first read of a body after a bump recomputes.
func ingestMix(g *gen) *script {
	sc := g.sc
	sc.pinned = true
	rows := warmRows + max(g.total/g.conns/(1+readsPerRow), liveStreams)
	live := func(c, j int) string { return fmt.Sprintf("c%d.live%d", c, j) }
	// Every live stream's values are an exact, designed multiset shuffled
	// into batches, so the truth at the end is known exactly: even
	// streams are 3-piece histograms, odd ones a comb far from any. The
	// shapes are fixed per stream; the seed shuffles the values.
	for c := 0; c < g.conns; c++ {
		for j := 0; j < liveStreams; j++ {
			values := designedStream(par.NewRand(uint64(c*liveStreams+j+1)), j%2 == 1)
			g.rng.Shuffle(len(values), func(a, b int) { values[a], values[b] = values[b], values[a] })
			// Batch 1 opens the stream, the rest go on the stream's rows.
			nb := 1 + (rows-j+liveStreams-1)/liveStreams
			sc.batches[live(c, j)] = cut(values, nb)
		}
	}
	version := map[string]uint64{}
	count := map[string]int64{}
	ingest := func(id string, values []int, binary bool) *request {
		version[id]++
		count[id] += int64(len(values))
		op := &ingestOp{req: serve.IngestRequest{Tenant: "mix", Stream: id, N: streamN, Values: values}, version: version[id], count: count[id]}
		r := &request{path: "/v1/ingest", ingest: op, body: mustJSON(op.req)}
		if binary {
			r.body, r.binary = encodeIngest(&op.req), true
		}
		return r
	}
	next := map[string]int{}
	nextBatch := func(id string) []int {
		b := sc.batches[id][next[id]]
		next[id]++
		return b
	}
	// Each connection's traffic is a sequence of rows: one batch for one
	// of its live streams, then readsPerRow reads. The warm-up opens the
	// connection's streams and sends its first warmRows rows, reading only
	// its own streams, since the next connection's may not exist yet.
	idleAt := map[int]int{}
	for j := 0; j < idleStreams; j++ {
		idleAt[warmRows+(j*(rows-warmRows))/idleStreams+1] = j
	}
	for c := 0; c < g.conns; c++ {
		other := (c + 1) % g.conns
		var setup, unit []*request
		for j := 0; j < liveStreams; j++ {
			setup = append(setup, ingest(live(c, j), nextBatch(live(c, j)), false))
		}
		for row := 0; row < rows; row++ {
			warm := row < warmRows
			id := live(c, row%liveStreams)
			reqs := []*request{ingest(id, nextBatch(id), row%2 == 1)}
			if j, ok := idleAt[row]; ok {
				id := fmt.Sprintf("c%d.idle%d", c, j)
				vals := make([]int, 200)
				for i := range vals {
					vals[i] = g.rng.Intn(streamN)
				}
				sc.batches[id] = [][]int{vals}
				reqs = append(reqs, ingest(id, vals, false))
			}
			for r := 0; r < readsPerRow; r++ {
				owner := c
				if g.rng.Intn(2) == 1 && !warm {
					owner = other
				}
				reqs = append(reqs, single(streamRead(live(owner, g.rng.Intn(liveStreams)), g.rng.Intn(3)), false))
			}
			if warm {
				setup = append(setup, reqs...)
			} else {
				unit = append(unit, reqs...)
			}
		}
		sc.setup = append(sc.setup, setup)
		sc.units = append(sc.units, unit)
	}
	// Quiescent reads of every stream, checked byte for byte against the
	// replay on a mirror sketch fed the same batches.
	ids := make([]string, 0, len(sc.batches))
	for id := range sc.batches {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		src := serve.SourceSpec{Stream: id}
		for _, k := range []int{2, 3, 4} {
			sc.final = append(sc.final, single(learnQ(serve.LearnRequest{Tenant: "mix", Source: src, K: k, Eps: 0.3, Scale: 0.05, Seed: 11}), false))
		}
		if len(sc.batches[id]) == 1 {
			continue // idle streams: too few values for a tester verdict to mean anything
		}
		for _, seed := range []int64{21, 22, 23} {
			sc.final = append(sc.final, single(testQ("test_l2", serve.TestRequest{Tenant: "mix", Source: src, K: 3, Eps: 0.1, Scale: 0.05, Cap: 2000, Seed: seed}), false))
		}
		sc.final = append(sc.final, single(testQ("test_l1", serve.TestRequest{Tenant: "mix", Source: src, K: 3, Eps: 0.3, Scale: 0.05, Cap: 2000, Seed: 24}), false))
	}
	return sc
}

// streamRead is one of the three read templates of ingest_mix: a cheap
// learn and two testers, whose collision-set draws dominate the cost of
// a read after a version bump. The seeds are fixed so a body repeats
// until the stream's next version bump.
func streamRead(id string, template int) *query {
	src := serve.SourceSpec{Stream: id}
	switch template {
	case 0:
		return learnQ(serve.LearnRequest{Tenant: "mix", Source: src, K: 2, Eps: 0.3, Scale: 0.05, Seed: 7})
	case 1:
		return testQ("test_l2", serve.TestRequest{Tenant: "mix", Source: src, K: 2, Eps: 0.3, Scale: 0.05, Cap: 2000, Seed: 8})
	}
	return testQ("test_l2", serve.TestRequest{Tenant: "mix", Source: src, K: 3, Eps: 0.25, Scale: 0.05, Cap: 2000, Seed: 7})
}

// designedStream returns a multiset of about liveValues values over
// [0, streamN), in ascending order, whose exact pmf is a 3-piece
// histogram, or with comb set, equal spikes on the even values below
// streamN/4.
func designedStream(rng *rand.Rand, comb bool) []int {
	counts := make([]int, streamN)
	if comb {
		for v := 0; v < streamN/4; v += 2 {
			counts[v] = liveValues / (streamN / 8)
		}
	} else {
		cuts := []int{0, 1 + rng.Intn(streamN/2-1), 0, streamN}
		cuts[2] = cuts[1] + 1 + rng.Intn(streamN-cuts[1]-1)
		for p := 0; p < 3; p++ {
			h := 1 + rng.Intn(8)
			for v := cuts[p]; v < cuts[p+1]; v++ {
				counts[v] = h
			}
		}
		// Scale the heights to about liveValues values in total.
		sum := 0
		for _, c := range counts {
			sum += c
		}
		mult := (liveValues + sum - 1) / sum
		for v := range counts {
			counts[v] *= mult
		}
	}
	var values []int
	for v, c := range counts {
		for i := 0; i < c; i++ {
			values = append(values, v)
		}
	}
	return values
}

// cut splits values into nb consecutive batches of near-equal size.
func cut(values []int, nb int) [][]int {
	out := make([][]int, nb)
	for i := range out {
		out[i] = values[i*len(values)/nb : (i+1)*len(values)/nb]
	}
	return out
}
