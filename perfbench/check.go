package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"khist/internal/serve"
)

// answer is one query's response body as served.
type answer struct {
	q      *query
	binary bool
	body   []byte // without the wire newline of JSON singles
}

// counts are the traffic properties of a phase, taken from the cache
// headers and batch cache fields.
type counts struct {
	requests, writes, queries, batchItems int64
	rhit, hit, coalesced, shed            int64
}

// checker is the correctness gate. Every reply passes through observe:
// transport errors, non-2xx statuses (429 sheds included), bodies that do
// not decode, and generator-sourced bodies that differ from the first
// response to the same request bytes all count as failures.
type checker struct {
	mu sync.Mutex
	// first holds the first body seen per generator-sourced request; the
	// answers in firsts are decoded and validated after the load.
	first  map[string][]byte
	firsts []answer
	// streamed holds stream-sourced bodies, whose content depends on the
	// version a read happened to see: validated, never compared.
	streamed  []answer
	attempted int64
	failed    int64
	failures  []string
	// timed accumulates only while counting is set (the timed phase).
	counting bool
	timed    counts
}

func newChecker() *checker { return &checker{first: map[string][]byte{}} }

func (c *checker) failf(format string, args ...any) {
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// answerKey addresses a response the way the server's response cache
// does: endpoint, encoding and request bytes.
func answerKey(q *query, binary bool) string {
	if binary {
		return q.op + "|b|" + string(q.bin)
	}
	return q.op + "|j|" + string(q.json)
}

// ingestAck is the exact acknowledgement a batch must get.
func ingestAck(op *ingestOp) []byte {
	return append(mustJSON(serve.IngestResponse{Stream: op.req.Stream, Version: op.version, Count: op.count, N: op.req.N}), '\n')
}

func (c *checker) observe(r *request, rep reply, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if c.counting {
		c.timed.requests++
		if r.ingest != nil {
			c.timed.writes++
		}
	}
	switch {
	case err != nil:
		c.failf("%s: %v", r.path, err)
	case rep.status != http.StatusOK:
		if rep.status == http.StatusTooManyRequests && c.counting {
			c.timed.shed++
		}
		c.failf("%s: status %d: %.200s", r.path, rep.status, rep.body)
	case r.ingest != nil:
		if want := ingestAck(r.ingest); !bytes.Equal(rep.body, want) {
			c.failf("ingest %s: ack %q, want %q", r.ingest.req.Stream, rep.body, want)
		}
	case r.path == "/v1/batch":
		var env serve.BatchResponse
		if err := json.Unmarshal(rep.body, &env); err != nil || len(env.Items) != len(r.queries) {
			c.failf("batch: malformed envelope (%v): %.200s", err, rep.body)
			return
		}
		for i, it := range env.Items {
			if it.Status != http.StatusOK {
				if it.Status == http.StatusTooManyRequests && c.counting {
					c.timed.shed++
				}
				c.failf("batch item %d: status %d: %.200s", i, it.Status, it.Body)
				continue
			}
			c.answer(r.queries[i], false, it.Body, it.Cache, true)
		}
	default:
		body := rep.body
		if !r.binary {
			if len(body) == 0 || body[len(body)-1] != '\n' {
				c.failf("%s: JSON body lacks the wire newline", r.path)
				return
			}
			body = body[:len(body)-1]
		}
		c.answer(r.queries[0], r.binary, body, rep.cache, false)
	}
}

// answer checks one query's body; c.mu is held.
func (c *checker) answer(q *query, binary bool, body []byte, cache string, inBatch bool) {
	if c.counting {
		c.timed.queries++
		if inBatch {
			c.timed.batchItems++
		}
		switch cache {
		case serve.StatusRespHit:
			c.timed.rhit++
		case "hit":
			c.timed.hit++
		case "coalesced":
			c.timed.coalesced++
		}
	}
	switch cache {
	case serve.StatusRespHit, "hit", "miss", "coalesced":
	default:
		c.failf("%s: cache status %q", q.op, cache)
		return
	}
	a := answer{q: q, binary: binary, body: body}
	if q.stream() != "" {
		c.streamed = append(c.streamed, a)
		return
	}
	key := answerKey(q, binary)
	if prev, ok := c.first[key]; ok {
		if !bytes.Equal(prev, body) {
			c.failf("%s: body differs from the first response to the same request\n first: %.300s\n  now: %.300s", q.op, prev, body)
		}
		return
	}
	c.first[key] = body
	c.firsts = append(c.firsts, a)
}

// validate decodes every kept body into the exported serve response type
// and checks its shape. It returns the decoded generator-sourced
// answers, which the ground-truth pass scores.
func (c *checker) validate(domain func(*query) int) []decoded {
	var out []decoded
	for _, set := range [][]answer{c.firsts, c.streamed} {
		for _, a := range set {
			resp, err := decodeAnswer(a)
			if err == nil {
				err = checkShape(a.q, resp, domain(a.q))
			}
			if err != nil {
				c.failf("%s: %v", a.q.op, err)
				continue
			}
			// A binary twin decodes to its JSON answer: score each query once.
			if a.q.stream() == "" && !a.binary {
				out = append(out, decoded{q: a.q, resp: resp})
			}
		}
	}
	return out
}

// decoded is a query with its decoded response.
type decoded struct {
	q    *query
	resp any
}

// decodeAnswer decodes a body strictly (unknown fields are errors) into
// the serve response type of its op. A binary body must also re-encode
// to the same bytes.
func decodeAnswer(a answer) (any, error) {
	if a.binary {
		resp, err := decodeResponse(a.q.op, a.body)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(encodeResponse(resp), a.body) {
			return nil, errors.New("binary body does not re-encode to the same bytes")
		}
		return resp, nil
	}
	var resp any
	switch a.q.op {
	case "learn":
		resp = &serve.LearnResponse{}
	case "learn2d":
		resp = &serve.Learn2DResponse{}
	default:
		resp = &serve.TestResponse{}
	}
	dec := json.NewDecoder(bytes.NewReader(a.body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(resp); err != nil {
		return nil, fmt.Errorf("decoding body: %w", err)
	}
	return resp, nil
}

// checkShape checks that a learned histogram tiles [0, n), that a tester
// partition covers [0, n) exactly when it accepts (and a prefix of it
// when it rejects), and that 2D rectangles lie inside the grid.
func checkShape(q *query, resp any, n int) error {
	switch r := resp.(type) {
	case *serve.LearnResponse:
		if r.N != n || r.K != q.lr.K {
			return fmt.Errorf("n=%d k=%d, want n=%d k=%d", r.N, r.K, n, q.lr.K)
		}
		b := r.Bounds
		if len(b) < 2 || b[0] != 0 || b[len(b)-1] != n || len(r.Values) != len(b)-1 || r.Pieces != len(r.Values) {
			return fmt.Errorf("bounds %v with %d values and %d pieces do not tile [0,%d)", b, len(r.Values), r.Pieces, n)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				return fmt.Errorf("bounds %v are not increasing", b)
			}
		}
	case *serve.TestResponse:
		if "test_"+r.Norm != q.op {
			return fmt.Errorf("norm %q answers %s", r.Norm, q.op)
		}
		end := 0
		for _, iv := range r.Partition {
			if iv.Lo != end || iv.Hi <= iv.Lo {
				return fmt.Errorf("partition %v is not contiguous from 0", r.Partition)
			}
			end = iv.Hi
		}
		if len(r.Partition) > q.tr.K || end > n || r.Accept != (end == n) {
			return fmt.Errorf("partition %v (accept=%v) does not match [0,%d) with k=%d", r.Partition, r.Accept, n, q.tr.K)
		}
	case *serve.Learn2DResponse:
		g := q.gr
		if r.Rows != g.Source.Rows || r.Cols != g.Source.Cols || r.K != g.K {
			return fmt.Errorf("%dx%d k=%d, want %dx%d k=%d", r.Rows, r.Cols, r.K, g.Source.Rows, g.Source.Cols, g.K)
		}
		for _, rc := range r.Rects {
			if rc.X0 < 0 || rc.Y0 < 0 || rc.X1 > r.Cols || rc.Y1 > r.Rows || rc.X0 >= rc.X1 || rc.Y0 >= rc.Y1 {
				return fmt.Errorf("rect %+v outside the %dx%d grid", rc, r.Rows, r.Cols)
			}
		}
	}
	return nil
}
