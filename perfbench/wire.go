package main

import (
	"fmt"

	"khist/internal/dist"
	"khist/internal/serve"
)

// The application/x-khist-bin wire format, written from the benchmark's
// side with the public dist codec primitives: request frames are
// "khQ1" | op | fields, response frames "khR1" | op | fields. The server
// keeps its codec unexported, so the benchmark carries this second
// implementation; every binary body the server sends is decoded and
// re-encoded through it, so a drift between the two shows as a failed
// output check.

// Op bytes, numbered as the server numbers them.
const (
	opLearn byte = 1 + iota
	opTestL2
	opTestL1
	opLearn2D
	opIngest
)

var testOps = map[string]byte{"test_l2": opTestL2, "test_l1": opTestL1}

func appendSource(buf []byte, s serve.SourceSpec) []byte {
	buf = dist.AppendString(buf, s.Gen)
	buf = dist.AppendVarint(buf, int64(s.N))
	buf = dist.AppendVarint(buf, int64(s.K))
	buf = dist.AppendVarint(buf, s.Seed)
	buf = dist.AppendFloat64s(buf, s.Weights)
	return dist.AppendString(buf, s.Stream)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// encodeRequest renders a learn or tester query as a binary body.
func encodeRequest(q *query) []byte {
	buf := []byte("khQ1")
	if q.op == "learn" {
		r := &q.lr
		buf = append(buf, opLearn)
		buf = dist.AppendString(buf, r.Tenant)
		buf = appendSource(buf, r.Source)
		buf = dist.AppendVarint(buf, int64(r.K))
		buf = dist.AppendFloat64(buf, r.Eps)
		buf = dist.AppendFloat64(buf, r.Scale)
		buf = dist.AppendVarint(buf, int64(r.Cap))
		buf = dist.AppendVarint(buf, r.Seed)
		return appendBool(buf, r.Full)
	}
	r := &q.tr
	buf = append(buf, testOps[q.op])
	buf = dist.AppendString(buf, r.Tenant)
	buf = appendSource(buf, r.Source)
	buf = dist.AppendVarint(buf, int64(r.K))
	buf = dist.AppendFloat64(buf, r.Eps)
	buf = dist.AppendFloat64(buf, r.Scale)
	buf = dist.AppendVarint(buf, int64(r.Cap))
	return dist.AppendVarint(buf, r.Seed)
}

// encodeIngest renders an ingest batch as a binary body.
func encodeIngest(r *serve.IngestRequest) []byte {
	buf := append([]byte("khQ1"), opIngest)
	buf = dist.AppendString(buf, r.Tenant)
	buf = dist.AppendString(buf, r.Stream)
	buf = dist.AppendVarint(buf, int64(r.N))
	buf = dist.AppendVarint(buf, int64(len(r.Values)))
	for _, v := range r.Values {
		buf = dist.AppendVarint(buf, int64(v))
	}
	return buf
}

// encodeResponse renders a learn or tester response as a binary body.
func encodeResponse(resp any) []byte {
	buf := []byte("khR1")
	switch r := resp.(type) {
	case *serve.LearnResponse:
		buf = append(buf, opLearn)
		buf = dist.AppendVarint(buf, int64(r.N))
		buf = dist.AppendVarint(buf, int64(r.K))
		buf = dist.AppendDeltaInts(buf, r.Bounds)
		buf = dist.AppendFloat64s(buf, r.Values)
		for _, v := range []int64{int64(r.Pieces), r.SamplesUsed, int64(r.Iterations), r.CandidatesScanned, int64(r.Ell), int64(r.R), int64(r.M)} {
			buf = dist.AppendVarint(buf, v)
		}
		return buf
	case *serve.TestResponse:
		buf = append(buf, testOps["test_"+r.Norm])
		buf = appendBool(buf, r.Accept)
		buf = dist.AppendVarint(buf, int64(len(r.Partition)))
		for _, iv := range r.Partition {
			buf = dist.AppendVarint(buf, int64(iv.Lo))
			buf = dist.AppendVarint(buf, int64(iv.Hi))
		}
		for _, v := range []int64{r.SamplesUsed, int64(r.FlatnessCalls), int64(r.R), int64(r.M)} {
			buf = dist.AppendVarint(buf, v)
		}
		return buf
	}
	panic(fmt.Sprintf("no binary encoding for %T", resp))
}

// wireReader reads the fields of one frame, keeping the first error.
type wireReader struct {
	data []byte
	err  error
}

func (w *wireReader) int() int64 {
	if w.err != nil {
		return 0
	}
	var v int64
	v, w.data, w.err = dist.ReadVarint(w.data)
	return v
}

// maxWireLen bounds decoded lengths: no benchmark domain comes near it.
const maxWireLen = 1 << 20

// decodeResponse decodes a binary learn or tester response for op.
func decodeResponse(op string, body []byte) (any, error) {
	want := opLearn
	if op != "learn" {
		want = testOps[op]
	}
	if len(body) < 5 || string(body[:4]) != "khR1" || body[4] != want {
		return nil, fmt.Errorf("binary %s response has a bad frame header", op)
	}
	w := &wireReader{data: body[5:]}
	var resp any
	if op == "learn" {
		r := &serve.LearnResponse{N: int(w.int()), K: int(w.int())}
		if w.err == nil {
			r.Bounds, w.data, w.err = dist.ReadDeltaInts(w.data, maxWireLen)
		}
		if w.err == nil {
			r.Values, w.data, w.err = dist.ReadFloat64s(w.data, maxWireLen)
		}
		r.Pieces, r.SamplesUsed, r.Iterations = int(w.int()), w.int(), int(w.int())
		r.CandidatesScanned, r.Ell, r.R, r.M = w.int(), int(w.int()), int(w.int()), int(w.int())
		resp = r
	} else {
		r := &serve.TestResponse{Norm: op[len("test_"):]}
		if len(w.data) < 1 || w.data[0] > 1 {
			return nil, fmt.Errorf("binary %s response has a bad accept byte", op)
		}
		r.Accept, w.data = w.data[0] == 1, w.data[1:]
		n := w.int()
		if n < 0 || n > maxWireLen {
			return nil, fmt.Errorf("binary %s response claims %d intervals", op, n)
		}
		for i := int64(0); i < n && w.err == nil; i++ {
			r.Partition = append(r.Partition, serve.IntervalJSON{Lo: int(w.int()), Hi: int(w.int())})
		}
		r.SamplesUsed, r.FlatnessCalls, r.R, r.M = w.int(), int(w.int()), int(w.int()), int(w.int())
		resp = r
	}
	if w.err != nil {
		return nil, fmt.Errorf("binary %s response: %w", op, w.err)
	}
	if len(w.data) != 0 {
		return nil, fmt.Errorf("binary %s response has %d trailing bytes", op, len(w.data))
	}
	return resp, nil
}
