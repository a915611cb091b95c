package serve

import (
	"fmt"

	"khist/internal/dist"
)

// The client half of the binary wire codec (bincodec.go): request
// encoders and response decoders. The server decodes requests and
// encodes responses; only tests and benchmarks speak the other side.

func appendSourceSpec(buf []byte, s SourceSpec) []byte {
	buf = dist.AppendString(buf, s.Gen)
	buf = dist.AppendVarint(buf, int64(s.N))
	buf = dist.AppendVarint(buf, int64(s.K))
	buf = dist.AppendVarint(buf, s.Seed)
	buf = dist.AppendFloat64s(buf, s.Weights)
	return dist.AppendString(buf, s.Stream)
}

func appendSource2DSpec(buf []byte, s Source2DSpec) []byte {
	buf = dist.AppendString(buf, s.Gen)
	buf = dist.AppendVarint(buf, int64(s.Rows))
	buf = dist.AppendVarint(buf, int64(s.Cols))
	buf = dist.AppendVarint(buf, int64(s.K))
	buf = dist.AppendVarint(buf, s.Seed)
	return dist.AppendFloat64s(buf, s.Weights)
}

// appendBinary renders the request as an application/x-khist-bin body.
func (r *LearnRequest) appendBinary(buf []byte) []byte {
	buf = append(buf, binReqMagic...)
	buf = append(buf, opLearn)
	buf = dist.AppendString(buf, r.Tenant)
	buf = appendSourceSpec(buf, r.Source)
	buf = dist.AppendVarint(buf, int64(r.K))
	buf = dist.AppendFloat64(buf, r.Eps)
	buf = dist.AppendFloat64(buf, r.Scale)
	buf = dist.AppendVarint(buf, int64(r.Cap))
	buf = dist.AppendVarint(buf, r.Seed)
	return appendBool(buf, r.Full)
}

// appendBinary renders the request as an application/x-khist-bin body;
// op selects the tester endpoint (opTestL2 or opTestL1).
func (r *TestRequest) appendBinary(buf []byte, op byte) []byte {
	buf = append(buf, binReqMagic...)
	buf = append(buf, op)
	buf = dist.AppendString(buf, r.Tenant)
	buf = appendSourceSpec(buf, r.Source)
	buf = dist.AppendVarint(buf, int64(r.K))
	buf = dist.AppendFloat64(buf, r.Eps)
	buf = dist.AppendFloat64(buf, r.Scale)
	buf = dist.AppendVarint(buf, int64(r.Cap))
	return dist.AppendVarint(buf, r.Seed)
}

// appendBinary renders the request as an application/x-khist-bin body.
func (r *Learn2DRequest) appendBinary(buf []byte) []byte {
	buf = append(buf, binReqMagic...)
	buf = append(buf, opLearn2D)
	buf = dist.AppendString(buf, r.Tenant)
	buf = appendSource2DSpec(buf, r.Source)
	buf = dist.AppendVarint(buf, int64(r.K))
	buf = dist.AppendFloat64(buf, r.Eps)
	buf = dist.AppendVarint(buf, int64(r.Samples))
	buf = dist.AppendVarint(buf, int64(r.MaxCoords))
	return dist.AppendVarint(buf, r.Seed)
}

// appendBinary renders the request as an application/x-khist-bin body.
// Values are raw varints (an ingest batch is unsorted observation data,
// so delta packing would not apply).
func (r *IngestRequest) appendBinary(buf []byte) []byte {
	buf = append(buf, binReqMagic...)
	buf = append(buf, opIngest)
	buf = dist.AppendString(buf, r.Tenant)
	buf = dist.AppendString(buf, r.Stream)
	buf = dist.AppendVarint(buf, int64(r.N))
	buf = dist.AppendVarint(buf, int64(len(r.Values)))
	for _, v := range r.Values {
		buf = dist.AppendVarint(buf, int64(v))
	}
	return buf
}

// decodeLearnResponseBinary decodes an appendBinary learn response; the
// equivalence tests use it to compare binary and JSON semantics.
func decodeLearnResponseBinary(body []byte, maxDomain int) (*LearnResponse, error) {
	data, err := binHeader(body, binRespMagic, opLearn)
	if err != nil {
		return nil, err
	}
	r := &LearnResponse{}
	if r.N, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("learn n: %w", err)
	}
	if r.K, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("learn k: %w", err)
	}
	if r.Bounds, data, err = dist.ReadDeltaInts(data, maxDomain+1); err != nil {
		return nil, fmt.Errorf("learn bounds: %w", err)
	}
	if r.Values, data, err = dist.ReadFloat64s(data, maxDomain); err != nil {
		return nil, fmt.Errorf("learn values: %w", err)
	}
	if r.Pieces, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("learn pieces: %w", err)
	}
	if r.SamplesUsed, data, err = dist.ReadVarint(data); err != nil {
		return nil, fmt.Errorf("learn samples_used: %w", err)
	}
	if r.Iterations, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("learn iterations: %w", err)
	}
	if r.CandidatesScanned, data, err = dist.ReadVarint(data); err != nil {
		return nil, fmt.Errorf("learn candidates_scanned: %w", err)
	}
	if r.Ell, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("learn ell: %w", err)
	}
	if r.R, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("learn r: %w", err)
	}
	if r.M, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("learn m: %w", err)
	}
	return r, binTrailer(data)
}

// decodeTestResponseBinary decodes an appendBinary tester response for
// either norm's op.
func decodeTestResponseBinary(body []byte, maxDomain int) (*TestResponse, error) {
	r := &TestResponse{}
	data, err := binHeader(body, binRespMagic, opTestL2)
	if err == nil {
		r.Norm = "l2"
	} else {
		if data, err = binHeader(body, binRespMagic, opTestL1); err != nil {
			return nil, err
		}
		r.Norm = "l1"
	}
	if r.Accept, data, err = readBool(data); err != nil {
		return nil, fmt.Errorf("test accept: %w", err)
	}
	var count int
	if count, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("test partition count: %w", err)
	}
	if count < 0 || count > maxDomain {
		return nil, fmt.Errorf("test partition count %d exceeds the decode limit %d", count, maxDomain)
	}
	if count > 0 {
		r.Partition = make([]IntervalJSON, count)
		for i := range r.Partition {
			if r.Partition[i].Lo, data, err = readInt(data); err != nil {
				return nil, fmt.Errorf("test partition %d lo: %w", i, err)
			}
			if r.Partition[i].Hi, data, err = readInt(data); err != nil {
				return nil, fmt.Errorf("test partition %d hi: %w", i, err)
			}
		}
	}
	if r.SamplesUsed, data, err = dist.ReadVarint(data); err != nil {
		return nil, fmt.Errorf("test samples_used: %w", err)
	}
	if r.FlatnessCalls, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("test flatness_calls: %w", err)
	}
	if r.R, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("test r: %w", err)
	}
	if r.M, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("test m: %w", err)
	}
	return r, binTrailer(data)
}

// decodeLearn2DResponseBinary decodes an appendBinary 2D response.
func decodeLearn2DResponseBinary(body []byte, maxDomain int) (*Learn2DResponse, error) {
	data, err := binHeader(body, binRespMagic, opLearn2D)
	if err != nil {
		return nil, err
	}
	r := &Learn2DResponse{}
	if r.Rows, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("learn2d rows: %w", err)
	}
	if r.Cols, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("learn2d cols: %w", err)
	}
	if r.K, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("learn2d k: %w", err)
	}
	var count int
	if count, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("learn2d rect count: %w", err)
	}
	if count < 0 || count > maxDomain {
		return nil, fmt.Errorf("learn2d rect count %d exceeds the decode limit %d", count, maxDomain)
	}
	if count > 0 {
		r.Rects = make([]RectJSON, count)
		for i := range r.Rects {
			if r.Rects[i].X0, data, err = readInt(data); err != nil {
				return nil, fmt.Errorf("learn2d rect %d x0: %w", i, err)
			}
			if r.Rects[i].Y0, data, err = readInt(data); err != nil {
				return nil, fmt.Errorf("learn2d rect %d y0: %w", i, err)
			}
			if r.Rects[i].X1, data, err = readInt(data); err != nil {
				return nil, fmt.Errorf("learn2d rect %d x1: %w", i, err)
			}
			if r.Rects[i].Y1, data, err = readInt(data); err != nil {
				return nil, fmt.Errorf("learn2d rect %d y1: %w", i, err)
			}
			if r.Rects[i].Value, data, err = dist.ReadFloat64(data); err != nil {
				return nil, fmt.Errorf("learn2d rect %d value: %w", i, err)
			}
		}
	}
	if r.SamplesUsed, data, err = dist.ReadVarint(data); err != nil {
		return nil, fmt.Errorf("learn2d samples_used: %w", err)
	}
	if r.Iterations, data, err = readInt(data); err != nil {
		return nil, fmt.Errorf("learn2d iterations: %w", err)
	}
	if r.CandidatesScanned, data, err = dist.ReadVarint(data); err != nil {
		return nil, fmt.Errorf("learn2d candidates_scanned: %w", err)
	}
	return r, binTrailer(data)
}
