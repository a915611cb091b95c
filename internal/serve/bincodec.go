package serve

import (
	"fmt"

	"khist/internal/dist"
)

// Binary wire encoding of the algorithm endpoints: the
// application/x-khist-bin content type. It reuses the delta-varint
// vocabulary of the cluster bundle codec (internal/dist/codec.go) —
// varints for integers, delta-varints for nondecreasing runs, fixed
// 8-byte IEEE bits for floats so round trips are bit-exact, and an
// explicit bound on every decoded length because wire bytes are
// untrusted. A binary response is semantically identical to the JSON
// response of the same request: the same struct renders both, floats
// keep their exact bits, and cache status still travels in headers.
// Error responses stay JSON regardless of Accept — errors are rare,
// human-bound, and not worth a second encoding.
//
//	request  = "khQ1" | op byte | fields
//	response = "khR1" | op byte | fields
//
// The op byte pins the endpoint into the bytes (a learn request cannot
// be replayed against a tester), and the magic versions the format:
// bump the digit on incompatible changes.
const (
	binReqMagic  = "khQ1"
	binRespMagic = "khR1"
)

// Op discriminators, one per algorithm endpoint.
const (
	opLearn byte = 1 + iota
	opTestL2
	opTestL1
	opLearn2D
	opIngest
)

// maxBinString bounds decoded string lengths (tenant and generator
// names are short; anything near this is hostile).
const maxBinString = 1 << 20

// binHeader validates the magic and op of one frame and returns the
// field bytes.
func binHeader(data []byte, magic string, op byte) ([]byte, error) {
	if len(data) < len(magic)+1 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("serve: binary frame missing %q magic", magic)
	}
	if got := data[len(magic)]; got != op {
		return nil, fmt.Errorf("serve: binary frame op %d does not match endpoint op %d", got, op)
	}
	return data[len(magic)+1:], nil
}

// binTrailer rejects trailing garbage after a fully decoded frame.
func binTrailer(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("serve: %d trailing bytes after binary frame", len(data))
	}
	return nil
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func readBool(data []byte) (bool, []byte, error) {
	if len(data) < 1 {
		return false, nil, fmt.Errorf("truncated bool")
	}
	if data[0] > 1 {
		return false, nil, fmt.Errorf("bool byte %d is not 0 or 1", data[0])
	}
	return data[0] == 1, data[1:], nil
}

func readInt(data []byte) (int, []byte, error) {
	v, rest, err := dist.ReadVarint(data)
	return int(v), rest, err
}

func readSourceSpec(data []byte, maxDomain int) (SourceSpec, []byte, error) {
	var s SourceSpec
	var err error
	if s.Gen, data, err = dist.ReadString(data, maxBinString); err != nil {
		return s, nil, fmt.Errorf("source gen: %w", err)
	}
	if s.N, data, err = readInt(data); err != nil {
		return s, nil, fmt.Errorf("source n: %w", err)
	}
	if s.K, data, err = readInt(data); err != nil {
		return s, nil, fmt.Errorf("source k: %w", err)
	}
	if s.Seed, data, err = dist.ReadVarint(data); err != nil {
		return s, nil, fmt.Errorf("source seed: %w", err)
	}
	if s.Weights, data, err = dist.ReadFloat64s(data, maxDomain); err != nil {
		return s, nil, fmt.Errorf("source weights: %w", err)
	}
	if s.Stream, data, err = dist.ReadString(data, maxBinString); err != nil {
		return s, nil, fmt.Errorf("source stream: %w", err)
	}
	return s, data, nil
}

func readSource2DSpec(data []byte, maxDomain int) (Source2DSpec, []byte, error) {
	var s Source2DSpec
	var err error
	if s.Gen, data, err = dist.ReadString(data, maxBinString); err != nil {
		return s, nil, fmt.Errorf("source gen: %w", err)
	}
	if s.Rows, data, err = readInt(data); err != nil {
		return s, nil, fmt.Errorf("source rows: %w", err)
	}
	if s.Cols, data, err = readInt(data); err != nil {
		return s, nil, fmt.Errorf("source cols: %w", err)
	}
	if s.K, data, err = readInt(data); err != nil {
		return s, nil, fmt.Errorf("source k: %w", err)
	}
	if s.Seed, data, err = dist.ReadVarint(data); err != nil {
		return s, nil, fmt.Errorf("source seed: %w", err)
	}
	if s.Weights, data, err = dist.ReadFloat64s(data, maxDomain); err != nil {
		return s, nil, fmt.Errorf("source weights: %w", err)
	}
	return s, data, nil
}

// --- Requests ---

func (r *LearnRequest) decodeBinary(body []byte, maxDomain int) error {
	data, err := binHeader(body, binReqMagic, opLearn)
	if err != nil {
		return err
	}
	if r.Tenant, data, err = dist.ReadString(data, maxBinString); err != nil {
		return fmt.Errorf("learn tenant: %w", err)
	}
	if r.Source, data, err = readSourceSpec(data, maxDomain); err != nil {
		return fmt.Errorf("learn: %w", err)
	}
	if r.K, data, err = readInt(data); err != nil {
		return fmt.Errorf("learn k: %w", err)
	}
	if r.Eps, data, err = dist.ReadFloat64(data); err != nil {
		return fmt.Errorf("learn eps: %w", err)
	}
	if r.Scale, data, err = dist.ReadFloat64(data); err != nil {
		return fmt.Errorf("learn scale: %w", err)
	}
	if r.Cap, data, err = readInt(data); err != nil {
		return fmt.Errorf("learn cap: %w", err)
	}
	if r.Seed, data, err = dist.ReadVarint(data); err != nil {
		return fmt.Errorf("learn seed: %w", err)
	}
	if r.Full, data, err = readBool(data); err != nil {
		return fmt.Errorf("learn full: %w", err)
	}
	return binTrailer(data)
}

func (r *TestRequest) decodeBinaryOp(body []byte, op byte, maxDomain int) error {
	data, err := binHeader(body, binReqMagic, op)
	if err != nil {
		return err
	}
	if r.Tenant, data, err = dist.ReadString(data, maxBinString); err != nil {
		return fmt.Errorf("test tenant: %w", err)
	}
	if r.Source, data, err = readSourceSpec(data, maxDomain); err != nil {
		return fmt.Errorf("test: %w", err)
	}
	if r.K, data, err = readInt(data); err != nil {
		return fmt.Errorf("test k: %w", err)
	}
	if r.Eps, data, err = dist.ReadFloat64(data); err != nil {
		return fmt.Errorf("test eps: %w", err)
	}
	if r.Scale, data, err = dist.ReadFloat64(data); err != nil {
		return fmt.Errorf("test scale: %w", err)
	}
	if r.Cap, data, err = readInt(data); err != nil {
		return fmt.Errorf("test cap: %w", err)
	}
	if r.Seed, data, err = dist.ReadVarint(data); err != nil {
		return fmt.Errorf("test seed: %w", err)
	}
	return binTrailer(data)
}

func (r *Learn2DRequest) decodeBinary(body []byte, maxDomain int) error {
	data, err := binHeader(body, binReqMagic, opLearn2D)
	if err != nil {
		return err
	}
	if r.Tenant, data, err = dist.ReadString(data, maxBinString); err != nil {
		return fmt.Errorf("learn2d tenant: %w", err)
	}
	if r.Source, data, err = readSource2DSpec(data, maxDomain); err != nil {
		return fmt.Errorf("learn2d: %w", err)
	}
	if r.K, data, err = readInt(data); err != nil {
		return fmt.Errorf("learn2d k: %w", err)
	}
	if r.Eps, data, err = dist.ReadFloat64(data); err != nil {
		return fmt.Errorf("learn2d eps: %w", err)
	}
	if r.Samples, data, err = readInt(data); err != nil {
		return fmt.Errorf("learn2d samples: %w", err)
	}
	if r.MaxCoords, data, err = readInt(data); err != nil {
		return fmt.Errorf("learn2d max_coords: %w", err)
	}
	if r.Seed, data, err = dist.ReadVarint(data); err != nil {
		return fmt.Errorf("learn2d seed: %w", err)
	}
	return binTrailer(data)
}

func (r *IngestRequest) decodeBinary(body []byte, maxDomain int) error {
	data, err := binHeader(body, binReqMagic, opIngest)
	if err != nil {
		return err
	}
	if r.Tenant, data, err = dist.ReadString(data, maxBinString); err != nil {
		return fmt.Errorf("ingest tenant: %w", err)
	}
	if r.Stream, data, err = dist.ReadString(data, maxBinString); err != nil {
		return fmt.Errorf("ingest stream: %w", err)
	}
	if r.N, data, err = readInt(data); err != nil {
		return fmt.Errorf("ingest n: %w", err)
	}
	if r.N < 0 || r.N > maxDomain {
		return fmt.Errorf("ingest n %d exceeds the decode limit %d", r.N, maxDomain)
	}
	var count int
	if count, data, err = readInt(data); err != nil {
		return fmt.Errorf("ingest value count: %w", err)
	}
	// Every encoded value costs at least one byte, so the remaining frame
	// length bounds a credible count — a hostile header cannot force an
	// allocation larger than the (MaxBodyBytes-capped) body it arrived in.
	if count < 0 || count > len(data) {
		return fmt.Errorf("ingest value count %d exceeds the %d remaining frame bytes", count, len(data))
	}
	if count > 0 {
		r.Values = make([]int, count)
		for i := range r.Values {
			if r.Values[i], data, err = readInt(data); err != nil {
				return fmt.Errorf("ingest value %d: %w", i, err)
			}
		}
	}
	return binTrailer(data)
}

// --- Responses ---

// appendBinary renders the response as an application/x-khist-bin body.
// Bounds are nondecreasing domain positions, so they delta-pack the same
// way the bundle codec packs value runs.
func (r *LearnResponse) appendBinary(buf []byte) []byte {
	buf = append(buf, binRespMagic...)
	buf = append(buf, opLearn)
	buf = dist.AppendVarint(buf, int64(r.N))
	buf = dist.AppendVarint(buf, int64(r.K))
	buf = dist.AppendDeltaInts(buf, r.Bounds)
	buf = dist.AppendFloat64s(buf, r.Values)
	buf = dist.AppendVarint(buf, int64(r.Pieces))
	buf = dist.AppendVarint(buf, r.SamplesUsed)
	buf = dist.AppendVarint(buf, int64(r.Iterations))
	buf = dist.AppendVarint(buf, r.CandidatesScanned)
	buf = dist.AppendVarint(buf, int64(r.Ell))
	buf = dist.AppendVarint(buf, int64(r.R))
	return dist.AppendVarint(buf, int64(r.M))
}

// appendBinary renders the response as an application/x-khist-bin body.
// The partition's interval bounds are raw uvarints (lo of interval i+1
// equals hi of interval i, so delta packing would save nothing).
func (r *TestResponse) appendBinary(buf []byte) []byte {
	buf = append(buf, binRespMagic...)
	if r.Norm == "l2" {
		buf = append(buf, opTestL2)
	} else {
		buf = append(buf, opTestL1)
	}
	buf = appendBool(buf, r.Accept)
	buf = dist.AppendVarint(buf, int64(len(r.Partition)))
	for _, iv := range r.Partition {
		buf = dist.AppendVarint(buf, int64(iv.Lo))
		buf = dist.AppendVarint(buf, int64(iv.Hi))
	}
	buf = dist.AppendVarint(buf, r.SamplesUsed)
	buf = dist.AppendVarint(buf, int64(r.FlatnessCalls))
	buf = dist.AppendVarint(buf, int64(r.R))
	return dist.AppendVarint(buf, int64(r.M))
}

// appendBinary renders the response as an application/x-khist-bin body.
// Rects are in paint order (not sorted), so coordinates travel as plain
// varints.
func (r *Learn2DResponse) appendBinary(buf []byte) []byte {
	buf = append(buf, binRespMagic...)
	buf = append(buf, opLearn2D)
	buf = dist.AppendVarint(buf, int64(r.Rows))
	buf = dist.AppendVarint(buf, int64(r.Cols))
	buf = dist.AppendVarint(buf, int64(r.K))
	buf = dist.AppendVarint(buf, int64(len(r.Rects)))
	for _, rc := range r.Rects {
		buf = dist.AppendVarint(buf, int64(rc.X0))
		buf = dist.AppendVarint(buf, int64(rc.Y0))
		buf = dist.AppendVarint(buf, int64(rc.X1))
		buf = dist.AppendVarint(buf, int64(rc.Y1))
		buf = dist.AppendFloat64(buf, rc.Value)
	}
	buf = dist.AppendVarint(buf, r.SamplesUsed)
	buf = dist.AppendVarint(buf, int64(r.Iterations))
	return dist.AppendVarint(buf, r.CandidatesScanned)
}
