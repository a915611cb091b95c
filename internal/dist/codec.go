package dist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire codec for tabulated Empirical bundles: the cluster tier ships
// sample-set tabulations between nodes so a peer can warm its cache from
// the owner instead of re-drawing. An Empirical is fully determined by
// (n, occurrence counts) — the prefix-sum arrays are derived — so the
// wire form is the sparse (value, occ) pair list, delta-encoded and
// varint-packed. Decoding rebuilds the prefix sums, so a round trip
// preserves Fingerprint() exactly: two nodes holding "the same" bundle
// agree bit-for-bit on every interval statistic.
//
// The format is self-delimiting and versioned:
//
//	bundle  = magic "khB1" | uvarint setCount | set*
//	set     = uvarint n | uvarint m | uvarint nnz | pair*
//	pair    = uvarint valueDelta | uvarint occ   (values strictly increasing;
//	          the first delta is the value itself, occ >= 1)
//
// m is carried redundantly (it must equal the occ sum) as an integrity
// check against truncated or corrupted transfers.

// bundleMagic versions the wire format; bump the digit on incompatible
// changes so mixed-version clusters fail loudly instead of mis-decoding.
const bundleMagic = "khB1"

// AppendBinary appends the wire encoding of the tabulation to buf and
// returns the extended slice.
func (e *Empirical) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(e.n))
	buf = binary.AppendUvarint(buf, uint64(e.m))
	nnz := 0
	for _, c := range e.occ {
		if c != 0 {
			nnz++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(nnz))
	prev := 0
	for v, c := range e.occ {
		if c == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(v-prev))
		buf = binary.AppendUvarint(buf, uint64(c))
		prev = v
	}
	return buf
}

// decodeEmpirical consumes one encoded set from data, returning the
// rebuilt tabulation and the remaining bytes. maxDomain bounds the
// decoded domain size (and with it the allocation a wire peer can force).
func decodeEmpirical(data []byte, maxDomain int) (*Empirical, []byte, error) {
	n, data, err := readUvarint(data)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: decoding bundle set domain: %w", err)
	}
	if n > uint64(maxDomain) {
		return nil, nil, fmt.Errorf("dist: bundle set domain %d exceeds the decode limit %d", n, maxDomain)
	}
	m, data, err := readUvarint(data)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: decoding bundle set size: %w", err)
	}
	// The sample count bounds every occ below; capping it well under
	// 2^63 keeps the occ sum monotone (no uint64 wrap) so the checksum
	// cannot be spoofed by overflow.
	if m > 1<<62 {
		return nil, nil, fmt.Errorf("dist: bundle set claims an absurd sample count %d", m)
	}
	nnz, data, err := readUvarint(data)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: decoding bundle set support: %w", err)
	}
	if nnz > n {
		return nil, nil, fmt.Errorf("dist: bundle set claims %d distinct values over domain %d", nnz, n)
	}
	occ := make([]int64, n)
	// v is tracked unsigned and every delta is bounded by n before it is
	// applied: wire bytes are untrusted, and an unchecked huge delta
	// would wrap the index negative (or past n) and panic the indexing
	// below instead of returning an error.
	var v, total uint64
	for i := uint64(0); i < nnz; i++ {
		var delta, c uint64
		delta, data, err = readUvarint(data)
		if err != nil {
			return nil, nil, fmt.Errorf("dist: decoding bundle pair %d: %w", i, err)
		}
		c, data, err = readUvarint(data)
		if err != nil {
			return nil, nil, fmt.Errorf("dist: decoding bundle pair %d: %w", i, err)
		}
		if delta >= n || (i > 0 && delta == 0) {
			return nil, nil, fmt.Errorf("dist: bundle pair %d has delta %d outside (0, %d)", i, delta, n)
		}
		if i == 0 {
			v = delta
		} else {
			v += delta
		}
		if v >= n || c == 0 || c > m {
			return nil, nil, fmt.Errorf("dist: bundle pair %d out of range (value %d, occ %d, domain %d, samples %d)", i, v, c, n, m)
		}
		total += c
		if total > m {
			return nil, nil, fmt.Errorf("dist: bundle pairs sum past the claimed %d samples at pair %d", m, i)
		}
		occ[v] = int64(c)
	}
	if total != m {
		return nil, nil, fmt.Errorf("dist: bundle set claims %d samples but pairs sum to %d", m, total)
	}
	return tabulate(occ), data, nil
}

// EncodeEmpiricalBundle encodes a bundle of tabulations for the wire.
func EncodeEmpiricalBundle(sets []*Empirical) []byte {
	buf := append([]byte(nil), bundleMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(sets)))
	for _, e := range sets {
		buf = e.AppendBinary(buf)
	}
	return buf
}

// DecodeEmpiricalBundle decodes a bundle produced by
// EncodeEmpiricalBundle, validating the magic, every pair's range, and
// each set's sample-count checksum. maxDomain bounds every decoded set's
// domain size (non-positive means no bound): the bytes come from a wire
// peer, so the decode must not allocate more than the caller's own
// domain ceiling allows. Every decoded set fingerprints identically to
// the one encoded.
func DecodeEmpiricalBundle(data []byte, maxDomain int) ([]*Empirical, error) {
	if maxDomain <= 0 {
		maxDomain = int(^uint(0) >> 1)
	}
	if len(data) < len(bundleMagic) || string(data[:len(bundleMagic)]) != bundleMagic {
		return nil, fmt.Errorf("dist: bundle missing %q magic", bundleMagic)
	}
	data = data[len(bundleMagic):]
	count, data, err := readUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("dist: decoding bundle count: %w", err)
	}
	// Every set takes at least three bytes (n, m, nnz), so a count past
	// that is a lie; rejecting it keeps the peer's count from sizing the
	// allocation below.
	if count > uint64(len(data))/3 {
		return nil, fmt.Errorf("dist: bundle claims %d sets in %d bytes", count, len(data))
	}
	sets := make([]*Empirical, 0, count)
	for i := uint64(0); i < count; i++ {
		var e *Empirical
		e, data, err = decodeEmpirical(data, maxDomain)
		if err != nil {
			return nil, err
		}
		sets = append(sets, e)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("dist: %d trailing bytes after bundle", len(data))
	}
	return sets, nil
}

// readUvarint decodes one varint from data, returning the rest.
func readUvarint(data []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, fmt.Errorf("truncated or overlong varint")
	}
	return v, data[k:], nil
}

// Exported wire primitives. The bundle codec above fixed the vocabulary
// — varints, delta-varints for nondecreasing integer runs, explicit
// bounds on every decoded length because wire bytes are untrusted — and
// the serving layer's binary request/response content type
// (application/x-khist-bin) reuses it verbatim rather than growing a
// second encoding dialect. Floats travel as fixed 8-byte little-endian
// IEEE bits: bit-exact round trips are what keeps binary and JSON
// responses semantically identical.

// ReadUvarint decodes one unsigned varint from data, returning the rest.
func ReadUvarint(data []byte) (uint64, []byte, error) { return readUvarint(data) }

// AppendVarint appends a zigzag-encoded signed varint.
func AppendVarint(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

// ReadVarint decodes one zigzag-encoded signed varint, returning the rest.
func ReadVarint(data []byte) (int64, []byte, error) {
	v, k := binary.Varint(data)
	if k <= 0 {
		return 0, nil, fmt.Errorf("truncated or overlong varint")
	}
	return v, data[k:], nil
}

// AppendFloat64 appends f as its fixed 8-byte little-endian IEEE-754
// bits — bit-exact, so an encode/decode round trip is the identity.
func AppendFloat64(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// ReadFloat64 decodes one AppendFloat64 value, returning the rest.
func ReadFloat64(data []byte) (float64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("truncated float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), data[8:], nil
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// ReadString decodes one length-prefixed string of at most maxLen bytes
// (the bound keeps a corrupt length from forcing a huge allocation).
func ReadString(data []byte, maxLen int) (string, []byte, error) {
	n, data, err := readUvarint(data)
	if err != nil {
		return "", nil, fmt.Errorf("string length: %w", err)
	}
	if n > uint64(maxLen) {
		return "", nil, fmt.Errorf("string length %d exceeds the decode limit %d", n, maxLen)
	}
	if uint64(len(data)) < n {
		return "", nil, fmt.Errorf("truncated string (%d of %d bytes)", len(data), n)
	}
	return string(data[:n]), data[n:], nil
}

// AppendFloat64s appends a length-prefixed float64 slice.
func AppendFloat64s(buf []byte, fs []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(fs)))
	for _, f := range fs {
		buf = AppendFloat64(buf, f)
	}
	return buf
}

// ReadFloat64s decodes one AppendFloat64s slice of at most maxLen
// elements. A zero-length slice decodes to nil.
func ReadFloat64s(data []byte, maxLen int) ([]float64, []byte, error) {
	n, data, err := readUvarint(data)
	if err != nil {
		return nil, nil, fmt.Errorf("float slice length: %w", err)
	}
	if n > uint64(maxLen) {
		return nil, nil, fmt.Errorf("float slice length %d exceeds the decode limit %d", n, maxLen)
	}
	if n == 0 {
		return nil, data, nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i], data, err = ReadFloat64(data)
		if err != nil {
			return nil, nil, fmt.Errorf("float slice element %d: %w", i, err)
		}
	}
	return out, data, nil
}

// AppendDeltaInts appends a length-prefixed nondecreasing int slice as
// first-value-then-deltas varints — the same shape the bundle pairs use.
// xs must be nondecreasing and nonnegative.
func AppendDeltaInts(buf []byte, xs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	prev := 0
	for _, x := range xs {
		buf = binary.AppendUvarint(buf, uint64(x-prev))
		prev = x
	}
	return buf
}

// ReadDeltaInts decodes one AppendDeltaInts slice of at most maxLen
// elements. A zero-length slice decodes to nil.
func ReadDeltaInts(data []byte, maxLen int) ([]int, []byte, error) {
	n, data, err := readUvarint(data)
	if err != nil {
		return nil, nil, fmt.Errorf("delta slice length: %w", err)
	}
	if n > uint64(maxLen) {
		return nil, nil, fmt.Errorf("delta slice length %d exceeds the decode limit %d", n, maxLen)
	}
	if n == 0 {
		return nil, data, nil
	}
	out := make([]int, n)
	var v uint64
	for i := range out {
		var d uint64
		d, data, err = readUvarint(data)
		if err != nil {
			return nil, nil, fmt.Errorf("delta slice element %d: %w", i, err)
		}
		v += d
		if v > uint64(math.MaxInt64) {
			return nil, nil, fmt.Errorf("delta slice element %d overflows", i)
		}
		out[i] = int(v)
	}
	return out, data, nil
}
