package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"khist/internal/cluster"
)

// batchEnvelope marshals items into a /v1/batch body.
func batchEnvelope(t *testing.T, items ...BatchItem) string {
	t.Helper()
	body, err := json.Marshal(BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func decodeBatch(t *testing.T, body []byte) BatchResponse {
	t.Helper()
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding batch response %q: %v", body, err)
	}
	return resp
}

// TestBatchMixedOps: one envelope carrying every endpoint plus two
// broken items. The envelope is 200, statuses are per item, successful
// bodies byte-equal the single-request responses (sans the wire
// newline), and the broken items fail alone without poisoning the rest.
func TestBatchMixedOps(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20,
		ResponseCacheBytes: 16 << 20})

	singles := map[string]string{
		epLearn:  learnBody,
		epTestL2: testL2Body,
		epTestL1: `{"tenant":"acme","source":{"gen":"staircase","n":128},"k":3,"eps":0.3,"scale":0.01,"cap":2000,"seed":11}`,
		epLearn2D: `{"tenant":"acme","source":{"gen":"rect","rows":12,"cols":12,"k":3,"seed":2},` +
			`"k":3,"eps":0.2,"samples":2000,"seed":5}`,
	}
	want := map[string]string{}
	for op, body := range singles {
		path := map[string]string{epLearn: "/v1/learn", epTestL2: "/v1/test/l2",
			epTestL1: "/v1/test/l1", epLearn2D: "/v1/learn2d"}[op]
		w := post(h, path, body)
		if w.Code != 200 {
			t.Fatalf("single %s: code %d: %s", op, w.Code, w.Body.String())
		}
		want[op] = strings.TrimSuffix(w.Body.String(), "\n")
	}

	env := batchEnvelope(t,
		BatchItem{Op: epLearn, Req: json.RawMessage(singles[epLearn])},
		BatchItem{Op: epTestL2, Req: json.RawMessage(singles[epTestL2])},
		BatchItem{Op: epTestL1, Req: json.RawMessage(singles[epTestL1])},
		BatchItem{Op: epLearn2D, Req: json.RawMessage(singles[epLearn2D])},
		BatchItem{Op: "nope", Req: json.RawMessage(`{}`)},
		BatchItem{Op: epLearn, Req: json.RawMessage(`{"no_such_field":1}`)},
	)
	w := post(h, "/v1/batch", env)
	if w.Code != 200 {
		t.Fatalf("batch envelope: code %d: %s", w.Code, w.Body.String())
	}
	resp := decodeBatch(t, w.Body.Bytes())
	if len(resp.Items) != 6 {
		t.Fatalf("%d results, want 6", len(resp.Items))
	}
	for i, op := range []string{epLearn, epTestL2, epTestL1, epLearn2D} {
		res := resp.Items[i]
		if res.Status != 200 {
			t.Fatalf("item %d (%s): status %d body %s", i, op, res.Status, res.Body)
		}
		if string(res.Body) != want[op] {
			t.Fatalf("item %d (%s): body diverged from single request\n got: %s\nwant: %s",
				i, op, res.Body, want[op])
		}
		// The singles above warmed the response cache, so the batch items
		// must have hit it: one shared cache across both surfaces.
		if res.Cache != StatusRespHit {
			t.Fatalf("item %d (%s): cache %q, want %q", i, op, res.Cache, StatusRespHit)
		}
	}
	for i := 4; i < 6; i++ {
		res := resp.Items[i]
		if res.Status != http.StatusBadRequest {
			t.Fatalf("item %d: status %d, want 400", i, res.Status)
		}
		var e errorResponse
		if err := json.Unmarshal(res.Body, &e); err != nil || e.Error == "" {
			t.Fatalf("item %d: error body %q", i, res.Body)
		}
	}
}

// TestBatchOfOneByteEqualsSingle is the envelope contract. Per row, a
// single JSON request and a batch-of-1 item, each on a fresh server of
// its own, agree on status, body (minus the single response's wire
// newline), cache status, and Retry-After against retry_after: every op
// cold and warm, and each way a request fails (decode, k > n, a rejected
// max_coords, an algorithm's 422, a rate shed). Then, on one server, a
// batch of one computes the entry and the later identical single request
// serves those exact bytes as an rhit — the two surfaces share bodies
// byte-for-byte in both directions.
func TestBatchOfOneByteEqualsSingle(t *testing.T) {
	const (
		testL1Body  = `{"tenant":"acme","source":{"gen":"staircase","n":128},"k":3,"eps":0.3,"scale":0.01,"cap":2000,"seed":11}`
		learn2DBody = `{"tenant":"acme","source":{"gen":"rect","rows":12,"cols":12,"k":3,"seed":2},"k":3,"eps":0.2,"samples":2000,"seed":5}`
	)
	paths := map[string]string{epLearn: "/v1/learn", epTestL2: "/v1/test/l2", epTestL1: "/v1/test/l1", epLearn2D: "/v1/learn2d"}
	rows := []struct {
		name, op, body string
		// passes is how often the body is sent; the last answer is compared.
		passes int
		shed   bool // a one-token rate quota on a stopped clock
		status int
	}{
		{"learn/cold", epLearn, learnBody, 1, false, 200},
		{"learn/warm", epLearn, learnBody, 2, false, 200},
		{"test_l2/cold", epTestL2, testL2Body, 1, false, 200},
		{"test_l2/warm", epTestL2, testL2Body, 2, false, 200},
		{"test_l1/cold", epTestL1, testL1Body, 1, false, 200},
		{"test_l1/warm", epTestL1, testL1Body, 2, false, 200},
		{"learn2d/cold", epLearn2D, learn2DBody, 1, false, 200},
		{"learn2d/warm", epLearn2D, learn2DBody, 2, false, 200},
		{"decode", epLearn, `{"tenant":"acme","no_such_field":1}`, 1, false, http.StatusBadRequest},
		{"k>n", epLearn, `{"tenant":"acme","source":{"gen":"zipf","n":64},"k":100,"eps":0.2,"seed":1}`, 1, false, http.StatusBadRequest},
		{"max_coords", epLearn2D, `{"tenant":"acme","source":{"gen":"rect","rows":12,"cols":12,"k":3,"seed":2},"k":3,"eps":0.2,"samples":2000,"max_coords":1,"seed":5}`, 1, false, http.StatusBadRequest},
		{"unprocessable", epLearn, `{"tenant":"acme","source":{"gen":"zipf","n":256},"k":4,"eps":0.2,"scale":0.05,"cap":1,"seed":7}`, 1, false, http.StatusUnprocessableEntity},
		{"shed", epLearn, learnBody, 2, true, http.StatusTooManyRequests},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20, ResponseCacheBytes: 16 << 20}
			if row.shed {
				cfg.Quotas = QuotaConfig{Default: TenantQuota{RPS: 0.001, Burst: 1}}
			}
			fresh := func() http.Handler {
				s, h := newTestServer(t, cfg)
				now := time.Unix(1_000_000, 0)
				s.quotas.now = func() time.Time { return now }
				return h
			}
			hs, hb := fresh(), fresh()
			env := batchEnvelope(t, BatchItem{Op: row.op, Req: json.RawMessage(row.body)})
			var single *httptest.ResponseRecorder
			var item BatchItemResult
			for pass := 0; pass < row.passes; pass++ {
				single = post(hs, paths[row.op], row.body)
				w := post(hb, "/v1/batch", env)
				if w.Code != 200 {
					t.Fatalf("batch envelope: code %d: %s", w.Code, w.Body.String())
				}
				resp := decodeBatch(t, w.Body.Bytes())
				if len(resp.Items) != 1 {
					t.Fatalf("%d batch results, want 1", len(resp.Items))
				}
				item = resp.Items[0]
			}
			if single.Code != row.status || item.Status != row.status {
				t.Fatalf("status: single %d, item %d, want %d (single body %s)",
					single.Code, item.Status, row.status, single.Body.String())
			}
			if want := strings.TrimSuffix(single.Body.String(), "\n"); string(item.Body) != want {
				t.Fatalf("item body != single body\n got: %s\nwant: %s", item.Body, want)
			}
			if want := single.Header().Get(CacheHeader); item.Cache != want {
				t.Fatalf("item cache %q, single %q", item.Cache, want)
			}
			retry := 0
			if v := single.Header().Get("Retry-After"); v != "" {
				var err error
				if retry, err = strconv.Atoi(v); err != nil {
					t.Fatalf("single Retry-After %q: %v", v, err)
				}
			}
			if item.RetryAfter != retry {
				t.Fatalf("item retry_after %d, single Retry-After %d", item.RetryAfter, retry)
			}
		})
	}

	_, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20,
		ResponseCacheBytes: 16 << 20})
	env := batchEnvelope(t, BatchItem{Op: epLearn, Req: json.RawMessage(learnBody)})
	w := post(h, "/v1/batch", env)
	if w.Code != 200 {
		t.Fatalf("batch: code %d: %s", w.Code, w.Body.String())
	}
	resp := decodeBatch(t, w.Body.Bytes())
	if len(resp.Items) != 1 || resp.Items[0].Status != 200 {
		t.Fatalf("batch results: %+v", resp.Items)
	}
	single := post(h, "/v1/learn", learnBody)
	if single.Code != 200 {
		t.Fatalf("single: code %d", single.Code)
	}
	if got := single.Header().Get(CacheHeader); got != StatusRespHit {
		t.Fatalf("single after batch: cache %q, want %q (shared entry)", got, StatusRespHit)
	}
	if wantBody := string(resp.Items[0].Body) + "\n"; single.Body.String() != wantBody {
		t.Fatalf("single body != batch item body + newline\n got: %q\nwant: %q",
			single.Body.String(), wantBody)
	}
	// The raw item bytes must appear verbatim inside the envelope (CI
	// greps for exactly this).
	if !bytes.Contains(w.Body.Bytes(), resp.Items[0].Body) {
		t.Fatal("item body not embedded raw in the envelope")
	}
}

// TestBatchEnvelopeLimits: empty and oversized envelopes are
// envelope-level 400s, before any item work.
func TestBatchEnvelopeLimits(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, MaxBatchItems: 2})
	if w := post(h, "/v1/batch", `{"items":[]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: code %d, want 400", w.Code)
	}
	item := BatchItem{Op: epLearn, Req: json.RawMessage(learnBody)}
	env := batchEnvelope(t, item, item, item)
	if w := post(h, "/v1/batch", env); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch: code %d, want 400", w.Code)
	}
	if w := post(h, "/v1/batch", `{"items":`); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed batch: code %d, want 400", w.Code)
	}
}

// TestBatchPlanCacheReuse: a repeated identical envelope is served from
// the cached plan — no second JSON decode — with identical item bodies.
// The plan cache rides the response cache's budget, so disabling one
// disables the other.
func TestBatchPlanCacheReuse(t *testing.T) {
	s, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20,
		ResponseCacheBytes: 16 << 20})
	env := batchEnvelope(t,
		BatchItem{Op: epLearn, Req: json.RawMessage(learnBody)},
		BatchItem{Op: "nope", Req: json.RawMessage(`{}`)},
	)
	first := decodeBatch(t, post(h, "/v1/batch", env).Body.Bytes())
	if entries, _ := s.plans.stats(); entries != 1 {
		t.Fatalf("plan cache holds %d entries after first envelope, want 1", entries)
	}
	second := decodeBatch(t, post(h, "/v1/batch", env).Body.Bytes())
	if hitBytes, _, _, _ := s.plans.flowStats(); hitBytes == 0 {
		t.Fatal("second envelope did not hit the plan cache")
	}
	for i := range first.Items {
		if !bytes.Equal(first.Items[i].Body, second.Items[i].Body) ||
			first.Items[i].Status != second.Items[i].Status {
			t.Fatalf("item %d diverged between plan-miss and plan-hit runs:\n%+v\n%+v",
				i, first.Items[i], second.Items[i])
		}
	}
	if second.Items[0].Cache != StatusRespHit {
		t.Fatalf("plan-hit run item 0 cache %q, want %q", second.Items[0].Cache, StatusRespHit)
	}

	// With the response cache off, envelopes are decoded every time (the
	// plan cache is disabled with it) — and still answered identically.
	soff, hoff := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20})
	offResp := decodeBatch(t, post(hoff, "/v1/batch", env).Body.Bytes())
	if entries, _ := soff.plans.stats(); entries != 0 {
		t.Fatalf("disabled plan cache holds %d entries", entries)
	}
	if !bytes.Equal(offResp.Items[0].Body, first.Items[0].Body) {
		t.Fatal("cache-off batch body diverged")
	}
}

// TestBatchPerItemAdmission: admission charges the tenant once per
// sub-query, so a batch of four against a two-token burst gets exactly
// two items admitted and two shed — each 429 carrying its own
// retry_after — while the envelope stays 200.
func TestBatchPerItemAdmission(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20,
		ResponseCacheBytes: 16 << 20,
		Quotas:             QuotaConfig{Default: TenantQuota{RPS: 1e-9, Burst: 2, MaxInFlight: 64}},
	})
	mk := func(seed int) BatchItem {
		return BatchItem{Op: epLearn, Req: json.RawMessage(fmt.Sprintf(
			`{"tenant":"q","source":{"gen":"zipf","n":64},"k":2,"eps":0.5,"cap":400,"seed":%d}`, seed))}
	}
	// One tenant, one source: all items share a shard group and run in
	// order, so the first two admit and the last two shed.
	env := batchEnvelope(t, mk(1), mk(2), mk(3), mk(4))
	w := post(h, "/v1/batch", env)
	if w.Code != 200 {
		t.Fatalf("envelope: code %d: %s", w.Code, w.Body.String())
	}
	resp := decodeBatch(t, w.Body.Bytes())
	for i := 0; i < 2; i++ {
		if resp.Items[i].Status != 200 {
			t.Fatalf("item %d: status %d body %s, want 200", i, resp.Items[i].Status, resp.Items[i].Body)
		}
	}
	for i := 2; i < 4; i++ {
		if resp.Items[i].Status != http.StatusTooManyRequests {
			t.Fatalf("item %d: status %d, want 429", i, resp.Items[i].Status)
		}
		if resp.Items[i].RetryAfter < 1 {
			t.Fatalf("item %d: retry_after %d, want >= 1", i, resp.Items[i].RetryAfter)
		}
	}
}

// TestBatchCluster: a mixed-owner batch sent to one node of a 2-node
// ring. Remote items are relayed as one sub-batch to their owner;
// bodies are byte-identical to direct single requests against the owner,
// and the forwarding counters show the relay happened.
func TestBatchCluster(t *testing.T) {
	urls, servers, _ := startCluster(t, []Config{
		{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20, ResponseCacheBytes: 16 << 20},
		{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20, ResponseCacheBytes: 16 << 20},
	})
	// Collect bodies until both nodes own at least one.
	owned := map[string][]string{}
	for seed := 0; len(owned[urls[0]]) < 1 || len(owned[urls[1]]) < 1; seed++ {
		body := fmt.Sprintf(
			`{"tenant":"t%d","source":{"gen":"zipf","n":64},"k":2,"eps":0.5,"cap":400,"seed":1}`, seed)
		owner := servers[0].ring.Owner(learnRoutingKey(t, body))
		owned[owner] = append(owned[owner], body)
	}
	bodies := []string{owned[urls[0]][0], owned[urls[1]][0]}
	var items []BatchItem
	want := make([]string, len(bodies))
	for i, body := range bodies {
		items = append(items, BatchItem{Op: epLearn, Req: json.RawMessage(body)})
		owner := servers[0].ring.Owner(learnRoutingKey(t, body))
		resp, raw := httpDo(t, owner, "/v1/learn", body, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("direct single %d: code %d: %s", i, resp.StatusCode, raw)
		}
		want[i] = strings.TrimSuffix(string(raw), "\n")
	}
	env := batchEnvelope(t, items...)
	resp, raw := httpDo(t, urls[0], "/v1/batch", env, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("batch: code %d: %s", resp.StatusCode, raw)
	}
	got := decodeBatch(t, raw)
	for i := range bodies {
		if got.Items[i].Status != 200 {
			t.Fatalf("item %d: status %d body %s", i, got.Items[i].Status, got.Items[i].Body)
		}
		if string(got.Items[i].Body) != want[i] {
			t.Fatalf("item %d diverged from the owner's direct answer\n got: %s\nwant: %s",
				i, got.Items[i].Body, want[i])
		}
	}
	if servers[0].cluster.forwarded.Load() < 1 {
		t.Fatal("node 0 relayed no sub-batch")
	}
	if servers[1].cluster.servedForwarded.Load() < 1 {
		t.Fatal("node 1 served no forwarded batch")
	}
}

// TestBatchHopGuard: a forwarded envelope is honored only for items this
// node owns on the sender's ring view; foreign items are per-item 421s
// (never re-forwarded), owned items are served normally.
func TestBatchHopGuard(t *testing.T) {
	urls, servers, _ := startCluster(t, []Config{
		{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20, ResponseCacheBytes: 16 << 20},
		{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20, ResponseCacheBytes: 16 << 20},
	})
	owned := map[string]string{}
	for seed := 0; len(owned) < 2; seed++ {
		body := fmt.Sprintf(
			`{"tenant":"t%d","source":{"gen":"zipf","n":64},"k":2,"eps":0.5,"cap":400,"seed":1}`, seed)
		owner := servers[0].ring.Owner(learnRoutingKey(t, body))
		if _, ok := owned[owner]; !ok {
			owned[owner] = body
		}
	}
	env := batchEnvelope(t,
		BatchItem{Op: epLearn, Req: json.RawMessage(owned[urls[0]])},
		BatchItem{Op: epLearn, Req: json.RawMessage(owned[urls[1]])},
	)
	before := servers[0].cluster.loopsRejected.Load()
	resp, raw := httpDo(t, urls[0], "/v1/batch", env,
		map[string]string{cluster.ForwardedHeader: urls[1]})
	if resp.StatusCode != 200 {
		t.Fatalf("forwarded batch: code %d: %s", resp.StatusCode, raw)
	}
	got := decodeBatch(t, raw)
	if got.Items[0].Status != 200 {
		t.Fatalf("owned item: status %d body %s, want 200", got.Items[0].Status, got.Items[0].Body)
	}
	if got.Items[1].Status != http.StatusMisdirectedRequest {
		t.Fatalf("foreign item: status %d, want 421", got.Items[1].Status)
	}
	if servers[0].cluster.loopsRejected.Load() != before+1 {
		t.Fatal("hop-guard rejection not counted")
	}
	if resp.Header.Get(cluster.ForwardedHeader) != urls[1] {
		t.Fatal("forwarded batch did not echo the hop header")
	}
}
