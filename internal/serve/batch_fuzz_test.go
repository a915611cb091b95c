package serve

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzWarmBodies are answered once before fuzzing, so that seed items
// naming them are response-cache hits when their envelope is routed.
var fuzzWarmBodies = []struct{ path, body string }{
	{"/v1/learn", `{"tenant":"f","source":{"gen":"zipf","n":64},"k":3,"eps":0.3,"scale":0.05,"cap":500,"seed":1}`},
	{"/v1/test/l2", `{"tenant":"f","source":{"gen":"khist","n":64,"k":3,"seed":2},"k":3,"eps":0.3,"scale":0.02,"cap":500,"seed":4}`},
}

// FuzzBatchEnvelope sends client-supplied /v1/batch envelopes to one
// server. Whatever the bytes, the server must not panic. A 200 envelope
// sent again must answer every item with the same status and body, and
// every 200 item's body must equal the single-request body for its req
// bytes, minus the wire newline. The server's ceilings (domain 64, 2000
// samples per set, 8 items, 64 KiB bodies) keep each iteration cheap
// whatever the fuzzer writes into the items. Seeds are in
// testdata/fuzz/FuzzBatchEnvelope.
func FuzzBatchEnvelope(f *testing.F) {
	s := mustNew(f, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 8 << 20, ResponseCacheBytes: 1 << 20,
		MaxDomain: 64, MaxSamplesPerSet: 2000, MaxBatchItems: 8, MaxBodyBytes: 64 << 10,
		Metrics: MetricsConfig{Disabled: true}, Trace: TraceConfig{Disabled: true}})
	f.Cleanup(s.Close)
	h := s.Handler()
	for _, w := range fuzzWarmBodies {
		if got := post(h, w.path, w.body); got.Code != 200 {
			f.Fatalf("warm %s: code %d: %s", w.path, got.Code, got.Body.String())
		}
	}
	f.Fuzz(func(t *testing.T, env []byte) {
		first := post(h, "/v1/batch", string(env))
		if first.Code != 200 {
			return
		}
		second := post(h, "/v1/batch", string(env))
		if second.Code != 200 {
			t.Fatalf("resent envelope: code %d, first 200: %s", second.Code, second.Body.String())
		}
		var req BatchRequest
		if err := decodeStrict(env, &req); err != nil {
			t.Fatalf("a 200 envelope does not decode: %v", err)
		}
		a, b := decodeBatch(t, first.Body.Bytes()).Items, decodeBatch(t, second.Body.Bytes()).Items
		if len(a) != len(req.Items) || len(b) != len(req.Items) {
			t.Fatalf("%d items answered %d and %d times", len(req.Items), len(a), len(b))
		}
		for i, it := range req.Items {
			if a[i].Status != b[i].Status || !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("item %d: %d %s, then %d %s", i, a[i].Status, a[i].Body, b[i].Status, b[i].Body)
			}
			if a[i].Status != 200 {
				continue
			}
			single := post(h, batchPaths[it.Op], string(it.Req))
			if want := strings.TrimSuffix(single.Body.String(), "\n"); single.Code != 200 || string(a[i].Body) != want {
				t.Fatalf("item %d (%s): body %s, single request %d %s", i, it.Op, a[i].Body, single.Code, want)
			}
		}
	})
}
