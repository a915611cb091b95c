package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"khist/internal/cluster"
	"khist/internal/obs/trace"
)

// POST /v1/batch: many algorithm sub-queries per HTTP round trip. The
// envelope is decoded once, every item is routed through the same
// cluster ownership, response cache, admission front door, and shard
// pools a single request passes — a local item runs the single
// request's own pipeline (serveLocal), and admission charges the
// tenant once per sub-query, so quotas stay exact — and the response
// is an array of per-item results in request order, each carrying its
// own status, cache disposition, and body. An item's body is
// byte-identical to the single-request response body for the same
// bytes (minus the trailing wire newline single responses append), so
// a batch of one is the single-request API with an envelope around it.
//
// An item is decoded only when the response cache cannot answer it,
// the rule a single request follows. The envelope's plan (each item's
// op and raw bytes, the prebuilt result of an unknown op, and a
// decode-once slot) is cached in a byte-budgeted LRU keyed by the raw
// envelope, so a repeated identical batch skips the envelope decode
// too. Routing reads an item's tenant and source key from its cached
// response entry through an uncounted peek; only when the peek misses
// does the item decode, at most once per cached plan, shared by every
// request on that plan. Right before it runs, each local item makes the
// single request's counted response-cache lookup, so a later duplicate
// of a missed item in the same envelope still answers "rhit", and
// every counter and span matches the single path. Results are never
// cached at the envelope level — admission and shedding are per
// request — only the plan is.
//
// The envelope is always JSON (items are opaque RawMessages, so a
// binary envelope would save little); item bodies are JSON too. The
// batch path skips owner-side bundle warming — that is a single-forward
// optimization — but shares everything else, including the response
// cache: items and single requests hit each other's entries when their
// body bytes match.

// DefaultMaxBatchItems bounds the items one envelope may carry when the
// config leaves MaxBatchItems unset.
const DefaultMaxBatchItems = 256

// BatchItem is one sub-query: an op naming the algorithm endpoint
// ("learn", "test_l2", "test_l1", "learn2d") and the endpoint's request
// body, verbatim.
type BatchItem struct {
	Op  string          `json:"op"`
	Req json.RawMessage `json:"req"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItemResult is one sub-query's outcome. Status is the HTTP status
// the item would have received as a single request; Body is that
// request's response body (the endpoint's response on 200, the uniform
// error shape otherwise); Cache is the X-Khist-Cache value, when the
// item went through the caches.
type BatchItemResult struct {
	Status int    `json:"status"`
	Cache  string `json:"cache,omitempty"`
	// RetryAfter carries the Retry-After hint (seconds) of a 429 item.
	RetryAfter int             `json:"retry_after,omitempty"`
	Body       json.RawMessage `json:"body"`
}

// BatchResponse is the body of a /v1/batch response: one result per
// item, in item order. The envelope itself is 200 whenever it was
// well-formed; per-item failures live in the items.
type BatchResponse struct {
	Items []BatchItemResult `json:"items"`
}

func batchError(code int, err error) BatchItemResult {
	body, merr := jsonMarshal(errorResponse{Error: err.Error()})
	if merr != nil {
		body = []byte(`{"error":"internal error"}`)
	}
	return BatchItemResult{Status: code, Body: body}
}

func batchShed(retryAfter int, err error) BatchItemResult {
	r := batchError(http.StatusTooManyRequests, err)
	r.RetryAfter = retryAfter
	return r
}

// batchPlanItem is one sub-query of a cached plan, shared by every
// request on the plan: the op and raw bytes, which are the item's
// response-cache address, the op's decoder, or the prebuilt result of
// an unknown op, and the decode-once slot. Only decode touches the slot
// (p, bad): it writes them inside once and reads them after once.Do
// returns, so concurrent requests share one decode safely; decoded only
// tells routing that a decode is there.
type batchPlanItem struct {
	op  string
	raw json.RawMessage
	dec decodeFunc
	// unknown is the result of an op no endpoint serves (dec nil).
	unknown *BatchItemResult

	once    sync.Once
	p       *prepared
	bad     *BatchItemResult
	decoded atomic.Bool
}

// decode returns the item's decoded request, or the 400 result of a
// decode failure. The first request to call it decodes and records the
// decode span, as a single request's miss does; later and concurrent
// callers on the same plan share that outcome.
func (pi *batchPlanItem) decode(s *Server, act *trace.Active) (*prepared, *BatchItemResult) {
	pi.once.Do(func() {
		st := act.Begin(trace.SpanDecode)
		p, err := pi.dec(s, pi.raw, false)
		st.End("")
		if err != nil {
			bad := batchError(http.StatusBadRequest, err)
			pi.bad = &bad
		} else {
			pi.p = p
		}
		pi.decoded.Store(true)
	})
	return pi.p, pi.bad
}

// newBatchPlan builds the plan of an envelope's items. Only unknown ops
// fail here; an item's own bytes are decoded only when the response
// cache cannot answer it (routeKeys, serveItem), and a decode failure is
// that item's 400, never the envelope's.
func newBatchPlan(items []BatchItem) []batchPlanItem {
	plan := make([]batchPlanItem, len(items))
	for i, it := range items {
		pi := &plan[i]
		pi.op, pi.raw = it.Op, it.Req
		var ok bool
		if pi.dec, ok = algoEndpoints[it.Op]; !ok {
			bad := batchError(http.StatusBadRequest,
				fmt.Errorf("serve: unknown batch op %q (want learn | test_l2 | test_l1 | learn2d)", it.Op))
			pi.unknown = &bad
		}
	}
	return plan
}

// planBytes approximates a plan's memory for the LRU accounting: the
// strings the items hold, a decoded request per item (about the raw
// bytes again), and fixed per-item overhead, plus the prebuilt results
// of unknown ops and the cache key itself (the envelope's bytes). An
// item is decoded only on a response-cache miss, once per cached plan,
// so a plan of response-cache hits holds no decoded request: the charge
// is conservative.
func planBytes(plan []batchPlanItem, keyLen int) int64 {
	b := int64(keyLen) + 64
	for i := range plan {
		pi := &plan[i]
		b += int64(2*len(pi.op) + 3*len(pi.raw) + 168)
		if pi.unknown != nil {
			b += int64(len(pi.unknown.Body))
		}
	}
	return b
}

// cachedPlan returns the plan cached for the envelope body, or nil. It
// must not allocate: the lookup reads the body through a no-copy view.
//
//khist:noalloc
func (s *Server) cachedPlan(body []byte) []batchPlanItem {
	if v, ok := s.plans.get(bodyView(body)); ok {
		return v.([]batchPlanItem)
	}
	return nil
}

// batchSlot is one item's state in one request: its routing keys and
// its result.
type batchSlot struct {
	tenant, sourceKey string
	res               BatchItemResult
}

// routeKeys sets sl's routing keys from the response entry cached for
// the item, read by an uncounted peek, or, when there is none, from the
// item's decode. An item that a request on its plan has decoded already
// routes on that decode without the peek: both give the same keys, and
// a repeated envelope's items then cost what they did before routing
// peeked. It reports false, with sl's result set, for an unknown op or
// an item that does not decode.
func (s *Server) routeKeys(act *trace.Active, pi *batchPlanItem, sl *batchSlot) bool {
	if pi.unknown != nil {
		sl.res = *pi.unknown
		return false
	}
	if !pi.decoded.Load() {
		if e := s.respc.peek(pi.op, false, pi.raw); e != nil {
			sl.tenant, sl.sourceKey = e.tenant, e.sourceKey
			return true
		}
	}
	p, bad := pi.decode(s, act)
	if bad != nil {
		sl.res = *bad
		return false
	}
	sl.tenant, sl.sourceKey = p.tenant, p.sourceKey
	return true
}

// serveItem runs one local item through the single request's pipeline:
// the counted response-cache lookup right before it runs, then, on a
// miss, the item's decode and serveLocal.
func (s *Server) serveItem(ctx context.Context, act *trace.Active, pi *batchPlanItem) BatchItemResult {
	e := s.cached(act, pi.op, false, pi.raw)
	var p *prepared
	if e == nil {
		var bad *BatchItemResult
		if p, bad = pi.decode(s, act); bad != nil {
			return *bad
		}
	}
	return s.serveLocal(ctx, act, pi.op, false, pi.raw, e, p).batchItem()
}

// handleBatch resolves the envelope to a plan (cached, or built now),
// routes every item (locally by shard, remotely by ring owner), and
// writes the assembled results. Item execution is grouped: remote items
// are re-batched per owning node and relayed as sub-batches, local
// items are grouped per shard and executed sequentially within the
// group (one scheduled unit per shard, not one goroutine per item).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, done, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer done()
	act := activeOf(w)
	ctx := r.Context()
	st := act.Begin(trace.SpanPlan)
	plansOn := s.plans.capBytes > 0
	var plan []batchPlanItem
	planStatus := StatusMiss
	if plansOn {
		if plan = s.cachedPlan(body); plan != nil {
			planStatus = StatusHit
			s.planHits.Add(1)
		} else {
			s.planMisses.Add(1)
		}
	}
	if plan == nil {
		var req BatchRequest
		if !s.decodeBytes(w, body, &req) {
			return
		}
		if len(req.Items) == 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: batch has no items"))
			return
		}
		if len(req.Items) > s.cfg.MaxBatchItems {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("serve: batch carries %d items, above the server's -max-batch-items %d", len(req.Items), s.cfg.MaxBatchItems))
			return
		}
		plan = newBatchPlan(req.Items)
		if plansOn {
			s.plans.put(string(body), plan, planBytes(plan, len(body)))
		}
	}
	st.End(planStatus)

	slots := make([]batchSlot, len(plan))
	var local []int
	groups := make(map[string][]int)
	forwardedFrom := r.Header.Get(cluster.ForwardedHeader)
	var excluded map[string]bool
	if forwardedFrom != "" {
		excluded = cluster.ParseExcluded(r.Header.Get(cluster.ExcludedHeader))
	}
	for i := range plan {
		sl := &slots[i]
		if !s.routeKeys(act, &plan[i], sl) {
			continue
		}
		if s.ring == nil {
			local = append(local, i)
			continue
		}
		key := routingKey(sl.tenant, sl.sourceKey)
		if forwardedFrom != "" {
			// Hop guard, per item: a forwarded sub-batch is served only for
			// the keys this node owns on the sender's reduced ring; anything
			// else is a per-item 421 the sender retries locally.
			owner, ok := s.ring.OwnerExcluding(key, excluded)
			if !ok || owner != s.peers.Self() {
				s.cluster.loopsRejected.Add(1)
				sl.res = batchError(http.StatusMisdirectedRequest,
					fmt.Errorf("serve: misrouted forward from %s: this node is not the key's owner", forwardedFrom))
				continue
			}
			local = append(local, i)
			continue
		}
		if owner := s.ring.Owner(key); owner == s.peers.Self() {
			local = append(local, i)
		} else {
			groups[owner] = append(groups[owner], i)
		}
	}
	if s.ring != nil && forwardedFrom != "" {
		s.cluster.servedForwarded.Add(1)
		w.Header().Set(cluster.ForwardedHeader, forwardedFrom)
	}

	// Relay each remote owner's items as one sub-batch, concurrently
	// across owners. Items a relay could not place (dead owner, ring
	// disagreement) fall back to local serving, like single forwards.
	if len(groups) > 0 {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, idxs := range groups {
			wg.Add(1)
			go func(idxs []int) {
				defer wg.Done()
				if retry := s.forwardBatch(ctx, act, idxs, plan, slots); len(retry) > 0 {
					mu.Lock()
					local = append(local, retry...)
					mu.Unlock()
				}
			}(idxs)
		}
		wg.Wait()
	}

	shardGroups := make(map[*shard][]int)
	for _, i := range local {
		sh := s.shardFor(slots[i].tenant, slots[i].sourceKey)
		shardGroups[sh] = append(shardGroups[sh], i)
	}
	if len(shardGroups) == 1 {
		// The common hot case (one tenant, one source) needs no fan-out.
		for _, idxs := range shardGroups {
			for _, i := range idxs {
				slots[i].res = s.serveItem(ctx, act, &plan[i])
			}
		}
	} else {
		var lwg sync.WaitGroup
		for _, idxs := range shardGroups {
			lwg.Add(1)
			go func(idxs []int) {
				defer lwg.Done()
				for _, i := range idxs {
					slots[i].res = s.serveItem(ctx, act, &plan[i])
				}
			}(idxs)
		}
		lwg.Wait()
	}
	if s.metrics != nil {
		// Per-item outcome counters: the envelope's own 200 hides item-level
		// sheds and errors from the endpoint status counters, so the items
		// get their own family (khist_batch_item_results_total).
		for i := range slots {
			s.metrics.batchItemDone(plan[i].op, slots[i].res.Status)
		}
	}
	writeBatchResponse(w, slots)
}

// writeBatchResponse assembles the envelope by hand: item bodies are
// already encoded JSON, so marshalling BatchResponse would only re-scan
// (and re-validate) every body. The output is byte-identical to
// json.Marshal of the same BatchResponse given compact bodies, which is
// what every body here is (our own encoders emit compact JSON).
func writeBatchResponse(w http.ResponseWriter, slots []batchSlot) {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.WriteString(`{"items":[`)
	for i := range slots {
		res := &slots[i].res
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(`{"status":`)
		buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(res.Status), 10))
		if res.Cache != "" {
			buf.WriteString(`,"cache":`)
			buf.Write(strconv.AppendQuote(buf.AvailableBuffer(), res.Cache))
		}
		if res.RetryAfter != 0 {
			buf.WriteString(`,"retry_after":`)
			buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(res.RetryAfter), 10))
		}
		buf.WriteString(`,"body":`)
		buf.Write(res.Body)
		buf.WriteByte('}')
	}
	buf.WriteString("]}\n")
	w.Header().Set("Content-Type", jsonContentType)
	w.Write(buf.Bytes())
	bodyBufPool.Put(buf)
}

// forwardBatch relays one owner's items as a sub-batch and fills their
// results. It returns the indices that must be served locally instead:
// all of them when the relay failed outright (transport failure,
// non-200 envelope, malformed sub-response), or the 421-refused subset
// of a successful relay.
func (s *Server) forwardBatch(ctx context.Context, act *trace.Active, idxs []int, plan []batchPlanItem, slots []batchSlot) []int {
	sub := BatchRequest{Items: make([]BatchItem, len(idxs))}
	for j, i := range idxs {
		sub.Items[j] = BatchItem{Op: plan[i].op, Req: plan[i].raw}
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return idxs
	}
	// The representative key: every index in idxs hashed to the same
	// owner, so the first item's key routes the sub-batch, and its shard
	// slot bounds the relay like a single forward's.
	rep := &slots[idxs[0]]
	retry := idxs
	_, shed := s.forward(ctx, act, s.shardFor(rep.tenant, rep.sourceKey), routingKey(rep.tenant, rep.sourceKey),
		"/v1/batch", jsonContentType, "", body, func(resp *cluster.Response) {
			var sresp BatchResponse
			if resp.Status != http.StatusOK || json.Unmarshal(resp.Body, &sresp) != nil || len(sresp.Items) != len(idxs) {
				return
			}
			s.cluster.forwarded.Add(1)
			retry = nil
			for j, i := range idxs {
				if sresp.Items[j].Status == http.StatusMisdirectedRequest {
					retry = append(retry, i)
					continue
				}
				slots[i].res = sresp.Items[j]
			}
		})
	if shed != nil {
		for _, i := range idxs {
			slots[i].res = batchShed(1, shed)
		}
		return nil
	}
	if len(retry) > 0 {
		s.cluster.fallbackLocal.Add(int64(len(retry)))
	}
	return retry
}

// batchItem is the outcome of the local pipeline as a batch item's
// result, the counterpart of writeOutcome for a single request.
func (o outcome) batchItem() BatchItemResult {
	switch {
	case o.err == nil:
		return BatchItemResult{Status: o.status, Cache: o.cache, Body: o.body}
	case o.status == http.StatusTooManyRequests:
		return batchShed(o.retryAfter, o.err)
	default:
		return batchError(o.status, o.err)
	}
}
