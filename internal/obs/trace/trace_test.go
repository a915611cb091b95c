package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeef, ^uint64(0), 0x0123456789abcdef} {
		s := FormatID(id)
		if len(s) != 16 {
			t.Fatalf("FormatID(%#x) = %q, want 16 hex digits", id, s)
		}
		if got := ParseID(s); got != id {
			t.Fatalf("ParseID(FormatID(%#x)) = %#x", id, got)
		}
	}
	for _, bad := range []string{"", "xyz", "12345678901234567", "g000000000000000"} {
		if got := ParseID(bad); got != 0 {
			t.Fatalf("ParseID(%q) = %#x, want 0", bad, got)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	tr := New(Config{SampleN: 1})
	a := tr.Start(0)
	t0 := a.Start()
	a.Add(SpanDecode, t0, 42*time.Microsecond, "")
	a.Add(SpanCompute, t0.Add(50*time.Microsecond), 1300*time.Microsecond, "hit")
	a.Add(SpanForward, t0, time.Millisecond, "http://peer:8080,x;y")

	spans := ParseWire(a.EncodeWire())
	if len(spans) != 3 {
		t.Fatalf("ParseWire returned %d spans, want 3", len(spans))
	}
	if spans[0].Name != SpanDecode || spans[0].DurUS != 42 {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].StartUS != 50 || spans[1].Note != "hit" {
		t.Fatalf("span 1 = %+v", spans[1])
	}
	if strings.ContainsAny(spans[2].Note, ";,") {
		t.Fatalf("note not sanitized: %q", spans[2].Note)
	}
	if spans[2].Note != "http://peer:8080_x_y" {
		t.Fatalf("span 2 note = %q", spans[2].Note)
	}
	tr.Finish(a, "learn", 200, time.Millisecond)
}

func TestParseWireMalformed(t *testing.T) {
	if got := ParseWire(""); got != nil {
		t.Fatalf("ParseWire(\"\") = %v, want nil", got)
	}
	// Malformed fragments are skipped, valid ones survive.
	spans := ParseWire("decode,1,2;bogus;,,;x,nope,3;compute,10,20,note")
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	if spans[0].Name != "decode" || spans[1].Note != "note" {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestRetentionReasons(t *testing.T) {
	slow := int64(0)
	tr := New(Config{SampleN: 0, Buffer: 16, SlowUS: func() int64 { return slow }})

	// Not sampled, fast, 200 => dropped.
	a := tr.Start(0)
	if id, kept := tr.Finish(a, "learn", 200, time.Millisecond); kept || id != "" {
		t.Fatalf("fast 200 trace retained: id=%q kept=%v", id, kept)
	}

	// Errors always kept.
	a = tr.Start(0)
	a.Add(SpanAdmit, a.Start(), time.Microsecond, "")
	id, kept := tr.Finish(a, "learn", 429, time.Millisecond)
	if !kept {
		t.Fatal("429 trace not retained")
	}
	got := tr.Get(id)
	if got == nil || got.Retained != KeptError || got.Status != 429 || len(got.Spans) != 1 {
		t.Fatalf("retained 429 trace = %+v", got)
	}

	// Slow threshold from the live callback.
	slow = 500
	a = tr.Start(0)
	if _, kept = tr.Finish(a, "learn", 200, time.Millisecond); !kept {
		t.Fatal("slow trace not retained")
	}
	if n := len(tr.Recent(Filter{MinDurUS: 900})); n != 2 {
		t.Fatalf("Recent(min 900us) = %d traces, want 2", n)
	}
	st := tr.StatsSnapshot()
	if st.RetainedError != 1 || st.RetainedSlow != 1 || st.RetainedHead != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHeadSampling(t *testing.T) {
	tr := New(Config{SampleN: 4, Buffer: 64})
	kept := 0
	for i := 0; i < 16; i++ {
		a := tr.Start(0)
		if _, k := tr.Finish(a, "learn", 200, time.Microsecond); k {
			kept++
		}
	}
	if kept != 4 {
		t.Fatalf("SampleN=4 over 16 traces kept %d, want 4", kept)
	}
	// The very first trace must be sampled (CI smoke depends on it).
	tr = New(Config{SampleN: 4})
	a := tr.Start(0)
	if _, k := tr.Finish(a, "learn", 200, time.Microsecond); !k {
		t.Fatal("first trace not head-sampled")
	}
}

func TestParentIDPropagation(t *testing.T) {
	tr := New(Config{SampleN: 1, Buffer: 8})
	parent := uint64(0xabcdef0123456789)
	a := tr.Start(parent)
	if a.TraceID() != parent {
		t.Fatalf("TraceID = %#x, want parent %#x", a.TraceID(), parent)
	}
	id, kept := tr.Finish(a, "learn", 200, time.Millisecond)
	if !kept || id != FormatID(parent) {
		t.Fatalf("forwarded trace id = %q, want %q", id, FormatID(parent))
	}
}

func TestStitchRemoteSpans(t *testing.T) {
	tr := New(Config{SampleN: 1, Buffer: 8})
	a := tr.Start(0)
	t0 := a.Start()
	a.Add(SpanDecode, t0, 10*time.Microsecond, "")
	remote := []Span{
		{Name: SpanAdmit, StartUS: 1, DurUS: 2},
		{Name: SpanCompute, StartUS: 5, DurUS: 100},
	}
	a.AddRemote("http://owner:1", t0.Add(250*time.Microsecond), remote)
	id, _ := tr.Finish(a, "learn", 200, time.Millisecond)
	got := tr.Get(id)
	if len(got.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(got.Spans))
	}
	sp := got.Spans[2]
	if sp.Node != "http://owner:1" || sp.Name != SpanCompute {
		t.Fatalf("stitched span = %+v", sp)
	}
	if sp.StartUS != 255 { // 250 base + 5 remote offset
		t.Fatalf("stitched StartUS = %d, want 255", sp.StartUS)
	}
	if remote[0].Node != "" {
		t.Fatal("AddRemote mutated caller's slice")
	}
}

func TestSpanOverflowCounted(t *testing.T) {
	tr := New(Config{SampleN: 1, Buffer: 8})
	a := tr.Start(0)
	for i := 0; i < MaxSpans+7; i++ {
		a.Add(SpanCompute, a.Start(), time.Microsecond, "")
	}
	tr.Finish(a, "learn", 200, time.Millisecond)
	if st := tr.StatsSnapshot(); st.SpanDrops != 7 {
		t.Fatalf("SpanDrops = %d, want 7", st.SpanDrops)
	}
}

func TestRingBounded(t *testing.T) {
	tr := New(Config{SampleN: 1, Buffer: 8, Shards: 2})
	for i := 0; i < 100; i++ {
		a := tr.Start(0)
		tr.Finish(a, "learn", 200, time.Millisecond)
	}
	st := tr.StatsSnapshot()
	if st.Buffered > 8 {
		t.Fatalf("Buffered = %d, want <= 8", st.Buffered)
	}
	if st.Started != 100 || st.RetainedHead != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if n := len(tr.Recent(Filter{Limit: 100})); n > 8 {
		t.Fatalf("Recent returned %d, want <= 8", n)
	}
}

func TestRecentFilters(t *testing.T) {
	tr := New(Config{SampleN: 1, Buffer: 32})
	mk := func(ep string, status int, d time.Duration) {
		a := tr.Start(0)
		tr.Finish(a, ep, status, d)
	}
	mk("learn", 200, time.Millisecond)
	mk("learn", 429, time.Millisecond)
	mk("test_l2", 200, 10*time.Millisecond)
	if n := len(tr.Recent(Filter{Endpoint: "learn"})); n != 2 {
		t.Fatalf("endpoint filter: %d, want 2", n)
	}
	if n := len(tr.Recent(Filter{Status: 429})); n != 1 {
		t.Fatalf("status filter: %d, want 1", n)
	}
	if n := len(tr.Recent(Filter{MinDurUS: 5000})); n != 1 {
		t.Fatalf("min-dur filter: %d, want 1", n)
	}
	if n := len(tr.Recent(Filter{Limit: 1})); n != 1 {
		t.Fatalf("limit: %d, want 1", n)
	}
	// Newest first.
	rs := tr.Recent(Filter{})
	for i := 1; i < len(rs); i++ {
		if rs[i-1].StartUnixNS < rs[i].StartUnixNS {
			t.Fatal("Recent not sorted newest-first")
		}
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	a := tr.Start(0)
	if a != nil {
		t.Fatal("nil tracer returned non-nil Active")
	}
	a.Add(SpanDecode, time.Now(), time.Microsecond, "")
	a.AddRemote("n", time.Now(), []Span{{Name: "x"}})
	if a.EncodeWire() != "" || a.Snapshot() != nil || a.TraceID() != 0 {
		t.Fatal("nil Active methods not inert")
	}
	if id, kept := tr.Finish(a, "learn", 500, time.Second); kept || id != "" {
		t.Fatal("nil tracer retained a trace")
	}
	if tr.Recent(Filter{}) != nil || tr.Get("x") != nil {
		t.Fatal("nil tracer returned traces")
	}
	if tr.StatsSnapshot() != (Stats{}) {
		t.Fatal("nil tracer stats not zero")
	}
}

func TestStage(t *testing.T) {
	var nilActive *Active
	if st := nilActive.Begin(SpanAdmit); st != (Stage{}) {
		t.Fatalf("nil Active opened %+v, want the zero Stage", st)
	}
	nilActive.Begin(SpanAdmit).End("ignored") // must not panic

	tr := New(Config{SampleN: 1})
	a := tr.Start(0)
	st := a.Begin(SpanRCache)
	time.Sleep(time.Millisecond)
	st.End("rhit")
	spans := a.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("%d spans, want 1", len(spans))
	}
	if sp := spans[0]; sp.Name != SpanRCache || sp.Note != "rhit" || sp.DurUS < 1000 || sp.StartUS < 0 {
		t.Fatalf("stage span %+v, want rcache/rhit lasting >= 1ms", sp)
	}
	tr.Finish(a, "learn", 200, 0)
}

func TestConcurrentAdd(t *testing.T) {
	tr := New(Config{SampleN: 1, Buffer: 4})
	a := tr.Start(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a.Add(SpanCompute, a.Start(), time.Microsecond, "")
			}
		}()
	}
	wg.Wait()
	id, kept := tr.Finish(a, "batch", 200, time.Millisecond)
	if !kept {
		t.Fatal("trace not retained")
	}
	got := tr.Get(id)
	if len(got.Spans) != MaxSpans {
		t.Fatalf("spans = %d, want %d", len(got.Spans), MaxSpans)
	}
	if st := tr.StatsSnapshot(); st.SpanDrops != int64(800-MaxSpans) {
		t.Fatalf("SpanDrops = %d, want %d", st.SpanDrops, 800-MaxSpans)
	}
}

func TestIDUniqueness(t *testing.T) {
	tr := New(Config{SampleN: 1, Buffer: 4})
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		a := tr.Start(0)
		if a.TraceID() == 0 || seen[a.TraceID()] {
			t.Fatalf("duplicate or zero id %#x at i=%d", a.TraceID(), i)
		}
		seen[a.TraceID()] = true
		tr.Finish(a, "learn", 200, 0)
	}
	// Distinct seeds give distinct id streams.
	t2 := New(Config{SampleN: 1, Seed: 1})
	a := t2.Start(0)
	if seen[a.TraceID()] {
		t.Fatal("seeded tracer collided with seed-0 stream")
	}
	t2.Finish(a, "learn", 200, 0)
}
