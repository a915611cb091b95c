package obs

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLatencyBucketScale(t *testing.T) {
	// Exact linear region.
	for us := int64(0); us < latLinear; us++ {
		if b := latencyBucket(us); int64(b) != us {
			t.Fatalf("latencyBucket(%d) = %d", us, b)
		}
	}
	// Monotone, with every value inside its bucket's [lo, hi) range.
	prev := -1
	for _, us := range []int64{0, 1, 15, 16, 17, 31, 32, 100, 999, 1000,
		12345, 1 << 20, 55_555_555, 1 << 26, (1 << 27) - 1, 1 << 27, 1 << 40} {
		b := latencyBucket(us)
		if b < prev {
			t.Fatalf("bucket not monotone at %dus: %d < %d", us, b, prev)
		}
		prev = b
		if b < 0 || b >= LatencyDomain {
			t.Fatalf("bucket %d out of domain for %dus", b, us)
		}
		lo, hi := BucketLoUS(b), BucketHiUS(b)
		if b == LatencyDomain-1 {
			// Top bucket absorbs the clamp; lo must still bound below.
			if us >= 1<<27 {
				continue
			}
		}
		if us < lo || us >= hi {
			t.Fatalf("%dus maps to bucket %d = [%d, %d)", us, b, lo, hi)
		}
		// HDR property: relative bucket width <= 12.5% beyond the linear
		// region (lo = (8+sub) * width for sub in [0, 8), by construction).
		if lo >= latLinear && b < LatencyDomain-1 {
			if w := hi - lo; lo%w != 0 || lo/w < 8 || lo/w > 15 {
				t.Fatalf("bucket %d = [%d, %d): width %d, want lo/width in [8, 15]", b, lo, hi, w)
			}
		}
	}
	// Negative durations clamp to bucket 0.
	if b := latencyBucket(-5); b != 0 {
		t.Fatalf("latencyBucket(-5) = %d", b)
	}
	// Edges tile the domain: BucketHiUS(b) == BucketLoUS(b+1) everywhere.
	for b := 0; b < LatencyDomain-1; b++ {
		if BucketHiUS(b) != BucketLoUS(b+1) {
			t.Fatalf("buckets %d/%d do not tile: hi=%d lo=%d", b, b+1, BucketHiUS(b), BucketLoUS(b+1))
		}
	}
}

func TestLabels(t *testing.T) {
	if got := Labels(); got != "" {
		t.Errorf("Labels() = %q", got)
	}
	if got := Labels("a", "x", "b", `q"u\o`+"\n"); got != `{a="x",b="q\"u\\o\n"}` {
		t.Errorf("Labels = %q", got)
	}
}

func TestRegistryRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("khist_test_total", "a test counter", "kind", "x")
	reg.Counter("khist_test_total", "a test counter", "kind", "y").Add(7)
	reg.Gauge("khist_test_gauge", "a gauge", func() float64 { return 1.5 })
	reg.CounterFunc("khist_test_mirror", "a mirror", func() float64 { return 3 })
	c.Inc()
	c.Add(2)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP khist_test_total a test counter\n# TYPE khist_test_total counter\n",
		`khist_test_total{kind="x"} 3`,
		`khist_test_total{kind="y"} 7`,
		"# TYPE khist_test_gauge gauge\nkhist_test_gauge 1.5",
		"khist_test_mirror 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	// One HELP/TYPE block per family, not per series.
	if n := strings.Count(out, "# TYPE khist_test_total"); n != 1 {
		t.Errorf("family header appears %d times", n)
	}
}

func TestRecorderSnapshotAndLearn(t *testing.T) {
	reg := NewRegistry()
	rec := reg.Recorder("khist_test_latency", "test latency", true)

	// A cleanly bimodal latency population: 3/4 fast (~100us), 1/4 slow
	// (~50ms). The learner should recover the two modes.
	for i := 0; i < 4000; i++ {
		if i%4 == 0 {
			rec.Observe(50 * time.Millisecond)
		} else {
			rec.Observe(100 * time.Microsecond)
		}
	}
	if rec.Count() != 4000 {
		t.Fatalf("Count = %d", rec.Count())
	}
	if rec.Latest() != nil {
		t.Fatal("Latest before any snapshot should be nil")
	}

	snap := rec.Snapshot(4)
	if snap == nil || rec.Latest() != snap {
		t.Fatal("Snapshot not stored as Latest")
	}
	if snap.Count != 4000 || snap.MaxUS < 50000 {
		t.Errorf("snapshot totals: count=%d max=%d", snap.Count, snap.MaxUS)
	}
	// Quantiles: p50 in the fast mode, p99 in the slow mode.
	if snap.P50US < 64 || snap.P50US > 256 {
		t.Errorf("p50 = %dus, want ~100us", snap.P50US)
	}
	if snap.P99US < 40000 || snap.P99US > 64000 {
		t.Errorf("p99 = %dus, want ~50ms", snap.P99US)
	}
	if snap.MeanUS < 10000 || snap.MeanUS > 16000 {
		t.Errorf("mean = %vus, want ~12575us", snap.MeanUS)
	}

	// The learned histogram exists, has <= k pieces... (FastGreedy may
	// produce up to O(k) pieces; just require some and a sane mass sum).
	if len(snap.Pieces) == 0 {
		t.Fatal("learned recorder produced no pieces")
	}
	var mass, fastMass, slowMass float64
	for _, p := range snap.Pieces {
		mass += p.Mass
		if p.HiUS <= 1000 {
			fastMass += p.Mass
		}
		if p.LoUS >= 10000 {
			slowMass += p.Mass
		}
	}
	if mass < 0.95 || mass > 1.05 {
		t.Errorf("piece masses sum to %v", mass)
	}
	// The two modes must be visible in the learned histogram.
	if fastMass < 0.5 {
		t.Errorf("fast mode mass = %v, want ~0.75", fastMass)
	}
	if slowMass < 0.1 {
		t.Errorf("slow mode mass = %v, want ~0.25", slowMass)
	}
	// Learn error on a 2-mode population with k=4 should be tiny.
	if snap.ErrL2 > 0.01 {
		t.Errorf("ErrL2 = %v", snap.ErrL2)
	}

	// Pieces tile [0, something] with monotone boundaries.
	for i := 1; i < len(snap.Pieces); i++ {
		if snap.Pieces[i].LoUS != snap.Pieces[i-1].HiUS {
			t.Errorf("pieces %d/%d do not tile: %v then %v", i-1, i, snap.Pieces[i-1], snap.Pieces[i])
		}
	}

	// Prometheus rendering carries the learned series.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"khist_test_latency_count 4000",
		`khist_test_latency_us{quantile="0.5"}`,
		`khist_test_latency_us_bucket{le="+Inf"} 4000`,
		`khist_test_latency_learned_bucket{piece="0"`,
		"khist_test_latency_learned_pieces",
		"khist_test_latency_snapshots_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRecorderSmallStream(t *testing.T) {
	rec := NewRecorder("r", "h", true)
	// Below minLearnSamples: snapshot still works, no learned pieces.
	for i := 0; i < minLearnSamples-1; i++ {
		rec.Observe(time.Millisecond)
	}
	snap := rec.Snapshot(4)
	if snap.Count != int64(minLearnSamples-1) {
		t.Fatalf("Count = %d", snap.Count)
	}
	if len(snap.Pieces) != 0 {
		t.Errorf("learned %d pieces from %d samples", len(snap.Pieces), snap.Count)
	}
	// Empty recorder snapshots cleanly too.
	empty := NewRecorder("e", "h", false)
	if s := empty.Snapshot(4); s.Count != 0 || len(s.Pieces) != 0 {
		t.Errorf("empty snapshot: %+v", s)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder("r", "h", true)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // snapshots race observations
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rec.Snapshot(3)
			}
		}
	}()
	const (
		writers = 8
		perW    = 5000
	)
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perW; i++ {
				rec.Observe(time.Duration(w*100+i%50) * time.Microsecond)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if rec.Count() != writers*perW {
		t.Fatalf("Count = %d, want %d", rec.Count(), writers*perW)
	}
	snap := rec.Snapshot(3)
	if snap.SamplesSeen != writers*perW {
		t.Errorf("SamplesSeen = %d, want %d", snap.SamplesSeen, writers*perW)
	}
}

// TestRecorderExactQuantiles checks every published quantile and
// cumulative bucket against a brute force over the sorted observations.
// A quantile is the lower edge of the bucket holding the nearest-rank
// observation (rank ceil(phi*N), at least 1); CumLE[i] counts the
// observations <= fixedLE[i], as Prometheus reads an le label. The
// rendered _count, the +Inf bucket and Count() must all agree.
func TestRecorderExactQuantiles(t *testing.T) {
	durations := func(n int, seed int64, gen func(rng *rand.Rand) time.Duration) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = gen(rng)
		}
		return out
	}
	bimodal := make([]time.Duration, 4000)
	for i := range bimodal {
		bimodal[i] = 100 * time.Microsecond
		if i%4 == 0 {
			bimodal[i] = 50 * time.Millisecond
		}
	}
	for _, tc := range []struct {
		name string
		obs  []time.Duration
	}{
		{"exponential", durations(200_000, 1, func(rng *rand.Rand) time.Duration {
			return time.Duration(rng.ExpFloat64() * 800 * float64(time.Microsecond))
		})},
		{"bimodal", bimodal},
		{"one-bucket", durations(1000, 2, func(rng *rand.Rand) time.Duration {
			return time.Duration(1024+rng.Intn(128)) * time.Microsecond
		})},
		{"past-clamp", durations(5000, 3, func(rng *rand.Rand) time.Duration {
			return time.Duration(1<<26+rng.Int63n(1<<29)) * time.Microsecond
		})},
		{"negative", durations(3000, 4, func(rng *rand.Rand) time.Duration {
			return time.Duration(rng.Intn(400)-300) * time.Microsecond
		})},
		{"single", []time.Duration{4321 * time.Microsecond}},
		{"empty", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			rec := reg.Recorder("khist_exact", "exactness test", false)
			us := make([]int64, len(tc.obs))
			for i, d := range tc.obs {
				rec.Observe(d)
				us[i] = max(d.Microseconds(), 0)
			}
			sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
			n := int64(len(us))
			snap := rec.Snapshot(0)

			if snap.Count != n || rec.Count() != n || snap.SamplesSeen != n {
				t.Fatalf("count: snapshot %d, Count() %d, SamplesSeen %d, want %d", snap.Count, rec.Count(), snap.SamplesSeen, n)
			}
			for _, q := range []struct {
				pct int64
				got int64
			}{{50, snap.P50US}, {90, snap.P90US}, {99, snap.P99US}} {
				var want int64
				if n > 0 {
					rank := max((q.pct*n+99)/100, 1) // ceil(pct/100 * n)
					want = BucketLoUS(latencyBucket(us[rank-1]))
				}
				if q.got != want {
					t.Errorf("p%d = %dus, want %dus (exact nearest rank)", q.pct, q.got, want)
				}
			}
			if n == 0 {
				if snap.CumLE != nil {
					t.Errorf("empty recorder has cumulative buckets %v", snap.CumLE)
				}
			} else {
				if len(snap.CumLE) != len(fixedLE) {
					t.Fatalf("CumLE has %d entries, want %d", len(snap.CumLE), len(fixedLE))
				}
				for i, le := range fixedLE {
					want := int64(sort.Search(len(us), func(j int) bool { return us[j] > le }))
					if snap.CumLE[i] != want {
						t.Errorf("CumLE[le=%d] = %d, want %d", le, snap.CumLE[i], want)
					}
				}
			}

			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			series := func(name string) (int64, bool) {
				for _, line := range strings.Split(b.String(), "\n") {
					if v, ok := strings.CutPrefix(line, name+" "); ok {
						x, err := strconv.ParseInt(v, 10, 64)
						if err != nil {
							t.Fatalf("%s: %v", line, err)
						}
						return x, true
					}
				}
				return 0, false
			}
			if got, ok := series("khist_exact_count"); !ok || got != n {
				t.Errorf("rendered _count = %d (present %v), want %d", got, ok, n)
			}
			inf, ok := series(`khist_exact_us_bucket{le="+Inf"}`)
			if n == 0 {
				if ok {
					t.Errorf("empty recorder renders a +Inf bucket of %d", inf)
				}
			} else if !ok || inf != n {
				t.Errorf(`rendered _us_bucket{le="+Inf"} = %d (present %v), want %d`, inf, ok, n)
			}
			if t.Failed() {
				t.Logf("n=%d p50=%d p90=%d p99=%d cum=%v", n, snap.P50US, snap.P90US, snap.P99US, snap.CumLE)
			}
		})
	}
}

// BenchmarkRecorderObserve prices one observation under contention from
// every P, on a learned and a plain recorder.
func BenchmarkRecorderObserve(b *testing.B) {
	for _, learned := range []bool{false, true} {
		b.Run("learned="+strconv.FormatBool(learned), func(b *testing.B) {
			rec := NewRecorder("khist_bench_latency", "bench", learned)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				var i int64
				for pb.Next() {
					rec.Observe(time.Duration(i%2000) * time.Microsecond)
					i++
				}
			})
		})
	}
}
