package obs

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-7) // negative deltas are dropped
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if got := g.Value(); got != 0 {
		t.Fatalf("zero Gauge = %g, want 0", got)
	}
	g.Set(3.25)
	g.Set(-1.5)
	if got := g.Value(); got != -1.5 {
		t.Fatalf("Value() = %g, want -1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h, err := NewHistogram([]float64{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.5, 1, 2, 10, 11, 1000} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	if got := h.Count(); got != 6 {
		t.Fatalf("Count() = %d, want 6", got)
	}
	if got, want := h.Sum(), 0.5+1+2+10+11+1000; got != want {
		t.Fatalf("Sum() = %g, want %g", got, want)
	}
	wantCounts := []int64{2, 2, 1, 1} // <=1, <=10, <=100, overflow
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramBadBounds(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Fatal("empty bounds: want error")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Fatal("non-increasing bounds: want error")
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Fatal("decreasing bounds: want error")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.total")
	c2 := r.Counter("a.total")
	if c1 != c2 {
		t.Fatal("Counter lookups with one name returned different handles")
	}
	h1 := r.Histogram("a.hist", []float64{1, 2})
	h2 := r.Histogram("a.hist", []float64{99}) // bounds ignored on re-lookup
	if h1 != h2 {
		t.Fatal("Histogram lookups with one name returned different handles")
	}
	if len(h2.bounds) != 2 {
		t.Fatalf("re-lookup rebuilt bounds: %v", h2.bounds)
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(3)
	r.Counter("a.count").Inc()
	r.Gauge("m.gauge").Set(2.5)
	r.Histogram("h.iters", []float64{1, 2}).Observe(1.5)

	s := r.Snapshot()
	if got := []string{s.Counters[0].Name, s.Counters[1].Name}; !reflect.DeepEqual(got, []string{"a.count", "z.count"}) {
		t.Fatalf("counters not sorted: %v", got)
	}
	if s.Counter("z.count") != 3 || s.Counter("a.count") != 1 || s.Counter("missing") != 0 {
		t.Fatalf("counter values wrong: %+v", s.Counters)
	}
	hv := s.Histogram("h.iters")
	if hv == nil || hv.Count != 1 || hv.Sum != 1.5 {
		t.Fatalf("histogram snapshot wrong: %+v", hv)
	}
	if !reflect.DeepEqual(hv.Counts, []int64{0, 1, 0}) {
		t.Fatalf("histogram counts = %v, want [0 1 0]", hv.Counts)
	}
	if got := hv.Mean(); got != 1.5 {
		t.Fatalf("Mean() = %g, want 1.5", got)
	}
}

func TestSnapshotGaugeLookup(t *testing.T) {
	r := NewRegistry()
	r.Gauge("sched.load").Set(1.75)
	r.Gauge("sched.zero").Set(0)
	s := r.Snapshot()
	cases := []struct {
		name string
		want float64
	}{
		{"sched.load", 1.75},
		{"sched.zero", 0},
		{"missing", 0}, // absent reads as 0, same as Counter lookup
	}
	for _, c := range cases {
		if got := s.Gauge(c.name); got != c.want {
			t.Errorf("Gauge(%q) = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestSnapshotDeltaFrom(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a")
	b := r.Counter("b")
	a.Add(5)
	prev := r.Snapshot()
	a.Add(2)
	b.Add(3)
	r.Counter("fresh").Inc() // born after prev: counts from 0
	r.Gauge("g").Set(9)      // gauges never participate
	cur := r.Snapshot()

	cases := []struct {
		name string
		prev *Snapshot
		want map[string]int64
	}{
		{"window", prev, map[string]int64{"a": 2, "b": 3, "fresh": 1}},
		{"nil prev yields every nonzero counter", nil, map[string]int64{"a": 7, "b": 3, "fresh": 1}},
		{"self-delta is empty", cur, map[string]int64{}},
	}
	for _, c := range cases {
		if got := cur.DeltaFrom(c.prev); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: DeltaFrom = %v, want %v", c.name, got, c.want)
		}
	}
	if _, ok := cur.DeltaFrom(prev)["g"]; ok {
		t.Error("gauge leaked into DeltaFrom")
	}
}

func TestRegistryResetKeepsHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1})
	c.Inc()
	g.Set(7)
	h.Observe(0.5)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("Reset left values behind")
	}
	c.Inc() // the old handle must still feed the registry
	if r.Snapshot().Counter("x") != 1 {
		t.Fatal("handle detached from registry after Reset")
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines under
// -race: get-or-create races, counter/gauge/histogram updates, snapshots,
// and resets must all be safe.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h", []float64{10, 100}).Observe(float64(i % 150))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("h", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestDefaultRegistryIsStable(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() returned different registries")
	}
}
