package pandia

import (
	"sort"
	"sync"
	"testing"

	"pandia/internal/placement"
)

func TestModels(t *testing.T) {
	ms := Models()
	want := map[string]bool{"x5-2": true, "x4-2": true, "x3-2": true, "x2-4": true, "toy": true}
	if len(ms) != len(want) {
		t.Fatalf("Models() = %v", ms)
	}
	for _, m := range ms {
		if !want[m] {
			t.Errorf("unexpected model %q", m)
		}
	}
}

func TestBenchmarksSurface(t *testing.T) {
	if got := len(Benchmarks()); got != 22 {
		t.Errorf("Benchmarks() = %d entries, want 22", got)
	}
	if got := len(AllBenchmarks()); got != 24 {
		t.Errorf("AllBenchmarks() = %d entries, want 24", got)
	}
	if _, err := BenchmarkByName("MD"); err != nil {
		t.Errorf("BenchmarkByName(MD): %v", err)
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestNewSystemUnknown(t *testing.T) {
	if _, err := NewSystem("pdp-11"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestEndToEndOnSmallMachine(t *testing.T) {
	sys, err := NewSystem("x3-2")
	if err != nil {
		t.Fatal(err)
	}
	if sys.Machine().TotalContexts() != 32 {
		t.Fatalf("machine = %v", sys.Machine())
	}
	if sys.Description() == nil || sys.Testbed() == nil {
		t.Fatal("missing description or testbed")
	}

	b, err := BenchmarkByName("MD")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sys.Profile(b.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Workload.T1 <= 0 {
		t.Fatal("profile produced no T1")
	}

	// Predict a specific placement and the same shape; they must agree.
	shape, err := ParseShape("4x1/4x1")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := sys.PredictShape(&prof.Workload, shape, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sys.Predict(&prof.Workload, shape.Expand(sys.Machine()), PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Speedup != p2.Speedup {
		t.Errorf("shape and placement predictions differ: %g vs %g", p1.Speedup, p2.Speedup)
	}
	if p1.Speedup <= 1 || p1.Speedup > p1.AmdahlSpeedup {
		t.Errorf("8-thread speedup = %g (amdahl %g)", p1.Speedup, p1.AmdahlSpeedup)
	}

	// Measuring the same placement on the testbed lands near the
	// prediction for this well-behaved workload.
	meas, err := sys.Measure(b.Truth, shape.Expand(sys.Machine()))
	if err != nil {
		t.Fatal(err)
	}
	rel := (p1.Time - meas) / meas
	if rel < -0.2 || rel > 0.2 {
		t.Errorf("prediction %.2f vs measurement %.2f (%.0f%% off)", p1.Time, meas, rel*100)
	}
}

func TestRecommend(t *testing.T) {
	sys, err := NewSystem("x3-2")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BenchmarkByName("Swim") // bandwidth-bound: should not want the whole machine
	prof, err := sys.Profile(b.Truth)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sys.Recommend(&prof.Workload, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if rec.BestPrediction == nil || rec.MinimalPrediction == nil {
		t.Fatal("recommendation incomplete")
	}
	if rec.Minimal.Threads() > rec.Best.Threads() {
		t.Errorf("minimal placement (%v) larger than best (%v)", rec.Minimal, rec.Best)
	}
	if rec.MinimalPrediction.Speedup < 0.9*rec.BestPrediction.Speedup-1e-9 {
		t.Errorf("minimal placement misses the target: %g vs %g",
			rec.MinimalPrediction.Speedup, rec.BestPrediction.Speedup)
	}
	// A DRAM-saturating workload on the X3-2 needs well under the full
	// machine to reach 90% of its best (the paper's resource-saving case).
	if rec.Minimal.Threads() > 24 {
		t.Errorf("minimal placement uses %d threads; expected well under the full 32", rec.Minimal.Threads())
	}
	if _, err := sys.Recommend(&prof.Workload, 1.5); err == nil {
		t.Error("target fraction above 1 accepted")
	}
}

func TestShapesSampled(t *testing.T) {
	sys, err := NewSystem("toy")
	if err != nil {
		t.Fatal(err)
	}
	all := sys.Shapes(0)
	if len(all) != 20 {
		t.Errorf("toy shapes = %d, want 20", len(all))
	}
	few := sys.Shapes(5)
	if len(few) >= len(all) {
		t.Errorf("sampling did not reduce: %d", len(few))
	}
}

func TestFormatParseShapeFacade(t *testing.T) {
	s, err := ParseShape("2x2/1x1")
	if err != nil {
		t.Fatal(err)
	}
	if FormatShape(s) != "2x2/1x1" {
		t.Errorf("FormatShape = %q", FormatShape(s))
	}
}

// profiled builds a system and profiles one zoo workload on it.
func profiled(t *testing.T, model, name string) (*System, *WorkloadDescription) {
	t.Helper()
	sys, err := NewSystem(model)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BenchmarkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sys.Profile(b.Truth)
	if err != nil {
		t.Fatal(err)
	}
	return sys, &prof.Workload
}

// recommendKey summarises the selection of a recommendation.
func recommendKey(rec *Recommendation) [2]string {
	return [2]string{FormatShape(rec.Best), FormatShape(rec.Minimal)}
}

// TestShapesDoesNotAliasRecommend reorders the slice Shapes hands out and
// checks a later Recommend still selects the same placements. On the X3-2
// the space is below the sample cap, so the memo holds the enumeration
// itself; on the X5-2 it holds a sample.
func TestShapesDoesNotAliasRecommend(t *testing.T) {
	for _, model := range []string{"x3-2", "x5-2"} {
		sys, w := profiled(t, model, "CG")
		before, err := sys.Recommend(w, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		shapes := sys.Shapes(4000)
		for i, j := 0, len(shapes)-1; i < j; i, j = i+1, j-1 {
			shapes[i], shapes[j] = shapes[j], shapes[i]
		}
		sort.Slice(shapes, func(i, j int) bool { return shapes[i].Key() > shapes[j].Key() })
		sys.InvalidatePredictions()
		after, err := sys.Recommend(w, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if recommendKey(after) != recommendKey(before) ||
			after.BestPrediction.Speedup != before.BestPrediction.Speedup {
			t.Errorf("%s: Recommend changed after reordering Shapes: %v -> %v",
				model, recommendKey(before), recommendKey(after))
		}
	}
}

func TestRecommendConcurrent(t *testing.T) {
	sys, w := profiled(t, "x3-2", "MD")
	const workers = 4
	recs := make([]*Recommendation, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i], errs[i] = sys.Recommend(w, 0.9)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if recommendKey(recs[i]) != recommendKey(recs[0]) {
			t.Errorf("worker %d chose %v, worker 0 %v", i, recommendKey(recs[i]), recommendKey(recs[0]))
		}
	}
}

// TestEnumerateSampledMatchesFresh checks the memoised space element by
// element against a fresh enumeration, sample and expansion, and that every
// memoised placement is carved with cap == len.
func TestEnumerateSampledMatchesFresh(t *testing.T) {
	for _, model := range []string{"x3-2", "x5-2"} {
		sys, err := NewSystem(model)
		if err != nil {
			t.Fatal(err)
		}
		m := sys.Machine()
		shapes, places := placement.EnumerateSampled(m, recommendShapes, shapeSeed)
		want := placement.Sample(placement.Enumerate(m), recommendShapes, shapeSeed)
		if len(shapes) != len(want) || len(places) != len(want) {
			t.Fatalf("%s: memo has %d shapes, %d places; fresh sample %d",
				model, len(shapes), len(places), len(want))
		}
		for i, s := range want {
			if shapes[i].Key() != s.Key() {
				t.Fatalf("%s: shape %d = %v, want %v", model, i, shapes[i], s)
			}
			p, fresh := places[i], s.Expand(m)
			if cap(p) != len(p) {
				t.Fatalf("%s: places[%d] cap %d != len %d", model, i, cap(p), len(p))
			}
			if len(p) != len(fresh) {
				t.Fatalf("%s: places[%d] = %v, want %v", model, i, p, fresh)
			}
			for j := range p {
				if p[j] != fresh[j] {
					t.Fatalf("%s: places[%d] = %v, want %v", model, i, p, fresh)
				}
			}
		}
	}
}
