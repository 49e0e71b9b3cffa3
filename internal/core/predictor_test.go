package core

import (
	"math"
	"strings"
	"testing"

	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// predictorPlacements builds a spread of placements of different sizes and
// socket mixes on the toy machine, exercising the scratch re-binding.
func predictorPlacements() []placement.Placement {
	return []placement.Placement{
		{{Socket: 0, Core: 0, Slot: 0}},
		{{Socket: 0, Core: 0, Slot: 0}, {Socket: 0, Core: 0, Slot: 1}},
		workedExamplePlacement(),
		{{Socket: 0, Core: 0, Slot: 0}, {Socket: 1, Core: 0, Slot: 0}},
		{{Socket: 1, Core: 0, Slot: 0}, {Socket: 1, Core: 0, Slot: 1}, {Socket: 0, Core: 0, Slot: 0}},
	}
}

// TestPredictorMatchesPredict pins the refactoring's central claim: a reused
// Predictor returns bit-identical results to the one-shot Predict across a
// sequence of different placements.
func TestPredictorMatchesPredict(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	p, err := NewPredictor(md, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, place := range predictorPlacements() {
		want, err := Predict(md, w, place, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Predict(place)
		if err != nil {
			t.Fatal(err)
		}
		if got.Time != want.Time || got.Speedup != want.Speedup {
			t.Errorf("%v: Predictor.Predict = (%v, %v), one-shot = (%v, %v)",
				place, got.Time, got.Speedup, want.Time, want.Speedup)
		}
		for i := range want.Slowdowns {
			if got.Slowdowns[i] != want.Slowdowns[i] || got.Utilizations[i] != want.Utilizations[i] {
				t.Errorf("%v thread %d: detail vectors diverge", place, i)
			}
		}
		if len(got.Loads) != len(want.Loads) {
			t.Errorf("%v: load map sizes diverge: %d vs %d", place, len(got.Loads), len(want.Loads))
		}
		tp, err := p.PredictTime(place)
		if err != nil {
			t.Fatal(err)
		}
		if tp.Time != want.Time || tp.Speedup != want.Speedup ||
			tp.Iterations != want.Iterations || tp.Converged != want.Converged {
			t.Errorf("%v: PredictTime = %+v, want (%v, %v, %d, %v)",
				place, tp, want.Time, want.Speedup, want.Iterations, want.Converged)
		}
	}
}

// TestPredictorValidationErrors pins the error parity of the bitset-based
// placement validation against placement.Validate plus the engine's
// cross-workload check.
func TestPredictorValidationErrors(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	p, err := NewPredictor(md, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		place placement.Placement
		want  string
	}{
		{"empty", placement.Placement{}, "placement: empty"},
		{"off-machine", placement.Placement{{Socket: 5, Core: 0, Slot: 0}},
			"placement: context s5/c0/t0 not on machine " + md.Topo.Name},
		{"duplicate", placement.Placement{{Socket: 0, Core: 0, Slot: 0}, {Socket: 0, Core: 0, Slot: 0}},
			"placement: context s0/c0/t0 used twice"},
	}
	for _, tc := range cases {
		if _, err := p.Predict(tc.place); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Predict error = %v, want %q", tc.name, err, tc.want)
		}
		if _, err := p.PredictTime(tc.place); err == nil || err.Error() != tc.want {
			t.Errorf("%s: PredictTime error = %v, want %q", tc.name, err, tc.want)
		}
		// One-shot parity.
		if _, err := Predict(md, w, tc.place, Options{}); err == nil || err.Error() != tc.want {
			t.Errorf("%s: one-shot error = %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := NewPredictor(md, nil, Options{}); err == nil || err.Error() != "core: nil workload" {
		t.Errorf("nil workload: error = %v", err)
	}
}

// TestPredictorAfterError checks that a failed bind does not poison the
// predictor: the next valid placement still predicts correctly.
func TestPredictorAfterError(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	p, err := NewPredictor(md, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Predict(md, w, workedExamplePlacement(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(placement.Placement{{Socket: 9, Core: 9, Slot: 9}}); err == nil {
		t.Fatal("expected error for off-machine placement")
	}
	got, err := p.Predict(workedExamplePlacement())
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != want.Time || got.Speedup != want.Speedup {
		t.Errorf("after error: (%v, %v), want (%v, %v)", got.Time, got.Speedup, want.Time, want.Speedup)
	}
}

// TestPredictTimeZeroAllocs pins the fast path at zero heap allocations per
// prediction — the tentpole acceptance criterion — on the toy machine and
// on a full 80-thread X2-4, where the per-socket bottleneck pass and the
// pair table do the most work. The engine scratch is warmed by one call;
// every subsequent call must reuse it entirely. A disabled tracer is wired
// in deliberately: the observability layer must compile down to a branch
// (and the always-on metric counters to atomics) without touching the heap.
func TestPredictTimeZeroAllocs(t *testing.T) {
	prev := SetInvariantChecks(false)
	defer SetInvariantChecks(prev)
	x24 := x24Machine()
	spread, err := placement.Spread(x24.Topo, x24.Topo.TotalContexts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		md    *machine.Description
		w     *Workload
		place placement.Placement
	}{
		{toyMachine(), exampleWorkload(), workedExamplePlacement()},
		{x24, quickWorkload(90, 120, 160, 200, 220, 140, 100), spread},
	} {
		tracer := obs.NewRingTracer(16, nil)
		tracer.SetEnabled(false)
		p, err := NewPredictor(tc.md, tc.w, Options{Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.PredictTime(tc.place); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := p.PredictTime(tc.place); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: PredictTime allocates %v per op; want 0", tc.md.Topo.Name, allocs)
		}
		if got := len(tracer.Events()); got != 0 {
			t.Fatalf("%s: disabled tracer recorded %d events", tc.md.Topo.Name, got)
		}
	}
}

// TestCoSolveZeroAllocsX24 pins a warm CoPredictor engine re-solving a
// 3-job X2-4 mix at zero allocations. CoPredictor.Predict adds only the
// caller-visible CoPrediction on top of this solve, so the case measures
// the solve itself: bind plus iterate.
func TestCoSolveZeroAllocsX24(t *testing.T) {
	prev := SetInvariantChecks(false)
	defer SetInvariantChecks(prev)
	md := x24Machine()
	place, err := placement.Spread(md.Topo, md.Topo.TotalContexts())
	if err != nil {
		t.Fatal(err)
	}
	mix := []PlacedWorkload{
		{Workload: quickWorkload(90, 120, 160, 200, 220, 140, 100), Placement: place[:30]},
		{Workload: quickWorkload(40, 250, 30, 90, 180, 200, 20), Placement: place[30:60]},
		{Workload: quickWorkload(200, 60, 220, 250, 90, 30, 240), Placement: place[60:]},
	}
	cp, err := NewCoPredictor(md, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Predict(mix); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := cp.e.bind(mix, false); err != nil {
			t.Fatal(err)
		}
		cp.e.iterate(cp.opt)
	}); allocs != 0 {
		t.Fatalf("X2-4 warm 3-job solve allocates %v per op; want 0", allocs)
	}
}

// TestPredictAllocBudget bounds the full-detail path: after warm-up it may
// allocate only the caller-visible result (the Prediction, its seven detail
// vectors, and the load map) — not engine state.
func TestPredictAllocBudget(t *testing.T) {
	prev := SetInvariantChecks(false)
	defer SetInvariantChecks(prev)
	p, err := NewPredictor(toyMachine(), exampleWorkload(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	place := workedExamplePlacement()
	if _, err := p.Predict(place); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Predict(place); err != nil {
			t.Fatal(err)
		}
	})
	// The worked example touches ~10 resources: prediction struct + 7
	// vectors + map headers and buckets comfortably fit in 30 allocations.
	if allocs > 30 {
		t.Fatalf("Predict allocates %v per op; budget is 30", allocs)
	}
}

// TestPredictSweepMatchesSequential forces the parallel path (the machine
// running the tests may have one CPU) and requires bit-identical results to
// sequential one-shot predictions, in order.
func TestPredictSweepMatchesSequential(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	var places []placement.Placement
	for _, s := range placement.Enumerate(md.Topo) {
		places = append(places, s.Expand(md.Topo))
	}
	if len(places) < 8 {
		t.Fatalf("toy machine enumerates only %d shapes", len(places))
	}
	got, err := predictSweepN(md, w, places, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(places) {
		t.Fatalf("got %d results for %d placements", len(got), len(places))
	}
	for i, place := range places {
		want, err := Predict(md, w, place, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Time != want.Time || got[i].Speedup != want.Speedup {
			t.Errorf("placement %d %v: sweep = (%v, %v), want (%v, %v)",
				i, place, got[i].Time, got[i].Speedup, want.Time, want.Speedup)
		}
	}
	// The exported entry point must agree regardless of worker count.
	one, err := predictSweepN(md, w, places, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if one[i] != got[i] {
			t.Fatalf("worker counts disagree at %d: %+v vs %+v", i, one[i], got[i])
		}
	}
}

// TestPredictSweepError checks the first-error bailout of the parallel
// sweep: an invalid placement mid-list fails the whole sweep with its error.
func TestPredictSweepError(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	places := make([]placement.Placement, 64)
	for i := range places {
		places[i] = workedExamplePlacement()
	}
	places[37] = placement.Placement{{Socket: 7, Core: 0, Slot: 0}}
	if _, err := predictSweepN(md, w, places, Options{}, 4); err == nil {
		t.Fatal("expected an error from the invalid placement")
	} else if want := "placement: context s7/c0/t0 not on machine " + md.Topo.Name; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	if _, err := PredictSweep(md, w, nil, Options{}); err != nil {
		t.Errorf("empty sweep: %v", err)
	}
}

// TestPredictorDegraded mirrors the degraded-mode golden path through the
// reusable predictor: construction-time repairs surface on every
// prediction, and the fast path agrees with the full path.
func TestPredictorDegraded(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	w.Name = "golden"
	w.ParallelFrac = math.NaN()
	p, err := NewPredictor(md, w, Options{AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	place := workedExamplePlacement()
	for round := 0; round < 2; round++ {
		pred, err := p.Predict(place)
		if err != nil {
			t.Fatal(err)
		}
		if !pred.Degraded || len(pred.DegradedReasons) == 0 {
			t.Fatalf("round %d: expected a degraded prediction, got %+v", round, pred)
		}
		want := `workload "golden": parallel fraction NaN unusable; assuming serial (0)`
		if pred.DegradedReasons[0] != want {
			t.Errorf("round %d: reason[0] = %q, want %q", round, pred.DegradedReasons[0], want)
		}
		tp, err := p.PredictTime(place)
		if err != nil {
			t.Fatal(err)
		}
		if !tp.Degraded || tp.Time != pred.Time {
			t.Errorf("round %d: fast path = %+v, full path time %v", round, tp, pred.Time)
		}
	}
	// Caller's workload must not have been repaired in place.
	if !math.IsNaN(w.ParallelFrac) {
		t.Error("NewPredictor mutated the caller's workload")
	}
}

// TestPredictTimeWithInvariantChecks verifies the fast path routes through
// the checked full path when runtime invariant checks are on.
func TestPredictTimeWithInvariantChecks(t *testing.T) {
	prev := SetInvariantChecks(true)
	defer SetInvariantChecks(prev)
	p, err := NewPredictor(toyMachine(), exampleWorkload(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Predict(workedExamplePlacement())
	if err != nil {
		t.Fatal(err)
	}
	tp, err := p.PredictTime(workedExamplePlacement())
	if err != nil {
		t.Fatal(err)
	}
	if tp.Time != want.Time || tp.Speedup != want.Speedup {
		t.Errorf("checked fast path = %+v, want (%v, %v)", tp, want.Time, want.Speedup)
	}
}

// TestCoPredictorMatchesPredictCoSchedule pins the reusable joint pipeline
// against the one-shot function across repeated, different co-schedules.
func TestCoPredictorMatchesPredictCoSchedule(t *testing.T) {
	md := toyMachine()
	w1 := exampleWorkload()
	w2 := exampleWorkload()
	w2.Name = "second"
	cp, err := NewCoPredictor(md, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mixes := [][]PlacedWorkload{
		{
			{Workload: w1, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
			{Workload: w2, Placement: placement.Placement{{Socket: 1, Core: 0, Slot: 0}}},
		},
		{
			{Workload: w1, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}, {Socket: 0, Core: 0, Slot: 1}}},
		},
		{
			{Workload: w1, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
			{Workload: w2, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 1}, {Socket: 1, Core: 0, Slot: 0}}},
		},
	}
	for round, mix := range mixes {
		want, err := PredictCoSchedule(md, mix, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cp.Predict(mix)
		if err != nil {
			t.Fatal(err)
		}
		if got.WorstOversubscription != want.WorstOversubscription || got.WorstResource != want.WorstResource {
			t.Errorf("mix %d: worst (%v on %v), want (%v on %v)", round,
				got.WorstOversubscription, got.WorstResource, want.WorstOversubscription, want.WorstResource)
		}
		for i := range want.Predictions {
			if got.Predictions[i].Time != want.Predictions[i].Time {
				t.Errorf("mix %d job %d: time %v, want %v", round, i,
					got.Predictions[i].Time, want.Predictions[i].Time)
			}
		}
	}
	// Overlapping placements still fail with the historical error.
	overlap := []PlacedWorkload{
		{Workload: w1, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
		{Workload: w2, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
	}
	if _, err := cp.Predict(overlap); err == nil ||
		err.Error() != "core: context s0/c0/t0 claimed by two workloads" {
		t.Errorf("overlap error = %v", err)
	}
}

// TestEngineBitsetOccupancy exercises the bitset word boundaries: contexts
// with dense indices around 63/64 must not collide.
func TestEngineBitsetOccupancy(t *testing.T) {
	md := toyMachine()
	// The toy machine has 4 contexts; widen via a bigger topology to cross a
	// word boundary.
	big := *md
	big.Topo = topology.Machine{Name: "wide", Sockets: 2, CoresPerSocket: 18, ThreadsPerCore: 2}
	w := exampleWorkload()
	p, err := NewPredictor(&big, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	place := placement.Placement{
		big.Topo.ContextAt(63), big.Topo.ContextAt(64), big.Topo.ContextAt(65),
	}
	if _, err := p.Predict(place); err != nil {
		t.Fatal(err)
	}
	dup := placement.Placement{big.Topo.ContextAt(64), big.Topo.ContextAt(64)}
	if _, err := p.Predict(dup); err == nil {
		t.Fatal("expected duplicate-context error across word boundary")
	} else if !strings.Contains(err.Error(), "used twice") {
		t.Fatalf("duplicate error = %v", err)
	}
}
