package scheduler

import (
	"bytes"
	"cmp"
	"encoding/json"
	"slices"
	"testing"

	"pandia/internal/analysis/leaktest"
	"pandia/internal/core"
	"pandia/internal/machine"
	"pandia/internal/placement"
)

// TestPredictionCacheDecisionInvariant pins the shared prediction cache as
// a pure acceleration. Every number a Rebalance report carries (BaseTimes,
// BaseScore, each move's Deltas and Gain) must equal, bit for bit, what
// cold core.PredictCoSchedule solves of the same mixes give, and the moves
// must be exactly the ones the reference advises. Reports are checked on a
// fresh mix, on a repeat served from the cache, and after a drain has
// filled the cache with its migration search. Submit and drain placements
// are pinned by TestScorerMatchesBruteForce.
func TestPredictionCacheDecisionInvariant(t *testing.T) {
	defer leaktest.Check(t)()
	md := testMD(t)
	s, err := New(md, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := s.Submit(func() Job { j := computeJob("c1"); j.Threads = 8; return j }())
	if err != nil {
		t.Fatal(err)
	}
	// Degrade c1 by hand into a packed two-per-core shape while the machine
	// is otherwise empty, so the advisor has a real move to find.
	var packed placement.Placement
	for core := 0; core < 4; core++ {
		for slot := 0; slot < 2; slot++ {
			packed = append(packed, pandiaCtx(0, core, slot))
		}
	}
	if err := s.ApplyMove(Move{JobID: "c1", From: a1.Placement, To: packed}); err != nil {
		t.Fatal(err)
	}
	for _, job := range []Job{
		func() Job { j := memoryJob("m1"); j.Threads = 6; return j }(),
		func() Job { j := computeJob("c2"); j.Threads = 4; return j }(),
	} {
		if _, err := s.Submit(job); err != nil {
			t.Fatal(err)
		}
	}

	if n := checkRebalance(t, s, md, 0.02); n == 0 {
		t.Fatal("rebalance advised no move; nothing was checked")
	}
	// A gain floor of -1 makes every distinct candidate advice, so every
	// cached candidate prediction is checked. Rebalance scores without
	// pruning, so the first pass cached all of them.
	misses := s.PredictionCacheStats().Misses
	if n := checkRebalance(t, s, md, -1); n < 2 {
		t.Fatalf("rebalance with no gain floor advised %d moves", n)
	}
	if got := s.PredictionCacheStats().Misses; got != misses {
		t.Fatalf("repeated rebalance missed the cache %d times", got-misses)
	}
	drep, err := s.DrainSocket(0, DrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(drep.Migrated) == 0 {
		t.Fatalf("drain migrated nothing: %+v", drep)
	}
	checkRebalance(t, s, md, -1)
}

// checkRebalance runs s.Rebalance(minGain) and compares the report with a
// reference built from cold joint solves: the base mix, then every
// distinct candidate of every job in its slot, advised when its gain
// reaches minGain, stably sorted by decreasing gain. It returns the number
// of moves checked.
func checkRebalance(t *testing.T, s *Scheduler, md *machine.Description, minGain float64) int {
	t.Helper()
	rep, err := s.Rebalance(minGain)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	ids, mix := s.mixLocked(0)
	ids, mix = slices.Clone(ids), slices.Clone(mix)
	cands := make([][]candidate, len(ids))
	for i, id := range ids {
		cands[i] = s.generatedLocked(id, len(mix[i].Placement))
	}
	s.mu.Unlock()

	cold := func(mix []core.PlacedWorkload) *core.CoPrediction {
		co, err := core.PredictCoSchedule(md, mix, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return co
	}
	base := cold(mix)
	want := &RebalanceReport{JobIDs: ids, BaseTimes: make([]float64, len(ids)), BaseScore: aggregateThroughput(base)}
	for i := range ids {
		want.BaseTimes[i] = base.Predictions[i].Time
	}
	for i, id := range ids {
		for k, c := range cands[i] {
			if repeats(cands[i], k) {
				continue
			}
			moved := slices.Clone(mix)
			moved[i].Placement = c.place
			co := cold(moved)
			gain := aggregateThroughput(co)/want.BaseScore - 1
			if gain < minGain {
				continue
			}
			m := Move{JobID: id, From: mix[i].Placement, To: c.place, Strategy: c.strategy,
				Gain: gain, Deltas: make([]JobDelta, len(ids))}
			for j, jid := range ids {
				m.Deltas[j] = JobDelta{JobID: jid, Before: want.BaseTimes[j], After: co.Predictions[j].Time}
			}
			want.Moves = append(want.Moves, m)
		}
	}
	slices.SortStableFunc(want.Moves, func(a, b Move) int { return cmp.Compare(b.Gain, a.Gain) })

	// Shortest round-trip float formatting makes equal JSON bit-equal.
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("rebalance report differs from cold solves:\ngot:  %s\ncold: %s", got, ref)
	}
	return len(rep.Moves)
}

// TestInvalidatePredictions checks the scheduler's bulk invalidation hook
// drops the cache without changing subsequent decisions.
func TestInvalidatePredictions(t *testing.T) {
	defer leaktest.Check(t)()
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(func() Job { j := computeJob("c1"); j.Threads = 4; return j }()); err != nil {
		t.Fatal(err)
	}
	before, err := s.Predict()
	if err != nil {
		t.Fatal(err)
	}
	s.InvalidatePredictions()
	misses := s.PredictionCacheStats().Misses
	after, err := s.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PredictionCacheStats().Misses; got != misses+1 {
		t.Fatalf("post-invalidate Predict was not a miss: %d -> %d", misses, got)
	}
	bj, _ := json.Marshal(before)
	aj, _ := json.Marshal(after)
	if !bytes.Equal(bj, aj) {
		t.Fatal("prediction changed across InvalidatePredictions")
	}
}
