package scheduler

import (
	"testing"

	"pandia/internal/analysis/leaktest"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

func pandiaCtx(s0, c, t0 int) topology.Context {
	return topology.Context{Socket: s0, Core: c, Slot: t0}
}

// TestRebalanceRecoversFromBadPlacement degrades a compute job's placement
// by hand (packing it two-per-core) and checks the advisor proposes moving
// it back out, with a believable gain estimate.
//
// Note the scenario construction: with a competent Submit, profitable
// moves after job departures are rare in this model, because placement
// quality depends only on the canonical shape and departures free up
// sibling contexts in place. The advisor earns its keep when a job was
// admitted into a forced bad shape under crowding.
func TestRebalanceRecoversFromBadPlacement(t *testing.T) {
	defer leaktest.Check(t)()
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	j := computeJob("c1") // burstiness makes core sharing costly
	j.Threads = 8
	a, err := s.Submit(j)
	if err != nil {
		t.Fatal(err)
	}
	// Degrade: pack the 8 threads onto 4 cores of socket 0.
	var packed placement.Placement
	for core := 0; core < 4; core++ {
		for slot := 0; slot < 2; slot++ {
			packed = append(packed, pandiaCtx(0, core, slot))
		}
	}
	if err := s.ApplyMove(Move{JobID: "c1", From: a.Placement, To: packed}); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Rebalance(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) == 0 {
		t.Fatal("advisor found no way out of a packed compute placement")
	}
	m := rep.Moves[0]
	if m.JobID != "c1" || m.Gain <= 0.02 {
		t.Fatalf("best move = %+v", m)
	}
	if placement.ShapeOf(s.Machine(), m.To).Cores() <= 4 {
		t.Fatalf("advised shape still packed: %v", m.To)
	}
	if err := s.ApplyMove(m); err != nil {
		t.Fatal(err)
	}
	if !samePlacement(s.Assignments()[0].Placement, m.To) {
		t.Fatal("move not applied")
	}
	if got := len(s.FreeContexts()); got != s.Machine().TotalContexts()-8 {
		t.Fatalf("free contexts = %d after move", got)
	}
	// Re-applying stale advice must fail.
	if err := s.ApplyMove(m); err == nil {
		t.Fatal("stale move accepted")
	}
	// Advice on the recovered state should find nothing substantial.
	again, err := s.Rebalance(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Moves) != 0 {
		t.Fatalf("advisor still unhappy after recovery: %+v", again.Moves)
	}
}

// TestRebalanceReport pins the visibility satellite: every advised move
// must carry per-job before/after predicted times for the whole mix, the
// report must name the jobs and their base times, and the metrics registry
// must record the run.
func TestRebalanceReport(t *testing.T) {
	defer leaktest.Check(t)()
	base := obs.Default().Snapshot()
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	j := computeJob("c1")
	j.Threads = 8
	a, err := s.Submit(j)
	if err != nil {
		t.Fatal(err)
	}
	var packed placement.Placement
	for core := 0; core < 4; core++ {
		for slot := 0; slot < 2; slot++ {
			packed = append(packed, pandiaCtx(0, core, slot))
		}
	}
	if err := s.ApplyMove(Move{JobID: "c1", From: a.Placement, To: packed}); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Rebalance(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || len(rep.Moves) == 0 {
		t.Fatal("no report for a recoverable bad placement")
	}
	if len(rep.JobIDs) != 1 || rep.JobIDs[0] != "c1" || len(rep.BaseTimes) != 1 {
		t.Fatalf("report jobs = %v, times = %v", rep.JobIDs, rep.BaseTimes)
	}
	if rep.BaseScore <= 0 || rep.BaseTimes[0] <= 0 {
		t.Fatalf("degenerate base: %+v", rep)
	}
	for _, m := range rep.Moves {
		if len(m.Deltas) != len(rep.JobIDs) {
			t.Fatalf("move %+v: %d deltas for %d jobs", m, len(m.Deltas), len(rep.JobIDs))
		}
		for k, d := range m.Deltas {
			if d.JobID != rep.JobIDs[k] {
				t.Errorf("delta %d names %q, want %q", k, d.JobID, rep.JobIDs[k])
			}
			if d.Before != rep.BaseTimes[k] {
				t.Errorf("delta %d before = %g, base time = %g", k, d.Before, rep.BaseTimes[k])
			}
			if d.After <= 0 {
				t.Errorf("delta %d after = %g", k, d.After)
			}
		}
	}
	// The single-job mix improves: the best move must predict a faster time
	// for the moved job, consistent with its positive gain.
	best := rep.Moves[0]
	if best.Deltas[0].After >= best.Deltas[0].Before {
		t.Errorf("best move gains %.3f but time goes %g -> %g",
			best.Gain, best.Deltas[0].Before, best.Deltas[0].After)
	}

	snap := obs.Default().Snapshot()
	if d := snap.Counter("scheduler.rebalance.runs") - base.Counter("scheduler.rebalance.runs"); d != 1 {
		t.Errorf("rebalance.runs grew by %d, want 1", d)
	}
	if d := snap.Counter("scheduler.rebalance.moves_advised") - base.Counter("scheduler.rebalance.moves_advised"); d != int64(len(rep.Moves)) {
		t.Errorf("moves_advised grew by %d, want %d", d, len(rep.Moves))
	}
	if d := snap.Counter("scheduler.submissions") - base.Counter("scheduler.submissions"); d != 1 {
		t.Errorf("submissions grew by %d, want 1", d)
	}
}

func TestRebalanceEmpty(t *testing.T) {
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Rebalance(0.01)
	if err != nil || rep != nil {
		t.Fatalf("empty scheduler report = %+v, %v", rep, err)
	}
}

func TestApplyMoveValidation(t *testing.T) {
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyMove(Move{JobID: "ghost"}); err == nil {
		t.Error("move for unknown job accepted")
	}
	j := computeJob("a")
	j.Threads = 2
	a, err := s.Submit(j)
	if err != nil {
		t.Fatal(err)
	}
	// A move onto occupied foreign contexts must fail.
	j2 := computeJob("b")
	j2.Threads = 2
	b, err := s.Submit(j2)
	if err != nil {
		t.Fatal(err)
	}
	bad := Move{JobID: "a", From: a.Placement, To: b.Placement}
	if err := s.ApplyMove(bad); err == nil {
		t.Error("move onto another job's contexts accepted")
	}
}

func TestSamePlacement(t *testing.T) {
	a := placement.Placement{{Socket: 0, Core: 1, Slot: 0}, {Socket: 1, Core: 0, Slot: 1}}
	b := placement.Placement{{Socket: 1, Core: 0, Slot: 1}, {Socket: 0, Core: 1, Slot: 0}}
	if !samePlacement(a, b) {
		t.Error("order-insensitive equality failed")
	}
	c := placement.Placement{{Socket: 0, Core: 1, Slot: 0}}
	if samePlacement(a, c) {
		t.Error("different sizes compared equal")
	}
}

// TestRebalanceAdvisesEachMoveOnce parks a job packed on socket 1 of an
// otherwise empty machine, where the pack and quiet-socket generators both
// propose the same packed placement on socket 0. With minGain -1 every
// scored candidate is advised, so a repeated candidate would show up as a
// second move with the same job and target.
func TestRebalanceAdvisesEachMoveOnce(t *testing.T) {
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	j := computeJob("c1")
	j.Threads = 8
	a, err := s.Submit(j)
	if err != nil {
		t.Fatal(err)
	}
	var packed placement.Placement
	for core := 0; core < 4; core++ {
		for slot := 0; slot < 2; slot++ {
			packed = append(packed, pandiaCtx(1, core, slot))
		}
	}
	if err := s.ApplyMove(Move{JobID: "c1", From: a.Placement, To: packed}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Rebalance(-1)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || len(rep.Moves) == 0 {
		t.Fatal("no moves advised at minGain -1")
	}
	seen := map[string]string{}
	for _, m := range rep.Moves {
		key := m.JobID + " " + m.To.String()
		if prev, dup := seen[key]; dup {
			t.Errorf("job %s advised twice onto %v (%s, then %s)", m.JobID, m.To, prev, m.Strategy)
		}
		seen[key] = m.Strategy
	}
}
