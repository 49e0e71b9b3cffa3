package scheduler

import (
	"errors"
	"fmt"
	"testing"

	"pandia/internal/analysis/leaktest"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

func TestCordonExcludesFromPlacement(t *testing.T) {
	defer leaktest.Check(t)()
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	total := s.Machine().TotalContexts()

	n, err := s.CordonSocket(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != total/2 {
		t.Fatalf("cordoned %d contexts, want %d", n, total/2)
	}
	hc := s.HealthCounts()
	if hc.Cordoned != total/2 || hc.Healthy != total/2 || hc.Failed != 0 {
		t.Fatalf("health counts %+v", hc)
	}

	a, err := s.Submit(computeJob("a"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Placement {
		if c.Socket == 0 {
			t.Fatalf("job placed on cordoned socket: %v", a.Placement)
		}
	}

	// Re-cordoning is a no-op; uncordon restores service.
	if n, _ := s.CordonSocket(0); n != 0 {
		t.Fatalf("re-cordon changed %d contexts, want 0", n)
	}
	if n, _ := s.UncordonSocket(0); n != total/2 {
		t.Fatalf("uncordon changed %d contexts, want %d", n, total/2)
	}
	if hc := s.HealthCounts(); hc.Healthy != total {
		t.Fatalf("after uncordon: %+v", hc)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCordonValidation(t *testing.T) {
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cordon(topology.Context{Socket: 99}); err == nil {
		t.Fatal("cordon of off-machine context succeeded")
	}
	if _, err := s.CordonSocket(-1); err == nil {
		t.Fatal("cordon of negative socket succeeded")
	}
	if _, err := s.CordonSocket(s.Machine().Sockets); err == nil {
		t.Fatal("cordon of out-of-range socket succeeded")
	}
	// Health is indexed densely; an off-machine context must read as
	// Healthy rather than index out of range.
	for _, c := range []topology.Context{{Socket: 99}, {Core: -1}, {Slot: s.Machine().ThreadsPerCore}} {
		if h := s.Health(c); h != Healthy {
			t.Fatalf("Health(%v) = %s, want healthy", c, h)
		}
	}
}

func TestFailEvictsOccupants(t *testing.T) {
	defer leaktest.Check(t)()
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ja := computeJob("a")
	ja.Threads = 4
	a, err := s.Submit(ja)
	if err != nil {
		t.Fatal(err)
	}
	jb := memoryJob("b")
	jb.Threads = 4
	if _, err := s.Submit(jb); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Fail(a.Placement[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != a.Placement[0] {
		t.Fatalf("failed contexts %v", rep.Failed)
	}
	if len(rep.Evicted) != 1 || rep.Evicted[0].JobID != "a" {
		t.Fatalf("evicted %v, want job a", rep.Evicted)
	}
	if rep.Evicted[0].Reason != "context failed" {
		t.Fatalf("eviction reason %q", rep.Evicted[0].Reason)
	}
	if s.Health(a.Placement[0]) != Failed {
		t.Fatal("context not marked failed")
	}
	if got := len(s.Assignments()); got != 1 {
		t.Fatalf("%d jobs running, want 1 (b untouched)", got)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	// The evicted job can resubmit onto the surviving contexts.
	if _, err := s.Submit(ja); err != nil {
		t.Fatalf("resubmission failed: %v", err)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainMigratesOffSocket(t *testing.T) {
	defer leaktest.Check(t)()
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		job := computeJob(fmt.Sprintf("job-%d", i))
		job.Threads = 4
		if _, err := s.Submit(job); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := s.DrainSocket(0, DrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every affected job ends in exactly one of Migrated or Evicted, and
	// nothing remains on the drained socket.
	if len(rep.Migrated)+len(rep.Evicted) == 0 {
		t.Fatal("drain affected no jobs; expected spread placements on socket 0")
	}
	seen := map[string]int{}
	for _, m := range rep.Migrated {
		seen[m.JobID]++
	}
	for _, v := range rep.Evicted {
		seen[v.JobID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("job %s appears %d times across Migrated+Evicted", id, n)
		}
	}
	for _, a := range s.Assignments() {
		for _, c := range a.Placement {
			if c.Socket == 0 {
				t.Fatalf("job %s still on drained socket: %v", a.Job.ID, a.Placement)
			}
		}
	}
	if got := len(s.Assignments()) + len(rep.Evicted); got != 3 {
		t.Fatalf("running+evicted = %d, want 3 (no job may vanish)", got)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainRetriesThenMigrates(t *testing.T) {
	defer leaktest.Check(t)()
	admitted := false
	count := 0
	cfg := Config{PlacementCheck: func(placement.Placement) error {
		if !admitted {
			return nil
		}
		// Drain phase: the first two validation attempts fail transiently.
		count++
		if count <= 2 {
			return fmt.Errorf("transient %d", count)
		}
		return nil
	}}
	s, err := New(testMD(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := computeJob("a")
	job.Threads = 2
	if _, err := s.Submit(job); err != nil {
		t.Fatal(err)
	}
	admitted = true

	rep, err := s.DrainSocket(0, DrainOptions{MaxRetries: 4, BackoffUnit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrated) != 1 || rep.Migrated[0].Attempts != 3 {
		t.Fatalf("migrations %+v, want one with 3 attempts", rep.Migrated)
	}
	if rep.Retries != 2 {
		t.Fatalf("retries %d, want 2", rep.Retries)
	}
	// Virtual exponential backoff: 1 + 2.
	if rep.Cost != 3 {
		t.Fatalf("cost %g, want 3", rep.Cost)
	}
	if rep.DeadlineExceeded {
		t.Fatal("deadline flagged with no deadline set")
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainDeadlineEvicts(t *testing.T) {
	defer leaktest.Check(t)()
	admitted := false
	cfg := Config{PlacementCheck: func(placement.Placement) error {
		if !admitted {
			return nil
		}
		return fmt.Errorf("persistent failure")
	}}
	s, err := New(testMD(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		job := computeJob(fmt.Sprintf("job-%d", i))
		job.Threads = 2
		if _, err := s.Submit(job); err != nil {
			t.Fatal(err)
		}
	}
	admitted = true

	// Backoff charges 1, 2, 4, ... virtual seconds; deadline 4 is blown on
	// the third retry of the first affected job.
	rep, err := s.DrainSocket(0, DrainOptions{MaxRetries: 100, BackoffUnit: 1, Deadline: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DeadlineExceeded {
		t.Fatal("deadline not flagged")
	}
	if len(rep.Migrated) != 0 {
		t.Fatalf("migrated %v under a failing check", rep.Migrated)
	}
	// Every affected job was evicted — none left half-placed, none leaked.
	for _, v := range rep.Evicted {
		if v.Reason != "drain deadline exceeded" {
			t.Fatalf("eviction reason %q", v.Reason)
		}
	}
	for _, a := range s.Assignments() {
		for _, c := range a.Placement {
			if c.Socket == 0 {
				t.Fatalf("job %s still on drained socket", a.Job.ID)
			}
		}
	}
	if got := len(s.Assignments()) + len(rep.Evicted); got != 2 {
		t.Fatalf("running+evicted = %d, want 2", got)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainRetriesExhaustedEvicts(t *testing.T) {
	defer leaktest.Check(t)()
	admitted := false
	cfg := Config{PlacementCheck: func(placement.Placement) error {
		if !admitted {
			return nil
		}
		return fmt.Errorf("persistent failure")
	}}
	s, err := New(testMD(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := computeJob("a")
	job.Threads = 2
	if _, err := s.Submit(job); err != nil {
		t.Fatal(err)
	}
	admitted = true

	rep, err := s.DrainSocket(0, DrainOptions{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Evicted) != 1 || len(rep.Migrated) != 0 {
		t.Fatalf("report %+v, want one eviction", rep)
	}
	if rep.Retries != 2 {
		t.Fatalf("retries %d, want 2", rep.Retries)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionRateLimit(t *testing.T) {
	defer leaktest.Check(t)()
	clock := obs.NewManualClock(0, 0)
	s, err := New(testMD(t), Config{AdmissionRate: 1, AdmissionBurst: 1, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	ja := computeJob("a")
	ja.Threads = 2
	if _, err := s.Submit(ja); err != nil {
		t.Fatal(err)
	}
	jb := computeJob("b")
	jb.Threads = 2
	_, err = s.Submit(jb)
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Kind != AdmitRateLimited {
		t.Fatalf("err %v, want rate-limited AdmissionError", err)
	}
	// Refill at 1 token/s: after 1 virtual second the bucket admits again.
	clock.Advance(1)
	if _, err := s.Submit(jb); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

func TestAdmissionSLO(t *testing.T) {
	defer leaktest.Check(t)()
	s, err := New(testMD(t), Config{SlowdownSLO: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	// One 8-thread memory job slows itself ~3% (within a 10% SLO)...
	job := memoryJob("a")
	job.Threads = 8
	if _, err := s.Submit(job); err != nil {
		t.Fatal(err)
	}
	// ...but a second one pushes the joint slowdown past 25%.
	job2 := memoryJob("b")
	job2.Threads = 8
	_, err = s.Submit(job2)
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Kind != AdmitSLOExceeded {
		t.Fatalf("err %v, want SLO AdmissionError", err)
	}
}

func TestAdmitDegraded(t *testing.T) {
	defer leaktest.Check(t)()
	// An SLO this tight rejects even a lone memory hog's every candidate
	// (see TestAdmissionSLO's bounds); AdmitDegraded lets it in anyway.
	s, err := New(testMD(t), Config{SlowdownSLO: 1.01, AdmitDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	job := memoryJob("a")
	job.Threads = 8
	a, err := s.Submit(job)
	if err != nil {
		t.Fatalf("degraded admission rejected: %v", err)
	}
	if !a.Degraded || len(a.DegradedReasons) == 0 {
		t.Fatalf("assignment %+v, want Degraded with reasons", a)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyMoveConflicts(t *testing.T) {
	defer leaktest.Check(t)()
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Submit(Job{ID: "a", Workload: computeJob("a").Workload, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(Job{ID: "b", Workload: memoryJob("b").Workload, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	free := s.FreeContexts()

	var mc *MoveConflictError
	// Target occupied by another job.
	err = s.ApplyMove(Move{JobID: "a", From: a.Placement, To: b.Placement})
	if !errors.As(err, &mc) || mc.Owner != "b" {
		t.Fatalf("err %v, want conflict naming owner b", err)
	}
	// Target cordoned.
	if _, err := s.Cordon(free[0], free[1]); err != nil {
		t.Fatal(err)
	}
	err = s.ApplyMove(Move{JobID: "a", From: a.Placement, To: placement.Placement{free[0], free[1]}})
	if !errors.As(err, &mc) || mc.Health != Cordoned {
		t.Fatalf("err %v, want conflict naming cordoned health", err)
	}
	// Stale From.
	err = s.ApplyMove(Move{JobID: "a", From: b.Placement, To: placement.Placement{free[2], free[3]}})
	if !errors.As(err, &mc) {
		t.Fatalf("err %v, want conflict on stale From", err)
	}
	// Thread-count change.
	err = s.ApplyMove(Move{JobID: "a", From: a.Placement, To: placement.Placement{free[2]}})
	if !errors.As(err, &mc) {
		t.Fatalf("err %v, want conflict on thread-count change", err)
	}
	// Duplicate target context (invalid placement).
	err = s.ApplyMove(Move{JobID: "a", From: a.Placement, To: placement.Placement{free[2], free[2]}})
	if !errors.As(err, &mc) {
		t.Fatalf("err %v, want conflict on duplicate context", err)
	}
	// A clean move still works.
	if err := s.ApplyMove(Move{JobID: "a", From: a.Placement, To: placement.Placement{free[2], free[3]}}); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyMovePlacementCheckVeto(t *testing.T) {
	defer leaktest.Check(t)()
	veto := false
	s, err := New(testMD(t), Config{PlacementCheck: func(placement.Placement) error {
		if veto {
			return fmt.Errorf("vetoed")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Submit(Job{ID: "a", Workload: computeJob("a").Workload, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	free := s.FreeContexts()
	veto = true
	err = s.ApplyMove(Move{JobID: "a", From: a.Placement, To: placement.Placement{free[0], free[1]}})
	var pe *PlacementCheckError
	if !errors.As(err, &pe) {
		t.Fatalf("err %v, want PlacementCheckError", err)
	}
	// Nothing committed: the job still holds its original contexts.
	if got := s.Assignments()[0]; !samePlacement(got.Placement, a.Placement) {
		t.Fatalf("placement changed to %v after vetoed move", got.Placement)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
