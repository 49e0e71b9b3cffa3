package scheduler

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pandia/internal/core"
	"pandia/internal/counters"
	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// refChoice is the brute-force reference's pick for one placement search:
// the first candidate with the highest aggregate throughput among those
// passing policy, or with none passing, the first highest overall.
type refChoice struct {
	place    placement.Placement
	strategy string
	passes   bool
}

// bruteForce scores every candidate of the slot job (no dedupe, no
// pruning, no cache) with core.PredictCoSchedule against the other jobs,
// and picks the first maximum: among policy-passing candidates when any
// pass, overall otherwise. policy nil means every candidate passes.
func bruteForce(t *testing.T, md *machine.Description, others []core.PlacedWorkload, slot int, w *core.Workload,
	cands []candidate, policy func(*core.CoPrediction) bool) (refChoice, int) {
	t.Helper()
	mix := make([]core.PlacedWorkload, 0, len(others)+1)
	mix = append(mix, others[:slot]...)
	mix = append(mix, core.PlacedWorkload{Workload: w})
	mix = append(mix, others[slot:]...)
	best, bestAny := -1, -1
	bestScore, bestAnyScore := -1.0, -1.0
	for k, c := range cands {
		mix[slot].Placement = c.place
		co, err := core.PredictCoSchedule(md, mix, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		score := aggregateThroughput(co)
		if score > bestAnyScore {
			bestAnyScore, bestAny = score, k
		}
		if (policy == nil || policy(co)) && score > bestScore {
			bestScore, best = score, k
		}
	}
	pick, passes := best, true
	if best < 0 {
		pick, passes = bestAny, false
	}
	if pick < 0 {
		return refChoice{}, 0
	}
	dups := 0
	for k := range cands {
		if repeats(cands, k) {
			dups++
		}
	}
	return refChoice{slices.Clone(cands[pick].place), cands[pick].strategy, passes}, dups
}

// generatedLocked copies out the candidates the scheduler generates for
// owner over the hardware available to it. The caller must hold mu.
func (s *Scheduler) generatedLocked(owner string, counts ...int) []candidate {
	cands := s.candidatesLocked(owner, s.availLocked(owner), counts...)
	out := make([]candidate, len(cands))
	for i, c := range cands {
		out[i] = candidate{slices.Clone(c.place), c.strategy}
	}
	return out
}

// othersLocked returns the running mix in job-ID order without job id,
// and the slot id takes in it. The caller must hold mu.
func (s *Scheduler) othersLocked(id string) ([]core.PlacedWorkload, int) {
	ids, mix := s.mixLocked(0)
	slot, found := slices.BinarySearch(ids, id)
	out := slices.Clone(mix)
	if found {
		out = slices.Delete(out, slot, slot+1)
	}
	return out, slot
}

// randomJob draws a job with a seeded, plausible workload description.
func randomJob(rng *rand.Rand, id string) Job {
	w := &core.Workload{
		Name: id, T1: 50 + 100*rng.Float64(),
		Demand: counters.Rates{
			Instr: 1 + 6*rng.Float64(), L1: 40 * rng.Float64(), L2: 20 * rng.Float64(),
			L3: 8 * rng.Float64(), DRAM: 6 * rng.Float64(),
		},
		ParallelFrac: 0.85 + 0.149*rng.Float64(), LoadBalance: 0.7 + 0.3*rng.Float64(),
		Burstiness: 0.3 * rng.Float64(), InterSocketOverhead: 0.02 * rng.Float64(),
	}
	threads := 0
	if rng.Intn(2) == 0 {
		threads = 1 + rng.Intn(8)
	}
	return Job{ID: id, Workload: w, Threads: threads}
}

// TestScorerMatchesBruteForce pins that dedupe and dominance pruning never
// change a pick: on seeded job sequences over the X5-2 and X3-2, with the
// admission policies off, on, and on with degraded admission, every
// Submit and every drain migration must choose exactly the placement (and,
// for Submit, the strategy) that scoring every generated candidate with a
// cold joint solve picks. Drain migrations are checked from the placement
// check hook, which runs under the scheduler's lock just before commit.
func TestScorerMatchesBruteForce(t *testing.T) {
	machines := []struct {
		name string
		md   func(*testing.T) *machine.Description
	}{
		{"x5-2", func(t *testing.T) *machine.Description { return x52MD(t) }},
		{"x3-2", testMD},
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"policies-off", Config{}},
		{"policies-on", Config{AdmissionThreshold: 1.6, SlowdownSLO: 1.25}},
		{"policies-degraded", Config{AdmissionThreshold: 1.6, SlowdownSLO: 1.25, AdmitDegraded: true}},
		// A descending ladder scores large candidates first, so the smaller
		// ones' Amdahl bounds fall under the incumbent and are pruned.
		{"descending-off", Config{CandidateThreadCounts: []int{16, 8, 4, 2, 1}}},
		{"descending-on", Config{CandidateThreadCounts: []int{16, 8, 4, 2, 1}, AdmissionThreshold: 1.6, SlowdownSLO: 1.25}},
	}
	var total searchCounts
	for _, m := range machines {
		md := m.md(t)
		for _, c := range configs {
			t.Run(m.name+"/"+c.name, func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					total.add(checkAgainstBruteForce(t, md, c.cfg, seed))
				}
			})
		}
	}
	t.Logf("checked %+v", total)
	if total.submits == 0 || total.migrations == 0 || total.refused == 0 || total.pruned == 0 || total.dups == 0 {
		t.Fatalf("sequences exercised too little: %+v", total)
	}
}

// searchCounts tallies what a checked sequence exercised: Submits and
// drain migrations compared, Submits with no policy-passing candidate,
// candidates the scheduler pruned, and generated candidates that repeated
// an earlier one.
type searchCounts struct {
	submits, migrations, refused int
	pruned, dups                 int64
}

func (c *searchCounts) add(o searchCounts) {
	c.submits += o.submits
	c.migrations += o.migrations
	c.refused += o.refused
	c.pruned += o.pruned
	c.dups += o.dups
}

// checkAgainstBruteForce runs one seeded sequence of submits, removals and
// socket drains, checking every placement search against bruteForce.
func checkAgainstBruteForce(t *testing.T, md *machine.Description, cfg Config, seed int64) (n searchCounts) {
	rng := rand.New(rand.NewSource(seed))
	prunedBefore := obs.Default().Counter("scheduler.candidates.pruned").Value()
	var s *Scheduler
	var drained []topology.Context
	policy := func(co *core.CoPrediction) bool {
		if cfg.AdmissionThreshold > 0 && co.WorstOversubscription > cfg.AdmissionThreshold {
			return false
		}
		return cfg.SlowdownSLO <= 0 || worstSlowdown(co) <= cfg.SlowdownSLO
	}
	// During a drain the hook identifies the migrating job as the first,
	// in job-ID order, still holding a drained context, and compares the
	// committed placement with the reference over that job's candidates.
	cfg.PlacementCheck = func(p placement.Placement) error {
		if drained == nil {
			return nil
		}
		ids, _ := s.mixLocked(0)
		id := ""
		for _, jid := range slices.Clone(ids) {
			if slices.ContainsFunc(s.running[jid].Placement, func(c topology.Context) bool {
				return slices.Contains(drained, c)
			}) {
				id = jid
				break
			}
		}
		if id == "" {
			t.Fatalf("drain committed %v with no job on a drained context", p)
		}
		w := s.running[id].Job.Workload
		cands := s.generatedLocked(id, len(s.running[id].Placement))
		others, slot := s.othersLocked(id)
		want, d := bruteForce(t, md, others, slot, w, cands, nil)
		n.dups += int64(d)
		n.migrations++
		if !slices.Equal(p, want.place) {
			t.Errorf("drain migrated %s to %v, reference picks %v (%s)", id, p, want.place, want.strategy)
		}
		return nil
	}
	var err error
	if s, err = New(md, cfg); err != nil {
		t.Fatal(err)
	}
	next := 0
	for step := 0; step < 60; step++ {
		running := s.Assignments()
		switch r := rng.Intn(10); {
		case r < 7 || len(running) == 0:
			next++
			job := randomJob(rng, fmt.Sprintf("j%02d", next))
			s.mu.Lock()
			free := len(s.availLocked(""))
			var cands []candidate
			if free > 0 {
				cands = s.generatedLocked("", s.candidateCounts(nil, job, free)...)
			}
			others, _ := s.othersLocked(job.ID)
			s.mu.Unlock()
			if len(cands) == 0 {
				continue
			}
			// Submit scores a new job in the mix's last slot.
			want, d := bruteForce(t, md, others, len(others), job.Workload, cands, policy)
			n.dups += int64(d)
			n.submits++
			if !want.passes {
				n.refused++
			}
			asgn, err := s.Submit(job)
			var aerr *AdmissionError
			switch {
			case !want.passes && !cfg.AdmitDegraded:
				if !errors.As(err, &aerr) {
					t.Fatalf("%s: reference rejects every candidate, Submit returned %v, %v", job.ID, asgn, err)
				}
			case err != nil:
				t.Fatalf("%s: Submit failed: %v (reference picks %v %s)", job.ID, err, want.place, want.strategy)
			case !slices.Equal(asgn.Placement, want.place) || asgn.Strategy != want.strategy:
				t.Errorf("%s: Submit chose %v (%s), reference picks %v (%s)",
					job.ID, asgn.Placement, asgn.Strategy, want.place, want.strategy)
			case asgn.Degraded == want.passes:
				t.Errorf("%s: Submit degraded=%v, reference passes=%v", job.ID, asgn.Degraded, want.passes)
			}
		case r < 9:
			victim := running[rng.Intn(len(running))].Job.ID
			if err := s.Remove(victim); err != nil {
				t.Fatal(err)
			}
		default:
			sock := rng.Intn(md.Topo.Sockets)
			if drained, err = s.socketContexts(sock); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Drain(drained, DrainOptions{}); err != nil {
				t.Fatal(err)
			}
			drained = nil
			if _, err := s.UncordonSocket(sock); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
	n.pruned = obs.Default().Counter("scheduler.candidates.pruned").Value() - prunedBefore
	return n
}

// TestSolveErrorFailsTheSearch breaks a running job's workload in place so
// that every joint solve including it fails validation: Submit of another
// job and Rebalance return the error, and Drain evicts the broken job with
// the error text in the eviction reason, leaving nothing on the drained
// socket.
func TestSolveErrorFailsTheSearch(t *testing.T) {
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	broken := computeJob("a-broken")
	broken.Threads = 4
	if _, err := s.Submit(broken); err != nil {
		t.Fatal(err)
	}
	healthy := memoryJob("b-healthy")
	healthy.Threads = 4
	if _, err := s.Submit(healthy); err != nil {
		t.Fatal(err)
	}
	broken.Workload.ParallelFrac = 2
	want := broken.Workload.Validate()
	if want == nil {
		t.Fatal("mutated workload still validates")
	}

	late := computeJob("c-late")
	late.Threads = 2
	if _, err := s.Submit(late); err == nil || err.Error() != want.Error() {
		t.Fatalf("Submit beside a broken job returned %v, want %v", err, want)
	}
	if _, err := s.Rebalance(0); err == nil || err.Error() != want.Error() {
		t.Fatalf("Rebalance with a broken job returned %v, want %v", err, want)
	}

	sock := s.Assignments()[0].Placement[0].Socket
	rep, err := s.DrainSocket(sock, DrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ev *Eviction
	for i := range rep.Evicted {
		if rep.Evicted[i].JobID == broken.ID {
			ev = &rep.Evicted[i]
		}
	}
	if ev == nil {
		t.Fatalf("drain did not evict the broken job: %+v", rep)
	}
	if !strings.Contains(ev.Reason, want.Error()) {
		t.Fatalf("eviction reason %q does not name %q", ev.Reason, want)
	}
	for _, a := range s.Assignments() {
		for _, c := range a.Placement {
			if c.Socket == sock {
				t.Fatalf("job %s still on drained socket %d: %v", a.Job.ID, sock, a.Placement)
			}
		}
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
