package scheduler

import (
	"cmp"
	"fmt"
	"slices"

	"pandia/internal/placement"
	"pandia/internal/topology"
)

// JobDelta records one running job's predicted execution time before and
// after a candidate move — the evidence behind the move's gain.
type JobDelta struct {
	JobID string
	// Before and After are the job's predicted times under the joint model
	// in the current state and with the move applied.
	//pandia:unit seconds
	Before float64
	//pandia:unit seconds
	After float64
}

// Move is one piece of rebalancing advice: re-placing a running job is
// predicted to improve the mix's aggregate speedup by Gain (a fraction,
// e.g. 0.07 = 7%). The scheduler never moves threads itself — migration
// costs are workload-specific — it only advises; ApplyMove commits a move
// the caller has decided to take.
type Move struct {
	JobID    string
	From, To placement.Placement
	Strategy string
	// Gain is the predicted relative improvement of aggregate speedup.
	Gain float64
	// Deltas holds every running job's predicted time before/after this
	// move (the moved job included), in job-ID order — why the move helps,
	// and who pays for it.
	Deltas []JobDelta
}

// RebalanceReport is the full outcome of one rebalancing evaluation: the
// jobs considered, their current predicted times, the aggregate score they
// were measured against, and the advised moves sorted by decreasing gain.
type RebalanceReport struct {
	// JobIDs lists the running jobs at evaluation time, sorted.
	JobIDs []string
	// BaseTimes[i] is JobIDs[i]'s predicted time in the current state.
	//pandia:unit seconds
	BaseTimes []float64
	// BaseScore is the current aggregate predicted throughput (the sum of
	// per-job speedups every candidate move is scored against).
	BaseScore float64
	// Moves is the advice, best first. Applying one invalidates the rest.
	Moves []Move
}

// Rebalance evaluates, for every running job, whether re-placing it over
// the currently free contexts (plus its own) would improve the predicted
// aggregate speedup of the whole mix by at least minGain. Moves are
// evaluated independently against the current state and returned sorted by
// decreasing gain, each carrying the per-job before/after predicted times
// it was justified by. A scheduler with nothing running returns (nil, nil).
func (s *Scheduler) Rebalance(minGain float64) (*RebalanceReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.running) == 0 {
		return nil, nil
	}
	metRebalanceRuns.Inc()
	sc := s.beginOpLocked("rebalance", "")
	defer sc.end()

	// Each job's candidates take its slot in the mix slab; pre covers the
	// jobs before that slot.
	ids, mix := s.mixLocked(0)
	pre := s.keyPrefixLocked(mix, 0)
	baseCo, err := s.predictSlotLocked(pre, mix, 0, sc.id)
	if err != nil {
		sc.errored(err)
		return nil, err
	}
	rep := &RebalanceReport{
		JobIDs:    slices.Clone(ids),
		BaseTimes: make([]float64, len(ids)),
		BaseScore: aggregateThroughput(baseCo),
	}
	for i := range ids {
		rep.BaseTimes[i] = baseCo.Predictions[i].Time
	}

	for i, id := range rep.JobIDs {
		a := s.running[id]
		// The job may move anywhere that is free and healthy, or onto its
		// own healthy contexts; cordoned contexts it occupies are excluded
		// so advice naturally migrates jobs off a cordon.
		cands := s.candidatesLocked(id, s.availLocked(id), len(a.Placement))
		// Every candidate at or above minGain is advice, so none is pruned.
		r, err := s.scoreLocked(cands, mix, i, pre, sc.id, 0)
		if err != nil {
			sc.errored(err)
			return nil, err
		}
		for _, ev := range r.evals {
			if gain := ev.score/rep.BaseScore - 1; gain >= minGain {
				c := cands[ev.cand]
				m := Move{JobID: id, From: a.Placement, To: slices.Clone(c.place), Strategy: c.strategy,
					Gain: gain, Deltas: make([]JobDelta, len(rep.JobIDs))}
				for k, jid := range rep.JobIDs {
					m.Deltas[k] = JobDelta{JobID: jid, Before: rep.BaseTimes[k], After: ev.co.Predictions[k].Time}
				}
				rep.Moves = append(rep.Moves, m)
			}
		}
		pre = pre.Extend(mix[i : i+1])
	}
	// Equal gains keep candidate order.
	slices.SortStableFunc(rep.Moves, func(a, b Move) int { return cmp.Compare(b.Gain, a.Gain) })
	metRebalanceMoves.Add(int64(len(rep.Moves)))
	sc.advised(rep)
	return rep, nil
}

// ApplyMove commits one advised move, re-pinning the job's threads. The
// scheduler's state may have changed between Rebalance and ApplyMove
// — another job admitted onto a target context, a cordon or failure, the
// job itself re-placed — so everything is re-validated at apply time; a
// stale move returns a *MoveConflictError and commits nothing.
func (s *Scheduler) ApplyMove(m Move) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := s.beginOpLocked("apply-move", m.JobID)
	defer sc.end()
	a, ok := s.running[m.JobID]
	if !ok {
		err := fmt.Errorf("scheduler: job %q not running", m.JobID)
		sc.rejected("conflict", err.Error())
		return err
	}
	conflict := func(cerr *MoveConflictError) error {
		sc.rejected("conflict", cerr.Reason)
		return cerr
	}
	if !samePlacement(a.Placement, m.From) {
		return conflict(&MoveConflictError{JobID: m.JobID,
			Reason: "job placement changed since the advice was computed"})
	}
	// The target must be a valid placement (on-machine, no context twice)
	// of the same thread count...
	if err := placement.Placement(m.To).Validate(s.md.Topo); err != nil {
		return conflict(&MoveConflictError{JobID: m.JobID, Reason: err.Error()})
	}
	if len(m.To) != len(a.Placement) {
		return conflict(&MoveConflictError{JobID: m.JobID, Reason: fmt.Sprintf(
			"move changes thread count (%d -> %d)", len(a.Placement), len(m.To))})
	}
	// ...using only contexts that are still healthy and still free (or the
	// job's own).
	for _, c := range m.To {
		if h := s.healthLocked(c); h != Healthy {
			return conflict(&MoveConflictError{JobID: m.JobID, Context: c, Health: h,
				Reason: fmt.Sprintf("target context %v is %s", c, h)})
		}
		if owner := s.occupied[s.md.Topo.ContextIndex(c)]; owner != "" && owner != m.JobID {
			return conflict(&MoveConflictError{JobID: m.JobID, Context: c, Owner: owner,
				Reason: fmt.Sprintf("target context %v now belongs to %q", c, owner)})
		}
	}
	if s.cfg.PlacementCheck != nil {
		if cerr := s.cfg.PlacementCheck(placement.Placement(m.To)); cerr != nil {
			perr := &PlacementCheckError{JobID: m.JobID, Err: cerr}
			sc.rejected("placement-check", perr.Error())
			return perr
		}
	}
	s.placeLocked("", a.Placement)
	s.placeLocked(m.JobID, m.To)
	a.Placement = append(placement.Placement(nil), m.To...)
	metRebalanceApplied.Inc()
	sc.moved(m)
	return nil
}

func samePlacement(a, b placement.Placement) bool {
	if len(a) != len(b) {
		return false
	}
	as := append(placement.Placement(nil), a...)
	bs := append(placement.Placement(nil), b...)
	sortContexts(as)
	sortContexts(bs)
	return slices.Equal(as, bs)
}

func sortContexts(p []topology.Context) {
	slices.SortFunc(p, func(a, b topology.Context) int {
		return cmp.Or(cmp.Compare(a.Socket, b.Socket), cmp.Compare(a.Core, b.Core), cmp.Compare(a.Slot, b.Slot))
	})
}
