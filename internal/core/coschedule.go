package core

import (
	"fmt"
	"math"
	"sort"

	"pandia/internal/machine"
	"pandia/internal/topology"
)

// CoPrediction is the joint prediction for several workloads sharing a
// machine — the paper's §8 extension. Each workload keeps its own Amdahl
// scaling, communication and load-balancing behaviour; all of them press on
// the same resource loads, so one workload's contention slows the others.
type CoPrediction struct {
	// Predictions holds one prediction per input workload, in order. Each
	// prediction's Loads map is the combined load of all workloads.
	Predictions []*Prediction
	// Loads is the combined per-resource demand at convergence.
	Loads map[topology.ResourceID]float64
	// WorstOversubscription is the largest combined load/capacity ratio,
	// and WorstResource the resource it occurs on; a value at or below 1
	// means the mix fits the machine.
	WorstOversubscription float64
	WorstResource         topology.ResourceID
	// Iterations and Converged describe the joint refinement loop.
	Iterations int
	Converged  bool
}

// PredictCoSchedule jointly predicts several placed workloads (§8: "we
// believe Pandia's prediction of resource consumption as well as overall
// workload performance will let us handle cases with multiple workloads
// sharing a machine"). Placements must not overlap.
func PredictCoSchedule(md *machine.Description, placed []PlacedWorkload, opt Options) (*CoPrediction, error) {
	e, err := newEngine(md, placed)
	if err != nil {
		return nil, err
	}
	return coPrediction(md, e, opt)
}

// coPrediction runs the joint iteration on a bound engine and assembles the
// CoPrediction — the shared tail of PredictCoSchedule and CoPredictor.
func coPrediction(md *machine.Description, e *engine, opt Options) (*CoPrediction, error) {
	iters, converged := e.iterate(opt)
	return assembleCoPrediction(md, e, iters, converged)
}

// assembleCoPrediction builds the CoPrediction from a bound engine whose
// per-thread state already holds a solve's result. It re-runs accumulate
// from the final utilisations so the load tables match them.
func assembleCoPrediction(md *machine.Description, e *engine, iters int, converged bool) (*CoPrediction, error) {
	e.accumulate()
	loads := e.loadsMap()

	out := &CoPrediction{
		Loads:      loads,
		Iterations: iters,
		Converged:  converged,
	}
	for _, j := range e.jobs {
		pred, err := j.prediction(iters, converged, loads)
		if err != nil {
			return nil, err
		}
		if invariantChecks.Load() {
			if e.invErr != nil {
				return nil, e.invErr
			}
			if err := CheckInvariants(j.w, md, pred); err != nil {
				return nil, fmt.Errorf("core: workload %q: %w", j.w.Name, err)
			}
		}
		out.Predictions = append(out.Predictions, pred)
	}

	// Iterate the load table in resource order so ties in the
	// oversubscription ratio resolve to the same resource on every run.
	ids := make([]topology.ResourceID, 0, len(loads))
	for id := range loads {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a].Less(ids[b]) })
	worst, worstID := 0.0, topology.ResourceID{}
	for _, id := range ids {
		cap := capacityFor(md, e, id)
		if cap <= 0 {
			continue
		}
		if r := loads[id] / cap; r > worst {
			worst, worstID = r, id
		}
	}
	out.WorstOversubscription = worst
	out.WorstResource = worstID
	// The loads are joint, so every constituent prediction reports the same
	// machine-wide worst resource.
	for _, pred := range out.Predictions {
		pred.WorstResource = worstID
		pred.WorstOversubscription = worst
	}
	return out, nil
}

// capacityFor resolves a resource's capacity, accounting for the SMT
// aggregate limit on cores that the joint placement doubles up.
func capacityFor(md *machine.Description, e *engine, id topology.ResourceID) float64 {
	if id.Kind == topology.ResInstr {
		return md.InstrCapacity(e.coreOcc[id.Index])
	}
	return md.Capacity(id.Kind)
}

// Slowdown reports how much slower workload i runs co-scheduled than the
// baseline prediction alone on the same placement would be.
func (cp *CoPrediction) Slowdown(md *machine.Description, placed []PlacedWorkload, i int, opt Options) (float64, error) {
	solo, err := Predict(md, placed[i].Workload, placed[i].Placement, opt)
	if err != nil {
		return 0, err
	}
	if solo.Time <= 0 {
		return math.Inf(1), nil
	}
	return cp.Predictions[i].Time / solo.Time, nil
}
