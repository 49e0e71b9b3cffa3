package core

import (
	"fmt"

	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/topology"
)

// The engine packs its per-kind worst-utilisation summary into an
// obs.Event's fixed load vector; this assertion fails to compile if the
// model ever grows more resource kinds than the vector holds.
var _ [obs.MaxLoadKinds - topology.NumResourceKinds]struct{}

// Metric handles for the prediction core (catalogued in DESIGN.md §9).
// Resolved once at init so the hot paths touch only the atomics.
var (
	metPredictions = obs.Default().Counter("core.predict.total")
	metIterations  = obs.Default().Histogram("core.predict.iterations", obs.IterationBuckets())
	metDegraded    = obs.Default().Counter("core.predict.degraded_fallbacks")
	metSweepPreds  = obs.Default().Counter("core.sweep.predictions")
	metSweepChunks = obs.Default().Counter("core.sweep.chunk_claims")
	metSweepPerWkr = obs.Default().Histogram("core.sweep.worker_predictions",
		[]float64{1, 4, 16, 64, 256, 1024, 4096, 16384})

	// Incremental-prediction path (DESIGN.md §12): canonical-cache traffic,
	// solver warm starts (converged-state reuse included), and placements
	// skipped by the dominance bound in pruned sweeps.
	metCacheHits      = obs.Default().Counter("core.cache.hits")
	metCacheMisses    = obs.Default().Counter("core.cache.misses")
	metCacheEvictions = obs.Default().Counter("core.cache.evictions")
	metWarmStarts     = obs.Default().Counter("core.solver.warm_starts")
	metSweepPruned    = obs.Default().Counter("core.sweep.pruned")
)

// loadScan accumulates the per-kind worst utilisation and the machine-wide
// dominant resource during a dense-table sweep. It lives on the caller's
// stack; note is written without closures so the scan stays allocation-free.
type loadScan struct {
	worst *[obs.MaxLoadKinds]float64
	best  float64
	id    topology.ResourceID
}

// note folds in one resource instance. Zero loads and unconstrained
// capacities are skipped, and the running maximum uses strict >, so with
// instances visited in (Kind, Index, Pair) order the dominant resource
// matches the sorted-map computation in coPrediction exactly.
func (s *loadScan) note(id topology.ResourceID, load, cap float64) {
	if load <= 0 || cap <= 0 {
		return
	}
	r := load / cap //nanguard:ok the line above returns unless cap > 0
	if r > s.worst[id.Kind] {
		s.worst[id.Kind] = r
	}
	if r > s.best {
		s.best, s.id = r, id
	}
}

// loadSummary sweeps the dense load tables at the current utilisations,
// filling worst[k] with the largest load/capacity ratio among instances of
// resource kind k and returning the machine-wide most oversubscribed
// resource with its ratio (zero ResourceID and 0 when nothing is loaded).
// Instances are visited in ResourceID order, so ties resolve exactly as
// coPrediction's sorted Loads-map scan does.
//
//pandia:noalloc
func (e *engine) loadSummary(worst *[obs.MaxLoadKinds]float64) (topology.ResourceID, float64) {
	for k := range worst {
		worst[k] = 0
	}
	md := e.md
	s := loadScan{worst: worst}
	for c := 0; c < e.nCores; c++ {
		s.note(topology.ResourceID{Kind: topology.ResInstr, Index: c}, e.instr[c], md.InstrCapacity(e.coreOcc[c]))
	}
	for c := 0; c < e.nCores; c++ {
		s.note(topology.ResourceID{Kind: topology.ResL1, Index: c}, e.l1[c], md.L1BW)
	}
	for c := 0; c < e.nCores; c++ {
		s.note(topology.ResourceID{Kind: topology.ResL2, Index: c}, e.l2[c], md.L2BW)
	}
	for c := 0; c < e.nCores; c++ {
		s.note(topology.ResourceID{Kind: topology.ResL3Link, Index: c}, e.l3Link[c], md.L3LinkBW)
	}
	for sk := 0; sk < e.nSock; sk++ {
		s.note(topology.ResourceID{Kind: topology.ResL3Agg, Index: sk}, e.l3Agg[sk], md.L3AggBW)
	}
	for sk := 0; sk < e.nSock; sk++ {
		s.note(topology.ResourceID{Kind: topology.ResDRAM, Index: sk}, e.dram[sk], md.DRAMBW)
	}
	for a := 0; a < e.nSock; a++ {
		for b := a + 1; b < e.nSock; b++ {
			s.note(topology.ResourceID{Kind: topology.ResInterconnect, Pair: topology.SocketPair{Lo: a, Hi: b}},
				e.ic[e.pair[a*e.nSock+b]], md.InterconnectBW)
		}
	}
	return s.id, s.best
}

// traceResIndex flattens a ResourceID's locator into the Event.ResIndex
// field: instance index for per-core/per-socket kinds, dense pair index for
// interconnect links.
func (e *engine) traceResIndex(id topology.ResourceID) int32 {
	if id.Kind == topology.ResInterconnect {
		return int32(e.pair[id.Pair.Lo*e.nSock+id.Pair.Hi])
	}
	return int32(id.Index)
}

// emitIteration records one refinement round: the shared residual, load
// summary, and dominant resource, plus each job's worst per-thread slowdown,
// as one event per job (Chrome trace rows are per job). span is the
// requesting scheduler decision's id (Options.SpanID), 0 outside one.
func (e *engine) emitIteration(tr obs.Tracer, span int64, iter int, residual float64) {
	var worst [obs.MaxLoadKinds]float64
	id, _ := e.loadSummary(&worst)
	for jid, j := range e.jobs {
		factor := 0.0
		for _, s := range j.sTot {
			if s > factor {
				factor = s
			}
		}
		tr.Emit(obs.Event{
			Kind:     obs.EvIteration,
			Job:      int32(jid),
			Iter:     int32(iter),
			Res:      int32(id.Kind),
			ResIndex: e.traceResIndex(id),
			Span:     span,
			Residual: residual,
			Factor:   factor,
			Loads:    worst,
		})
	}
}

// TraceLabels builds the label resolvers that render a solver trace of this
// machine with the paper's resource names (topology.ResourceKind.String):
// "dram[1]", "interconnect[s0-s1]", and per-kind load series "instr", "l1",
// …. Pass it to obs.WriteChromeTrace / obs.WriteJSONL.
func TraceLabels(md *machine.Description, jobName func(job int32) string) obs.TraceLabels {
	topo := md.Topo
	return obs.TraceLabels{
		Job: func(job int32) string {
			if jobName != nil {
				return jobName(job)
			}
			return fmt.Sprintf("job %d", job)
		},
		Resource: func(res, index int32) string {
			kind := topology.ResourceKind(res)
			if kind == topology.ResInterconnect {
				for a := 0; a < topo.Sockets; a++ {
					for b := a + 1; b < topo.Sockets; b++ {
						if int32(topo.PairIndex(a, b)) == index {
							return topology.InterconnectResource(a, b).String()
						}
					}
				}
			}
			return topology.ResourceID{Kind: kind, Index: int(index)}.String()
		},
		Load: func(slot int) string {
			if slot >= topology.NumResourceKinds {
				return ""
			}
			return topology.ResourceKind(slot).String()
		},
	}
}
