package scheduler

// This file is the flight-recorder integration: every scheduler operation
// allocates a decision id, opens a trace span, and journals a typed
// DecisionRecord on the way out (DESIGN.md §13). The journal and tracer are
// both optional and independently disabled; a scheduler configured with
// neither pays a branch per operation and nothing else.

import (
	"fmt"
	"strings"

	"pandia/internal/core"
	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// spanRow is the Chrome-trace thread row scheduler operation spans render
// on: solver events use non-negative job indices, so -1 keeps the
// scheduling plane on its own timeline row.
const spanRow int32 = -1

// Span phase codes stamped into obs.Event.Arg by the scheduler's span
// events. Phases nest: the operation span wraps the candidate sweep, which
// wraps per-candidate cache lookups, which (on a miss) are followed by the
// solver's own EvPredict*/EvIteration events carrying the same decision id.
const (
	// SpanPhaseOp spans the whole operation (Submit, Rebalance, Drain, ...).
	SpanPhaseOp int32 = iota
	// SpanPhaseSweep spans Submit's candidate-placement sweep.
	SpanPhaseSweep
	// SpanPhaseCache spans one prediction-cache lookup.
	SpanPhaseCache
)

// SpanPhaseName names a span phase code for trace labels.
func SpanPhaseName(phase int32) string {
	switch phase {
	case SpanPhaseOp:
		return ""
	case SpanPhaseSweep:
		return "candidate sweep"
	case SpanPhaseCache:
		return "cache lookup"
	}
	return fmt.Sprintf("phase %d", phase)
}

// TraceLabels builds the label resolvers for a trace that mixes scheduler
// operation spans with solver events: core.TraceLabels' resource and load
// naming, plus span naming resolved from the journal's decision records
// ("submit job-a", "submit job-a: cache lookup"). jobName may be nil; a nil
// journal leaves spans numerically labelled.
func TraceLabels(md *machine.Description, j *obs.Journal, jobName func(job int32) string) obs.TraceLabels {
	labels := core.TraceLabels(md, jobName)
	names := make(map[int64]string)
	for _, rec := range j.Records() {
		name := rec.Op
		if rec.Job != "" {
			name += " " + rec.Job
		}
		names[rec.ID] = name
	}
	labels.Span = func(span int64, phase int32) string {
		name, ok := names[span]
		if !ok {
			name = fmt.Sprintf("decision %d", span)
		}
		if p := SpanPhaseName(phase); p != "" {
			name += ": " + p
		}
		return name
	}
	return labels
}

// opScope carries one operation's flight-recorder state: the decision id
// shared by the journal record and every span the operation emits, the
// record under construction, and the cache-traffic baseline its statistics
// diff against. The zero scope (journal and tracer both off) makes every
// method a no-op.
type opScope struct {
	s          *Scheduler
	id         int64
	journaling bool
	tracing    bool
	rec        obs.DecisionRecord
	// cache is the scheduler's prediction cache captured under mu at begin
	// time (CoCache is itself concurrency-safe, so record() may read its
	// statistics through this pointer without re-proving the lock).
	cache     *core.CoCache
	cacheBase core.CacheStats
}

// beginOpLocked opens one operation's scope: allocates the decision id,
// emits the operation span, and snapshots the cache statistics. The caller
// must hold mu (the cache baseline reads coCache) and must call end() when
// the operation finishes. With neither a journal nor a tracer configured
// this is a pair of branches.
func (s *Scheduler) beginOpLocked(op, job string) opScope {
	sc := opScope{s: s}
	sc.journaling = s.cfg.Journal.Enabled()
	tr := s.cfg.Tracer
	sc.tracing = tr != nil && tr.Enabled()
	if !sc.journaling && !sc.tracing {
		return sc
	}
	sc.id = s.cfg.Journal.NextID()
	if sc.journaling {
		sc.rec = obs.DecisionRecord{ID: sc.id, Op: op, Job: job}
		if s.coCache != nil {
			sc.cache = s.coCache
			sc.cacheBase = s.coCache.Stats()
		}
	}
	if sc.tracing {
		tr.Emit(obs.Event{Kind: obs.EvSpanBegin, Span: sc.id, Arg: SpanPhaseOp, Job: spanRow})
	}
	return sc
}

// end closes the operation span. Call via defer, after any record().
func (sc *opScope) end() {
	if sc.tracing {
		sc.s.cfg.Tracer.Emit(obs.Event{Kind: obs.EvSpanEnd, Span: sc.id, Arg: SpanPhaseOp, Job: spanRow})
	}
}

// phase emits a nested span boundary (begin=true opens, false closes).
func (sc *opScope) phase(code int32, begin bool) {
	if !sc.tracing {
		return
	}
	kind := obs.EvSpanEnd
	if begin {
		kind = obs.EvSpanBegin
	}
	sc.s.cfg.Tracer.Emit(obs.Event{Kind: kind, Span: sc.id, Arg: code, Job: spanRow})
}

// record journals the scope's DecisionRecord, stamping the operation's
// prediction-cache traffic delta first.
func (sc *opScope) record() {
	if !sc.journaling {
		return
	}
	if sc.cache != nil {
		cs := sc.cache.Stats()
		sc.rec.CacheHits = cs.Hits - sc.cacheBase.Hits
		sc.rec.CacheMisses = cs.Misses - sc.cacheBase.Misses
	}
	sc.s.cfg.Journal.Record(sc.rec)
}

// rejected journals the operation as rejected with a typed reason (the
// AdmissionKind or check name) and the full cause text.
func (sc *opScope) rejected(reason, cause string) {
	if !sc.journaling {
		return
	}
	sc.rec.Outcome = "rejected"
	sc.rec.Reason = reason
	sc.rec.Cause = cause
	sc.record()
}

// errored journals an operation that failed outright (solver error rather
// than a policy decision).
func (sc *opScope) errored(err error) {
	if !sc.journaling {
		return
	}
	sc.rec.Outcome = "error"
	sc.rec.Reason = "internal"
	sc.rec.Cause = err.Error()
	sc.record()
}

// swept notes a candidate sweep on the record: how many candidates were
// generated and how many the dominance bound skipped.
func (sc *opScope) swept(cands int, pruned int64) {
	if sc.journaling {
		sc.rec.Candidates = cands
		sc.rec.Pruned = pruned
	}
}

// submitted journals a Submit that scored cands: evals[chosen] admitted
// as asgn or, with chosen -1, every candidate refused by aerr. The other
// scored candidates become alternatives; a degraded admission or an SLO
// refusal raises an incident.
func (sc *opScope) submitted(cands []candidate, evals []candEval, chosen int, asgn *Assignment, aerr *AdmissionError) {
	if !sc.journaling {
		return
	}
	for i := range evals {
		if i == chosen {
			continue
		}
		ev := &evals[i]
		sc.rec.AddAlternative(obs.Alternative{
			Placement: cands[ev.cand].place.String(), Strategy: cands[ev.cand].strategy,
			Score: ev.score, Slowdown: worstSlowdown(ev.co), Reject: sc.s.violation(cands, ev),
		})
	}
	if aerr != nil {
		sc.rejected(aerr.Kind.String(), aerr.Reason)
		if aerr.Kind == AdmitSLOExceeded {
			sc.s.cfg.Journal.Incident("slo-rejection", sc.id, aerr.JobID, aerr.Reason)
		}
		return
	}
	sc.rec.Score = evals[chosen].score
	sc.rec.Placement = asgn.Placement.String()
	sc.rec.Strategy = asgn.Strategy
	sc.rec.Outcome = "admitted"
	if asgn.Degraded {
		sc.rec.Outcome = "admitted-degraded"
		sc.rec.Reason = strings.Join(asgn.DegradedReasons, "; ")
	}
	sc.record()
	if asgn.Degraded {
		sc.s.cfg.Journal.Incident("degraded-admission", sc.id, asgn.Job.ID, sc.rec.Reason)
	}
}

// predicted journals a whole-mix prediction of n jobs.
func (sc *opScope) predicted(n int, co *core.CoPrediction) {
	if sc.journaling {
		sc.rec.Outcome = "predicted"
		sc.rec.Candidates = n
		sc.rec.Score = aggregateThroughput(co)
		sc.record()
	}
}

// advised journals a rebalancing report. The top advised moves ride in the
// alternatives slots: Score is the predicted post-move aggregate, Slowdown
// the relative gain, Reject names the moved job.
func (sc *opScope) advised(rep *RebalanceReport) {
	if !sc.journaling {
		return
	}
	sc.rec.Outcome = "advised"
	sc.rec.Candidates = len(rep.JobIDs)
	sc.rec.Score = rep.BaseScore
	sc.rec.Reason = fmt.Sprintf("%d moves advised", len(rep.Moves))
	for _, m := range rep.Moves {
		sc.rec.AddAlternative(obs.Alternative{
			Placement: m.To.String(), Strategy: m.Strategy,
			Score: rep.BaseScore * (1 + m.Gain), Slowdown: m.Gain,
			Reject: "job " + m.JobID,
		})
	}
	sc.record()
}

// moved journals an applied move.
func (sc *opScope) moved(m Move) {
	if sc.journaling {
		sc.rec.Outcome = "applied"
		sc.rec.Placement = m.To.String()
		sc.rec.Strategy = m.Strategy
		sc.rec.Cause = "from " + m.From.String()
		sc.rec.Score = m.Gain
		sc.record()
	}
}

// applied journals a health operation on ctxs, its summary formatted from
// format and args. Jobs it evicted raise an eviction incident naming by as
// the cause.
func (sc *opScope) applied(ctxs []topology.Context, evicted []Eviction, by, format string, args ...any) {
	if !sc.journaling {
		return
	}
	sc.rec.Outcome = "applied"
	sc.rec.Placement = placement.Placement(ctxs).String()
	sc.rec.Reason = fmt.Sprintf(format, args...)
	sc.record()
	if len(evicted) == 0 {
		return
	}
	ids := make([]string, len(evicted))
	for i, ev := range evicted {
		ids[i] = ev.JobID
	}
	sc.s.cfg.Journal.Incident("eviction", sc.id, strings.Join(ids, ","), by+" evicted "+strings.Join(ids, ", "))
}

// child journals a follow-on decision this operation forced (an eviction,
// a migration), parented to its decision id: rec with place rendered as
// its placement and, when from is non-nil, "from <from>" as its cause.
func (sc *opScope) child(rec obs.DecisionRecord, place, from placement.Placement) {
	if sc.journaling {
		rec.ID = sc.s.cfg.Journal.NextID()
		rec.Parent = sc.id
		rec.Placement = place.String()
		if from != nil {
			rec.Cause = "from " + from.String()
		}
		sc.s.cfg.Journal.Record(rec)
	}
}

// Journal returns the journal this scheduler records into (nil when none
// was configured) — the introspection mux serves it at /debug/decisions.
func (s *Scheduler) Journal() *obs.Journal { return s.cfg.Journal }
