package scheduler

// This file is the candidate pipeline Submit, Rebalance and the drain
// migration search share (DESIGN.md §12): one generator table over the
// hardware a job may take, one mix slab per operation in which only the
// candidate's slot changes, cache keys that hash the fixed jobs before
// that slot once per operation instead of once per candidate, and one
// scorer that dedupes, prunes and jointly predicts the candidates.

import (
	"cmp"
	"slices"

	"pandia/internal/core"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// candidate is one generated placement and the generator that produced it.
type candidate struct {
	place    placement.Placement
	strategy string
}

// generators is the candidate generator table, in evaluation order. Each
// orders the available hardware by preference; its candidate of n threads
// is the first n contexts of that order.
var generators = [...]struct {
	name  string
	order func(p *pipeline, avail []topology.Context) []topology.Context
}{
	// pack takes the available contexts in dense order.
	{"pack", func(_ *pipeline, avail []topology.Context) []topology.Context { return avail }},
	{"spread", (*pipeline).spread},
	{"quiet-socket", (*pipeline).quietSocket},
}

// pipeline is the scratch every candidate evaluation reuses. It lives in
// the Scheduler under mu and nothing in it outlives an operation: whatever
// escapes (a committed placement, an advised move, a report's job IDs) is
// copied out.
type pipeline struct {
	m topology.Machine
	// avail is the hardware a job may take; mask marks it by
	// Topo.ContextIndex for spread.
	avail, spreadOrder, quietOrder []topology.Context
	mask                           []bool
	// busy counts occupied contexts per socket; sockets lists them
	// quietest first.
	busy, sockets []int
	cands         []candidate
	counts        []int
	// ids and mix are the running jobs in sorted job-ID order plus any
	// candidate slots; evals are scoreLocked's scored candidates.
	ids   []string
	mix   []core.PlacedWorkload
	evals []candEval
}

func newPipeline(m topology.Machine) pipeline {
	return pipeline{m: m, mask: make([]bool, m.TotalContexts()), busy: make([]int, m.Sockets)}
}

// spread prefers whole idle cores round-robin across sockets, then second
// contexts: the available contexts in (slot, core, socket) order.
func (p *pipeline) spread(avail []topology.Context) []topology.Context {
	m := p.m
	clear(p.mask)
	for _, c := range avail {
		p.mask[m.ContextIndex(c)] = true
	}
	p.spreadOrder = p.spreadOrder[:0]
	for slot := 0; slot < m.ThreadsPerCore; slot++ {
		for core := 0; core < m.CoresPerSocket; core++ {
			for sock := 0; sock < m.Sockets; sock++ {
				if c := (topology.Context{Socket: sock, Core: core, Slot: slot}); p.mask[m.ContextIndex(c)] {
					p.spreadOrder = append(p.spreadOrder, c)
				}
			}
		}
	}
	return p.spreadOrder
}

// quietSocket fills sockets in increasing order of occupancy (p.busy),
// isolating the job from running ones where possible.
func (p *pipeline) quietSocket(avail []topology.Context) []topology.Context {
	p.sockets = p.sockets[:0]
	for sock := range p.busy {
		p.sockets = append(p.sockets, sock)
	}
	slices.SortFunc(p.sockets, func(a, b int) int { return cmp.Compare(p.busy[a], p.busy[b]) })
	p.quietOrder = p.quietOrder[:0]
	for _, sock := range p.sockets {
		for _, c := range avail {
			if c.Socket == sock {
				p.quietOrder = append(p.quietOrder, c)
			}
		}
	}
	return p.quietOrder
}

// availLocked lists, in dense order, the healthy contexts that are free or
// held by owner ("" for free only): the hardware a job may be placed on.
// The slice is pipeline scratch. The caller must hold mu.
func (s *Scheduler) availLocked(owner string) []topology.Context {
	p := &s.pipe
	p.avail = p.avail[:0]
	for i, c := range s.contexts {
		if s.health[i] == Healthy && (s.occupied[i] == "" || s.occupied[i] == owner) {
			p.avail = append(p.avail, c)
		}
	}
	return p.avail
}

// candidatesLocked generates the candidate placements over avail (dense
// order) for each thread count: counts outer, generators inner. A
// candidate that is owner's current placement as a set is left out: it is
// no move. The candidates are pipeline scratch, valid until its next use.
// The caller must hold mu.
func (s *Scheduler) candidatesLocked(owner string, avail []topology.Context, counts ...int) []candidate {
	p := &s.pipe
	clear(p.busy)
	for i, holder := range s.occupied {
		if holder != "" {
			p.busy[s.contexts[i].Socket]++
		}
	}
	var orders [len(generators)][]topology.Context
	for g := range generators {
		orders[g] = generators[g].order(p, avail)
	}
	p.cands = p.cands[:0]
	for _, n := range counts {
		if n > len(avail) {
			continue
		}
		for g := range generators {
			if place := orders[g][:n:n]; owner == "" || !s.holdsLocked(owner, place) {
				p.cands = append(p.cands, candidate{place, generators[g].name})
			}
		}
	}
	return p.cands
}

// repeats reports whether an earlier candidate has the same context
// sequence as cands[k] (the first of equal candidates is the one scored).
func repeats(cands []candidate, k int) bool {
	for _, c := range cands[:k] {
		if slices.Equal(c.place, cands[k].place) {
			return true
		}
	}
	return false
}

// holdsLocked reports whether owner holds every context of place — for a
// candidate with the job's thread count, whether it is the job's current
// placement as a set. The caller must hold mu.
func (s *Scheduler) holdsLocked(owner string, place placement.Placement) bool {
	for _, c := range place {
		if s.occupied[s.md.Topo.ContextIndex(c)] != owner {
			return false
		}
	}
	return true
}

// mixLocked fills the mix slab with the running jobs in sorted job-ID
// order, followed by extra empty candidate slots, and returns the IDs and
// the slab (pipeline scratch). Floating-point accumulation in the joint
// solver is order-sensitive and scenario replays diff outcomes
// byte-for-byte, so map order must not leak into a prediction. The caller
// must hold mu.
func (s *Scheduler) mixLocked(extra int) ([]string, []core.PlacedWorkload) {
	p := &s.pipe
	p.ids = p.ids[:0]
	for id := range s.running {
		p.ids = append(p.ids, id)
	}
	slices.Sort(p.ids)
	p.mix = p.mix[:0]
	for _, id := range p.ids {
		a := s.running[id]
		p.mix = append(p.mix, core.PlacedWorkload{Workload: a.Job.Workload, Placement: a.Placement})
	}
	for ; extra > 0; extra-- {
		p.mix = append(p.mix, core.PlacedWorkload{})
	}
	return p.ids, p.mix
}

// keyPrefixLocked hashes a mix's fixed jobs[:slot] into a cache key prefix
// (the zero prefix when the cache is disabled). The caller must hold mu.
func (s *Scheduler) keyPrefixLocked(jobs []core.PlacedWorkload, slot int) core.CoKeyPrefix {
	if s.coCache == nil {
		return core.CoKeyPrefix{}
	}
	return s.coCache.KeyPrefix(s.md, s.co.Options(), len(jobs), jobs[:slot])
}

// predictMixLocked jointly predicts one whole mix; see predictSlotLocked.
func (s *Scheduler) predictMixLocked(jobs []core.PlacedWorkload, span int64) (*core.CoPrediction, error) {
	return s.predictSlotLocked(s.keyPrefixLocked(jobs, 0), jobs, 0, span)
}

// predictSlotLocked jointly predicts one mix through the shared prediction
// cache: a canonical-hash hit returns the exact CoPrediction an earlier
// solve produced (callers treat it as read-only), a miss solves on the
// pooled CoPredictor and stores the result. pre is keyPrefixLocked(jobs,
// slot), so only jobs[slot:] are hashed here. span is the requesting
// operation's decision id (0 outside one): it brackets the cache lookup in
// a span and rides into the solver's trace events, but is excluded from the
// cache key (DESIGN.md §12). The caller must hold mu.
func (s *Scheduler) predictSlotLocked(pre core.CoKeyPrefix, jobs []core.PlacedWorkload, slot int, span int64) (*core.CoPrediction, error) {
	s.co.SetSpan(span)
	if s.coCache == nil {
		return s.co.Predict(jobs)
	}
	tr := s.cfg.Tracer
	tracing := span != 0 && tr != nil && tr.Enabled()
	if tracing {
		tr.Emit(obs.Event{Kind: obs.EvSpanBegin, Span: span, Arg: SpanPhaseCache, Job: spanRow})
	}
	key, verify := pre.Extend(jobs[slot:]).Sum()
	cached, ok := s.coCache.Lookup(key, verify)
	if tracing {
		tr.Emit(obs.Event{Kind: obs.EvSpanEnd, Span: span, Arg: SpanPhaseCache, Job: spanRow})
	}
	if ok {
		return cached, nil
	}
	co, err := s.co.Predict(jobs)
	if err != nil {
		return nil, err
	}
	s.coCache.Store(key, verify, co)
	return co, nil
}

// scoring selects what scoreLocked applies beyond dedupe: scorePrune skips
// candidates the Amdahl bound shows cannot win, and scorePolicy flags
// Config.AdmissionThreshold and SlowdownSLO violations (without it every
// candidate passes).
type scoring uint8

const (
	scorePrune scoring = 1 << iota
	scorePolicy
)

// candEval is one jointly scored candidate: cand indexes the candidates,
// co is its mix's joint prediction (read-only: it may be a cache entry),
// and the flags mark an AdmissionThreshold or SlowdownSLO violation, whose
// text violation formats only when it is read.
type candEval struct {
	cand                   int
	co                     *core.CoPrediction
	score                  float64
	overThreshold, overSLO bool
}

// ranking is scoreLocked's result: the scored candidates in candidate
// order (pipeline scratch), the indices into evals of the best
// policy-passing candidate and of the best overall (-1 when there is none;
// ties keep the first), and how many candidates the Amdahl bound skipped.
type ranking struct {
	evals         []candEval
	best, bestAny int
	pruned        int64
}

// scoreLocked jointly predicts each candidate in mix[slot], which must
// hold the candidates' job, against the rest of the mix; pre is
// keyPrefixLocked(mix, slot) and span the requesting decision's id. It
// scores only the first of candidates with equal context sequences and,
// under scorePrune, skips a candidate whose Amdahl bound is at most the
// best policy-passing score so far. The bound sums every job's Amdahl
// speedup in mix order, as aggregateThroughput sums scores, with the slot
// job's at the candidate's thread count; Speedup <= AmdahlSpeedup per job
// is a model invariant, so such a candidate cannot strictly beat that
// score. Nothing is pruned before a candidate passes, so rejection reasons
// are whole. Any solve error fails the whole search. mix[slot].Placement
// is restored on return. The caller must hold mu.
func (s *Scheduler) scoreLocked(cands []candidate, mix []core.PlacedWorkload, slot int,
	pre core.CoKeyPrefix, span int64, mode scoring) (ranking, error) {
	r := ranking{evals: s.pipe.evals[:0], best: -1, bestAny: -1}
	own := mix[slot].Placement
	bestScore, bestAnyScore := -1.0, -1.0
	// head sums the jobs before the slot once; bound is recomputed only
	// when the thread count changes.
	head, boundN, bound := 0.0, -1, 0.0
	if mode&scorePrune != 0 {
		for _, pw := range mix[:slot] {
			head += pw.Workload.AmdahlSpeedup(len(pw.Placement))
		}
	}
	var err error
	for k, cand := range cands {
		if repeats(cands, k) {
			continue
		}
		if mode&scorePrune != 0 {
			if n := len(cand.place); n != boundN {
				boundN, bound = n, head+mix[slot].Workload.AmdahlSpeedup(n)
				for _, pw := range mix[slot+1:] {
					bound += pw.Workload.AmdahlSpeedup(len(pw.Placement))
				}
			}
			if bound <= bestScore {
				metCandidatesPruned.Inc()
				r.pruned++
				continue
			}
		}
		mix[slot].Placement = cand.place
		var co *core.CoPrediction
		if co, err = s.predictSlotLocked(pre, mix, slot, span); err != nil {
			break
		}
		ev := candEval{cand: k, co: co, score: aggregateThroughput(co)}
		if mode&scorePolicy != 0 {
			ev.overThreshold = s.cfg.AdmissionThreshold > 0 && co.WorstOversubscription > s.cfg.AdmissionThreshold
			ev.overSLO = !ev.overThreshold && s.cfg.SlowdownSLO > 0 && worstSlowdown(co) > s.cfg.SlowdownSLO
		}
		r.evals = append(r.evals, ev)
		if ev.score > bestAnyScore {
			bestAnyScore, r.bestAny = ev.score, len(r.evals)-1
		}
		if !ev.overThreshold && !ev.overSLO && ev.score > bestScore {
			bestScore, r.best = ev.score, len(r.evals)-1
		}
	}
	mix[slot].Placement = own
	s.pipe.evals = r.evals
	return r, err
}
