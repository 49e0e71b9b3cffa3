// Package scheduler is an online thread-placement controller built on
// Pandia's predictions — the paper's motivating deployment (§1: "our
// ultimate aim is to support parallel workloads within a server
// application", §8: handling multiple workloads via predicted resource
// consumption).
//
// Jobs arrive with workload descriptions (produced offline by the six-run
// profiler). For each arrival the scheduler generates candidate placements
// over the machine's free hardware contexts, jointly predicts each
// candidate against everything already running with the co-scheduling
// predictor, and picks the candidate that maximises aggregate predicted
// throughput. An optional admission threshold rejects placements that
// would over-subscribe a resource beyond a configured factor.
package scheduler

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"pandia/internal/core"
	"pandia/internal/counters"
	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// Metric handles for the scheduler (catalogued in DESIGN.md §9).
var (
	metSubmissions      = obs.Default().Counter("scheduler.submissions")
	metRejections       = obs.Default().Counter("scheduler.rejections")
	metRejectRate       = obs.Default().Counter("scheduler.rejections.rate_limited")
	metRejectSLO        = obs.Default().Counter("scheduler.rejections.slo")
	metRejectCheck      = obs.Default().Counter("scheduler.rejections.placement_check")
	metDegradedAdmits   = obs.Default().Counter("scheduler.admissions.degraded")
	metRunningJobs      = obs.Default().Gauge("scheduler.running_jobs")
	metRebalanceRuns    = obs.Default().Counter("scheduler.rebalance.runs")
	metRebalanceMoves   = obs.Default().Counter("scheduler.rebalance.moves_advised")
	metRebalanceApplied = obs.Default().Counter("scheduler.rebalance.moves_applied")
	// metCandidatesPruned counts candidate placements skipped under the
	// Amdahl dominance bound (DESIGN.md §12) instead of jointly predicted.
	metCandidatesPruned = obs.Default().Counter("scheduler.candidates.pruned")
)

// Job is a unit of admission: a profiled workload wanting threads.
type Job struct {
	// ID must be unique among running jobs.
	ID string
	// Workload is the job's Pandia description.
	Workload *core.Workload
	// Threads requests a specific thread count; 0 lets the scheduler pick
	// the count with the best predicted completion time.
	Threads int
}

// Assignment records a running job's placement and the joint prediction at
// admission time.
type Assignment struct {
	Job       Job
	Placement placement.Placement
	// Prediction is the job's own prediction under the joint model at the
	// moment of admission (later arrivals can change actual behaviour).
	Prediction *core.Prediction
	// Strategy names the candidate generator that produced the placement.
	Strategy string
	// Degraded marks an admission that violated an admission policy but
	// was accepted anyway under Config.AdmitDegraded (mirroring
	// core.Options.AllowDegraded); DegradedReasons names the violated
	// policies.
	Degraded        bool
	DegradedReasons []string
}

// Config tunes the scheduler.
type Config struct {
	// AdmissionThreshold rejects candidates whose combined predicted
	// over-subscription exceeds this factor on any resource; 0 disables
	// admission control.
	AdmissionThreshold float64
	// CandidateThreadCounts lists the thread counts tried when a job does
	// not request one; nil uses a built-in ladder (1, 2, 4, ... machine).
	CandidateThreadCounts []int
	// SlowdownSLO rejects candidates under which any job's predicted
	// contention slowdown — its ideal Amdahl speedup over its predicted
	// joint speedup — would exceed this bound; 0 disables the SLO.
	SlowdownSLO float64
	// AdmissionRate and AdmissionBurst configure a token bucket over
	// arrivals: AdmissionBurst tokens capacity, refilled at AdmissionRate
	// tokens per second on Clock, one token consumed per admission.
	// AdmissionRate 0 disables rate limiting.
	AdmissionRate  float64
	AdmissionBurst float64
	// AdmitDegraded admits the best available candidate even when the
	// token bucket is empty or every candidate violates SlowdownSLO /
	// AdmissionThreshold, marking the Assignment Degraded with the
	// violated policies as reasons — the overload posture mirroring
	// core.Options.AllowDegraded.
	AdmitDegraded bool
	// Clock times the token bucket. nil means wall time; scenario replays
	// inject an obs.ManualClock so admission decisions are deterministic.
	Clock obs.Clock
	// PlacementCheck, when non-nil, is consulted immediately before any
	// placement commits (admission, applied moves, drain migrations); an
	// error vetoes that commit. Fault injection hooks in here
	// (faults.MachineInjector.PlacementCheck), as would an OS-level
	// pinning dry-run.
	PlacementCheck func(placement.Placement) error
	// Journal, when non-nil and enabled, receives one typed DecisionRecord
	// per scheduler operation — decision id, cause chain, candidate-set
	// size, top-k alternative placements, prune/cache statistics, typed
	// rejection reason — and auto-snapshots its window on incidents (SLO
	// rejection, eviction, degraded admission). A nil or disabled journal
	// costs one branch per operation.
	Journal *obs.Journal
	// Tracer, when non-nil and enabled, receives hierarchical operation
	// spans (Submit → candidate sweep → cache lookup) and is threaded into
	// the joint solver, whose iteration events then carry the operation's
	// decision id — one Perfetto timeline links scheduler decisions to the
	// solver work they caused. Same cost contract as core.Options.Tracer.
	Tracer obs.Tracer
}

// Scheduler places jobs on one machine. It is safe for concurrent use.
type Scheduler struct {
	md    *machine.Description
	cfg   Config
	clock obs.Clock
	// contexts lists the machine's contexts in dense order: entry i is the
	// context the per-context state below holds at index i.
	contexts []topology.Context

	mu sync.Mutex
	//pandia:guardedby(mu)
	running map[string]*Assignment
	// occupied[i] is the ID of the job holding context i (indexed by
	// Topo.ContextIndex), "" when the context is free.
	//pandia:guardedby(mu)
	occupied []string
	// health[i] is context i's health; unhealthy counts the contexts that
	// are not Healthy.
	//pandia:guardedby(mu)
	health []Health
	//pandia:guardedby(mu)
	unhealthy int
	// tokens / lastRefill implement the admission token bucket.
	//pandia:guardedby(mu)
	tokens float64
	//pandia:unit seconds
	//pandia:guardedby(mu)
	lastRefill float64
	// co is the reusable joint-prediction pipeline. A CoPredictor owns
	// mutable engine scratch, so it is only used while mu is held.
	//pandia:guardedby(mu)
	co *core.CoPredictor
	// coCache memoizes joint predictions across Submit, Predict, Rebalance,
	// and drain candidate scoring. A hit returns the exact prediction an
	// earlier solve produced (the key is a canonical content hash —
	// DESIGN.md §12), so the cache changes no decision. It is itself
	// concurrency-safe, but it is only touched under mu alongside co.
	//pandia:guardedby(mu)
	coCache *core.CoCache
	// pipe is the candidate pipeline's scratch (pipeline.go).
	//pandia:guardedby(mu)
	pipe pipeline
}

// New builds a scheduler for the described machine.
func New(md *machine.Description, cfg Config) (*Scheduler, error) {
	co, err := core.NewCoPredictor(md, core.Options{Tracer: cfg.Tracer})
	if err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = obs.WallClock()
	}
	n := md.Topo.TotalContexts()
	s := &Scheduler{
		md:       md,
		cfg:      cfg,
		clock:    clock,
		contexts: md.Topo.Contexts(),
		running:  make(map[string]*Assignment),
		occupied: make([]string, n),
		health:   make([]Health, n),
		co:       co,
		coCache:  core.NewCoCache(0),
		pipe:     newPipeline(md.Topo),
	}
	if cfg.AdmissionRate > 0 {
		// The bucket starts full so a fresh scheduler accepts a burst.
		s.tokens = s.burst()
		s.lastRefill = clock.Now()
	}
	return s, nil
}

// Machine returns the scheduler's machine shape.
func (s *Scheduler) Machine() topology.Machine { return s.md.Topo }

// FreeContexts returns the unoccupied hardware contexts in dense order.
func (s *Scheduler) FreeContexts() []topology.Context {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]topology.Context(nil), s.availLocked("")...)
}

// placeLocked records owner on every context of p ("" frees them). The
// caller must hold mu.
func (s *Scheduler) placeLocked(owner string, p placement.Placement) {
	for _, c := range p {
		s.occupied[s.md.Topo.ContextIndex(c)] = owner
	}
}

// Assignments returns the running assignments sorted by job ID.
func (s *Scheduler) Assignments() []*Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, _ := s.mixLocked(0)
	out := make([]*Assignment, len(ids))
	for i, id := range ids {
		out[i] = s.running[id]
	}
	return out
}

// Submit admits a job: it evaluates candidate placements over the free
// contexts jointly with everything running and commits the best one.
// Every admission bumps scheduler.submissions, every failure (validation,
// no feasible placement, admission threshold) scheduler.rejections.
func (s *Scheduler) Submit(job Job) (asgn *Assignment, err error) {
	defer func() {
		if err != nil {
			metRejections.Inc()
		} else {
			metSubmissions.Inc()
		}
	}()
	if job.ID == "" {
		return nil, fmt.Errorf("scheduler: job needs an ID")
	}
	if job.Workload == nil {
		return nil, fmt.Errorf("scheduler: job %q has no workload description", job.ID)
	}
	if err := job.Workload.Validate(); err != nil {
		return nil, err
	}
	if job.Workload.Demand == (counters.Rates{}) {
		return nil, fmt.Errorf("scheduler: job %q has an empty demand vector; profile the workload before submission", job.ID)
	}
	if job.Threads < 0 {
		return nil, fmt.Errorf("scheduler: job %q requests %d threads", job.ID, job.Threads)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.running[job.ID]; dup {
		return nil, fmt.Errorf("scheduler: job %q already running", job.ID)
	}

	sc := s.beginOpLocked("submit", job.ID)
	defer sc.end()

	var degradedReasons []string
	if s.cfg.AdmissionRate > 0 {
		if !s.takeTokenLocked() {
			if !s.cfg.AdmitDegraded {
				metRejectRate.Inc()
				aerr := &AdmissionError{JobID: job.ID, Kind: AdmitRateLimited,
					Reason: fmt.Sprintf("token bucket empty (rate %g/s, burst %g)",
						s.cfg.AdmissionRate, s.burst())}
				sc.rejected(aerr.Kind.String(), aerr.Reason)
				return nil, aerr
			}
			degradedReasons = append(degradedReasons, "admission: rate limit exceeded, admitted degraded")
		}
	}

	free := s.availLocked("")
	if len(free) == 0 {
		aerr := &AdmissionError{JobID: job.ID, Kind: AdmitNoCapacity,
			Reason: "no free healthy hardware contexts"}
		sc.rejected(aerr.Kind.String(), aerr.Reason)
		return nil, aerr
	}
	s.pipe.counts = s.candidateCounts(s.pipe.counts[:0], job, len(free))

	sc.phase(SpanPhaseSweep, true)
	cands := s.candidatesLocked("", free, s.pipe.counts...)
	if len(cands) == 0 {
		sc.phase(SpanPhaseSweep, false)
		aerr := &AdmissionError{JobID: job.ID, Kind: AdmitNoCapacity,
			Reason: fmt.Sprintf("no feasible placement (%d free contexts)", len(free))}
		sc.rejected(aerr.Kind.String(), aerr.Reason)
		return nil, aerr
	}
	// The slab holds the running jobs in job-ID order and the candidate in
	// its last slot; the key prefix covers everything but that slot.
	_, mix := s.mixLocked(1)
	slot := len(mix) - 1
	mix[slot].Workload = job.Workload
	r, err := s.scoreLocked(cands, mix, slot, s.keyPrefixLocked(mix, slot), sc.id, scorePrune|scorePolicy)
	sc.phase(SpanPhaseSweep, false)
	sc.swept(len(cands), r.pruned)
	if err != nil {
		sc.errored(err)
		return nil, err
	}
	best := r.best
	if best < 0 {
		if !s.cfg.AdmitDegraded {
			aerr := s.policyRejection(job.ID, cands, r.evals)
			sc.submitted(cands, r.evals, -1, nil, aerr)
			return nil, aerr
		}
		best = r.bestAny
		degradedReasons = append(degradedReasons,
			"admission: every candidate violates admission policy, admitted degraded")
	}

	ev, chosen := &r.evals[best], cands[r.evals[best].cand]
	asgn = &Assignment{
		Job:        job,
		Placement:  slices.Clone(chosen.place),
		Prediction: ev.co.Predictions[slot],
		Strategy:   chosen.strategy,
	}
	if s.cfg.PlacementCheck != nil {
		if cerr := s.cfg.PlacementCheck(asgn.Placement); cerr != nil {
			metRejectCheck.Inc()
			perr := &PlacementCheckError{JobID: job.ID, Err: cerr}
			sc.rejected("placement-check", perr.Error())
			return nil, perr
		}
	}

	if len(degradedReasons) > 0 {
		asgn.Degraded = true
		asgn.DegradedReasons = degradedReasons
		metDegradedAdmits.Inc()
	}
	s.running[job.ID] = asgn
	s.placeLocked(job.ID, asgn.Placement)
	metRunningJobs.Set(float64(len(s.running)))
	sc.submitted(cands, r.evals, best, asgn, nil)
	return asgn, nil
}

// policyRejection builds the error for a Submit whose every scored
// candidate violates an admission policy: SLO-exceeded when any violates
// the SLO, oversubscribed otherwise, with each violation in the reason.
func (s *Scheduler) policyRejection(jobID string, cands []candidate, evals []candEval) *AdmissionError {
	kind := AdmitOversubscribed
	var violations []string
	for i := range evals {
		if evals[i].overSLO {
			kind = AdmitSLOExceeded
		}
		if v := s.violation(cands, &evals[i]); v != "" {
			violations = append(violations, v)
		}
	}
	if kind == AdmitSLOExceeded {
		metRejectSLO.Inc()
	}
	return &AdmissionError{JobID: jobID, Kind: kind,
		Reason: "every candidate violates admission policy: " + strings.Join(violations, "; ")}
}

// violation renders a candidate's policy violation ("" when it has none).
func (s *Scheduler) violation(cands []candidate, ev *candEval) string {
	switch {
	case ev.overThreshold:
		return fmt.Sprintf("%s: oversubscription %.2f > threshold %.2f",
			cands[ev.cand].strategy, ev.co.WorstOversubscription, s.cfg.AdmissionThreshold)
	case ev.overSLO:
		return fmt.Sprintf("%s: worst slowdown %.2f > SLO %.2f",
			cands[ev.cand].strategy, worstSlowdown(ev.co), s.cfg.SlowdownSLO)
	}
	return ""
}

// burst returns the token bucket capacity (at least one token).
func (s *Scheduler) burst() float64 {
	if s.cfg.AdmissionBurst > 1 {
		return s.cfg.AdmissionBurst
	}
	return 1
}

// takeTokenLocked refills the admission token bucket from the clock and
// consumes one token, reporting whether one was available. The caller must
// hold mu.
func (s *Scheduler) takeTokenLocked() bool {
	now := s.clock.Now()
	if elapsed := now - s.lastRefill; elapsed > 0 {
		s.tokens += elapsed * s.cfg.AdmissionRate
		if max := s.burst(); s.tokens > max {
			s.tokens = max
		}
	}
	s.lastRefill = now
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}

// worstSlowdown is the SLO metric: the largest ratio of ideal Amdahl
// speedup to predicted joint speedup across the co-schedule — how far the
// worst-affected job is pushed from its contention-free scaling.
func worstSlowdown(co *core.CoPrediction) float64 {
	worst := 0.0
	for _, p := range co.Predictions {
		if p.Speedup <= 0 {
			return math.Inf(1)
		}
		if sl := p.AmdahlSpeedup / p.Speedup; sl > worst {
			worst = sl
		}
	}
	return worst
}

// Remove releases a finished job's contexts.
func (s *Scheduler) Remove(jobID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.running[jobID]
	if !ok {
		return fmt.Errorf("scheduler: job %q not running", jobID)
	}
	s.placeLocked("", a.Placement)
	delete(s.running, jobID)
	metRunningJobs.Set(float64(len(s.running)))
	return nil
}

// Predict re-predicts the whole running mix jointly (for monitoring). The
// prediction runs under the lock so it can reuse the scheduler's pooled
// CoPredictor.
func (s *Scheduler) Predict() (*core.CoPrediction, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, jobs := s.mixLocked(0)
	if len(jobs) == 0 {
		return nil, fmt.Errorf("scheduler: nothing running")
	}
	sc := s.beginOpLocked("predict", "")
	defer sc.end()
	co, err := s.predictMixLocked(jobs, sc.id)
	if err != nil {
		sc.errored(err)
		return nil, err
	}
	sc.predicted(len(jobs), co)
	return co, nil
}

// InvalidatePredictions drops every cached joint prediction (the canonical
// keys already stop matching when the machine description or a workload is
// mutated in place; this is the O(1) bulk epoch bump for callers that want
// the memory back too).
func (s *Scheduler) InvalidatePredictions() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.coCache.Invalidate()
}

// PredictionCacheStats reports the shared joint-prediction cache's lifetime
// traffic.
func (s *Scheduler) PredictionCacheStats() core.CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coCache.Stats()
}

// candidateCounts appends the thread-count ladder for a job to out.
func (s *Scheduler) candidateCounts(out []int, job Job, free int) []int {
	if job.Threads > 0 {
		if job.Threads > free {
			return out
		}
		return append(out, job.Threads)
	}
	if len(s.cfg.CandidateThreadCounts) > 0 {
		for _, n := range s.cfg.CandidateThreadCounts {
			if n >= 1 && n <= free {
				out = append(out, n)
			}
		}
		return out
	}
	for n := 1; n <= free; n *= 2 {
		out = append(out, n)
	}
	if out[len(out)-1] != free {
		out = append(out, free)
	}
	return out
}

// aggregateThroughput scores a joint prediction: the sum of every job's
// predicted speedup. Growing the new job raises its own term until its
// bottleneck saturates, and any interference it inflicts lowers the others'
// terms, so the maximum balances the new job's progress against the damage
// it does.
func aggregateThroughput(co *core.CoPrediction) float64 {
	var sum float64
	for _, p := range co.Predictions {
		sum += p.Speedup
	}
	return sum
}
