package main

// Pieces shared by the two scheduler workloads (churn and ops): machine and
// palette set-up, the deferred co-run accuracy measurement, and the cold
// joint-prediction check.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pandia/internal/core"
	"pandia/internal/faults"
	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/scheduler"
	"pandia/internal/simhw"
	"pandia/internal/workload"
)

const schedMachine = "x5-2"

// describeMachine builds the scheduler workloads' testbed and measures its
// description through the (on a traced pass, timing) runner.
func describeMachine(e *env) (*simhw.Testbed, *machine.Description, error) {
	tb, err := simhw.NewTestbed(simhw.Truths()[schedMachine])
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	md, _, err := machine.DescribeWith(runnerFor(tb, e.lay), faults.Policy{})
	if err != nil {
		return nil, nil, err
	}
	e.layer("machine.describe_ms", ms(time.Since(t0)))
	return tb, md, nil
}

// profileAll profiles every truth through the (timing) runner.
func profileAll(e *env, tb *simhw.Testbed, md *machine.Description, truths []simhw.WorkloadTruth) ([]*core.Workload, error) {
	prof := &workload.Profiler{TB: runnerFor(tb, e.lay), MD: md}
	t0 := time.Now()
	out := make([]*core.Workload, len(truths))
	for i, t := range truths {
		p, err := prof.Profile(t)
		if err != nil {
			return nil, err
		}
		out[i] = &p.Workload
	}
	e.layer("workload.profile_ms", ms(time.Since(t0)))
	return out, nil
}

// mixSample is an admitted mix kept for the deferred checks: every running
// job in the scheduler's evaluation order (the admitted job last), their
// behaviours, and the prediction the scheduler committed for the admitted
// job.
type mixSample struct {
	job    string
	jobs   []core.PlacedWorkload
	truths []simhw.WorkloadTruth
	want   *core.Prediction
}

// mixState snapshots the running mix right after job's admission.
func mixState(s *scheduler.Scheduler, job string, truths map[string]simhw.WorkloadTruth) (mixSample, error) {
	ms := mixSample{job: job}
	asgns := s.Assignments()
	for _, a := range asgns {
		ms.jobs = append(ms.jobs, core.PlacedWorkload{Workload: a.Job.Workload, Placement: a.Placement})
		ms.truths = append(ms.truths, truths[a.Job.ID])
	}
	if len(asgns) == 0 || asgns[len(asgns)-1].Job.ID != job {
		return ms, fmt.Errorf("admitted job %s is not the last running job in ID order", job)
	}
	ms.want = asgns[len(asgns)-1].Prediction
	return ms, nil
}

// checkCold solves the mix cold and uncached, requires the admitted job's
// prediction to equal the scheduler's bit for bit, and returns the mix's
// aggregate predicted speedup and the cold predictions.
func checkCold(md *machine.Description, ms mixSample) (agg float64, co *core.CoPrediction, d time.Duration, err error) {
	t0 := time.Now()
	co, err = core.PredictCoSchedule(md, ms.jobs, core.Options{})
	d = time.Since(t0)
	if err != nil {
		return 0, nil, d, fmt.Errorf("cold solve for %s: %w", ms.job, err)
	}
	for _, p := range co.Predictions {
		agg += p.Speedup
	}
	got := co.Predictions[len(co.Predictions)-1]
	if math.Float64bits(got.Time) != math.Float64bits(ms.want.Time) ||
		math.Float64bits(got.Speedup) != math.Float64bits(ms.want.Speedup) {
		return agg, co, d, fmt.Errorf("job %s: scheduler predicted time %v speedup %v, cold solve %v / %v",
			ms.job, ms.want.Time, ms.want.Speedup, got.Time, got.Speedup)
	}
	return agg, co, d, nil
}

// corunErrors runs every job of the mix on the testbed with the other
// jobs' threads as interfering load and returns each joint prediction's
// relative error in percent.
func corunErrors(tb *simhw.Testbed, ms mixSample, co *core.CoPrediction) ([]float64, error) {
	var errs []float64
	for i, pw := range ms.jobs {
		var others []simhw.PlacedStressor
		for k, o := range ms.jobs {
			if k == i {
				continue
			}
			for _, c := range o.Placement {
				others = append(others, simhw.PlacedStressor{Ctx: c, Truth: ms.truths[k]})
			}
		}
		res, err := tb.Run(simhw.RunConfig{Workload: ms.truths[i], Placement: pw.Placement, Stressors: others})
		if err != nil {
			return errs, err
		}
		errs = append(errs, 100*math.Abs(co.Predictions[i].Time-res.Time)/res.Time)
	}
	return errs, nil
}

// schedCounters reads the scheduler-side counters a traced pass attributes
// per Submit: joint-cache lookups and pruned candidates.
func schedCounters(s *scheduler.Scheduler) (lookups, pruned int64) {
	c := s.PredictionCacheStats()
	return c.Hits + c.Misses, obs.Default().Counter("scheduler.candidates.pruned").Value()
}

// allocEvery-th Submit is measured for allocations on a traced pass (the
// measurement stops the world).
const allocEvery = 8

// Beyond the block, every sampleEvery-th admission is re-solved cold, at
// most maxSamples times.
const (
	sampleEvery = 509
	maxSamples  = 16
)

// writer is the scheduler workloads' writing client. It keeps the running
// jobs oldest first and issues every scheduler operation through timed, so
// each is timed and accounted on the current pass.
type writer struct {
	s    *scheduler.Scheduler
	md   *machine.Description
	tb   *simhw.Testbed
	sink *spanSink
	// slots is how many jobs run at once; the oldest leaves before an
	// arrival once they are all taken, or after an arrival was turned away.
	slots   int
	fifo    []string
	truths  map[string]simhw.WorkloadTruth
	starved bool
	nextID  int
	submits int
	// leaving, when set, is told about a job before the writer removes it.
	leaving func(id string)
	// tick, when set, is called after every measured operation.
	tick func()
	p    *writerPass
}

func newWriter(e *env, tb *simhw.Testbed, md *machine.Description, cfg scheduler.Config, slots int) (*writer, error) {
	wr := &writer{md: md, tb: tb, slots: slots, truths: make(map[string]simhw.WorkloadTruth)}
	if e.traced() {
		wr.sink = newSpanSink()
		cfg.Tracer = wr.sink
		if cfg.Journal == nil {
			// The scheduler draws span ids from its journal; one left
			// disabled hands out ids and records nothing.
			cfg.Journal = obs.NewJournal(1, nil)
		}
	}
	s, err := scheduler.New(md, cfg)
	if err != nil {
		return nil, err
	}
	wr.s = s
	return wr, nil
}

// writerPass accumulates one pass of the writer. A warm-up pass (w nil)
// only counts operations, so set-up can fail on any failure.
type writerPass struct {
	e      *env
	w      *window
	ledger *opLedger
	lat    map[string][]float64
	busy   time.Duration
	ops    int
	dig    *digest
	// blockLeft counts the submits still inside the deterministic block.
	blockLeft, blockSubs, rejected int
	// mixes are the admitted mixes kept for the deferred checks; the
	// first blockMixes of them were admitted inside the block.
	mixes             []mixSample
	blockMixes        int
	admitted, sampled int
	// Traced pass only.
	allocs                []float64
	lookups, pruned, subs int64
}

func (wr *writer) warmPass(e *env) {
	wr.p = &writerPass{e: e, ledger: newOpLedger(), lat: map[string][]float64{}, dig: newDigest()}
}

func (wr *writer) measurePass(e *env, block int) {
	wr.p = &writerPass{e: e, ledger: e.ledger, lat: map[string][]float64{}, dig: newDigest(),
		blockLeft: block, w: openWindow(e.seconds)}
}

// warmErr reports the first failure of a warm-up pass.
func (p *writerPass) warmErr() error {
	if _, failed := p.ledger.totals(); failed > 0 {
		return fmt.Errorf("warm-up: %s", p.ledger.failures()[0])
	}
	return nil
}

func (p *writerPass) measuring() bool { return p.w != nil }
func (p *writerPass) inBlock() bool   { return p.blockLeft > 0 }
func (p *writerPass) traced() bool    { return p.measuring() && p.e.traced() }

// untimed runs benchmark bookkeeping outside the measured calls.
func (p *writerPass) untimed(f func()) {
	if p.w == nil {
		f()
		return
	}
	p.w.untimedDo(f)
}

// note adds one decision to the block's digest.
func (p *writerPass) note(fields ...string) {
	if p.measuring() && p.inBlock() {
		p.untimed(func() { p.dig.add(fields...) })
	}
}

// timed issues one operation of class, timing and accounting it.
func (wr *writer) timed(class string, f func() error) error {
	if wr.sink != nil {
		wr.sink.setOp(class)
	}
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	p := wr.p
	p.ledger.done(class, err)
	if p.measuring() {
		p.busy += d
		p.ops++
		p.lat[class] = append(p.lat[class], us(d))
		if wr.tick != nil {
			wr.tick()
		}
	}
	return err
}

// checkConsistency runs the scheduler's consistency check as an output
// check.
func (wr *writer) checkConsistency() {
	wr.p.untimed(func() { wr.p.ledger.check(wr.s.CheckConsistency()) })
}

// forget drops jobs the scheduler evicted.
func (wr *writer) forget(ids []string) {
	for _, id := range ids {
		delete(wr.truths, id)
		for i, f := range wr.fifo {
			if f == id {
				wr.fifo = append(wr.fifo[:i], wr.fifo[i+1:]...)
				break
			}
		}
	}
}

func (wr *writer) removeOldest() {
	id := wr.fifo[0]
	if wr.leaving != nil {
		wr.leaving(id)
	}
	wr.fifo = wr.fifo[1:]
	delete(wr.truths, id)
	err := wr.timed("remove", func() error { return wr.s.Remove(id) })
	wr.p.note("remove", id, outcome(err))
}

// removeAll removes every running job, oldest first.
func (wr *writer) removeAll() {
	for len(wr.fifo) > 0 {
		wr.removeOldest()
	}
}

// submit makes room if needed and submits one job.
func (wr *writer) submit(desc *core.Workload, truth simhw.WorkloadTruth, threads int) {
	p := wr.p
	if len(wr.fifo) >= wr.slots || (wr.starved && len(wr.fifo) > 0) {
		wr.removeOldest()
	}
	wr.submits++
	wr.nextID++
	job := scheduler.Job{ID: fmt.Sprintf("j%08d", wr.nextID), Workload: desc, Threads: threads}
	var asgn *scheduler.Assignment
	var m0 runtime.MemStats
	var look0, prune0 int64
	sampleAlloc := p.traced() && wr.submits%allocEvery == 0
	if p.traced() {
		p.untimed(func() {
			look0, prune0 = schedCounters(wr.s)
			if sampleAlloc {
				runtime.ReadMemStats(&m0)
			}
		})
	}
	err := wr.timed("submit", func() (err error) { asgn, err = wr.s.Submit(job); return err })
	if p.traced() {
		p.untimed(func() {
			if sampleAlloc {
				var m1 runtime.MemStats
				runtime.ReadMemStats(&m1)
				p.allocs = append(p.allocs, float64(m1.Mallocs-m0.Mallocs))
			}
			look1, prune1 := schedCounters(wr.s)
			p.lookups += look1 - look0
			p.pruned += prune1 - prune0
			p.subs++
		})
	}
	wr.starved = err != nil
	if err == nil {
		wr.fifo = append(wr.fifo, job.ID)
		wr.truths[job.ID] = truth
	}
	if p.measuring() {
		wr.record(job.ID, asgn, err)
	}
}

// record books one Submit outcome: the digest and the quality samples
// inside the block, sampled cold-solve checks beyond it.
func (wr *writer) record(id string, asgn *scheduler.Assignment, err error) {
	p := wr.p
	inBlock := p.inBlock()
	if err == nil {
		p.note("submit", id, asgn.Placement.String(), asgn.Strategy, "admitted")
	} else {
		p.note("submit", id, outcome(err))
	}
	p.untimed(func() {
		if inBlock {
			p.blockLeft--
			p.blockSubs++
			if err != nil {
				p.rejected++
			}
		}
		if err != nil {
			return
		}
		p.admitted++
		if !inBlock {
			if p.admitted%sampleEvery != 0 || p.sampled >= maxSamples {
				return
			}
			p.sampled++
		}
		ms, serr := mixState(wr.s, id, wr.truths)
		p.ledger.check(serr)
		if serr != nil {
			return
		}
		p.mixes = append(p.mixes, ms)
		if inBlock {
			p.blockMixes++
		}
	})
}

// rebalance asks for rebalancing advice and applies the best move.
func (wr *writer) rebalance(minGain float64) {
	var rep *scheduler.RebalanceReport
	err := wr.timed("rebalance", func() (err error) { rep, err = wr.s.Rebalance(minGain); return err })
	if err != nil || rep == nil || len(rep.Moves) == 0 {
		wr.p.note("rebalance", outcome(err))
		return
	}
	m := rep.Moves[0]
	err = wr.timed("apply-move", func() error { return wr.s.ApplyMove(m) })
	wr.p.note("apply-move", m.JobID, m.To.String(), m.Strategy, outcome(err))
}

// outcome names an operation's result for the digest.
func outcome(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// finish closes the pass window, runs the deferred checks, and computes
// the end-to-end metrics and, on a traced pass, the scheduler-side layers.
func (wr *writer) finish(e *env, cache0 core.CacheStats, reg registryDelta) *passResult {
	p := wr.p
	p.w.close()
	cache1 := wr.s.PredictionCacheStats()

	var aggs, errs, cold, iters []float64
	for i, ms := range p.mixes {
		agg, co, d, err := checkCold(wr.md, ms)
		p.ledger.check(err)
		cold = append(cold, us(d))
		if co != nil {
			iters = append(iters, float64(co.Iterations))
		}
		if err != nil || i >= p.blockMixes {
			continue
		}
		aggs = append(aggs, agg)
		e, err := corunErrors(wr.tb, ms, co)
		p.ledger.check(err)
		errs = append(errs, e...)
	}

	res := &passResult{E2E: map[string]float64{}, Digest: p.dig.String(), Tails: map[string]tail{},
		Decisions: p.lat["submit"]}
	for class, v := range p.lat {
		res.Tails[class+"_us"] = tailOf(v)
	}
	res.E2E["decisions_per_s"] = robustRate(p.lat)
	res.E2E["decide_p50_us"] = percentile(p.lat["submit"], 50)
	res.E2E["decide_p90_us"] = percentile(p.lat["submit"], 90)
	res.E2E["agg_speedup"] = mean(aggs)
	res.E2E["predict_err_pct"] = iqMean(errs)
	res.Notes = append(res.Notes, fmt.Sprintf("prediction error over %d placements: interquartile mean %.3f%%, median %.3f%%, mean %.3f%%",
		len(errs), iqMean(errs), median(errs), mean(errs)))
	res.E2E["alloc_kb_per_op"] = float64(p.w.HeapBytes) / 1024 / float64(p.ops)
	hits := float64(cache1.Hits - cache0.Hits)
	lookups := float64(cache1.Hits + cache1.Misses - cache0.Hits - cache0.Misses)
	rejectPct := pct(float64(p.rejected), float64(p.blockSubs))
	res.Notes = append(res.Notes,
		fmt.Sprintf("writer: %d operations, %.1f per second of operation time", p.ops, float64(p.ops)/p.busy.Seconds()),
		fmt.Sprintf("block: %d submits, %d rejected (%.2f%%), %d co-runs measured; joint cache hit rate %.2f%% over %d lookups",
			p.blockSubs, p.rejected, rejectPct, len(errs), pct(hits, lookups), int(lookups)))
	if !e.traced() {
		return res
	}
	out := map[string]float64{}
	setupLayers(out, e)
	registryLayers(out, reg)
	goLayers(out, p.w)
	out["core.cosolve_us"] = median(cold)
	// Joint solves do not feed the core.predict.iterations histogram; the
	// cold re-solves of the admitted mixes give their iteration counts.
	out["core.iterations_mean"] = mean(iters)
	out["core.cocache.hit_pct"] = pct(hits, lookups)
	out["scheduler.submit.allocs"] = mean(p.allocs)
	cands := float64(p.lookups + p.pruned)
	out["scheduler.submit.candidates"] = cands / float64(p.subs)
	out["scheduler.candidates.pruned_pct"] = pct(float64(p.pruned), cands)
	out["scheduler.submit.sweep_self_us"] = us(wr.sink.selfTime("submit", scheduler.SpanPhaseSweep)) / float64(p.subs)
	out["scheduler.submit.cache_self_us"] = us(wr.sink.selfTime("submit", scheduler.SpanPhaseCache)) / float64(p.subs)
	out["scheduler.remove_us"] = median(p.lat["remove"])
	out["scheduler.rebalance_ms"] = median(p.lat["rebalance"]) / 1000
	out["scheduler.reject_pct"] = rejectPct
	res.Layer = out
	return res
}
