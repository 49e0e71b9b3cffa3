package main

// The advise workload: one client asks pandia.System.Recommend where to
// place a stream of freshly profiled workloads on the four-socket x2-4.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pandia"
	"pandia/internal/core"
	"pandia/internal/faults"
	"pandia/internal/machine"
	"pandia/internal/placement"
	"pandia/internal/workload"
)

const adviseWhy = "Recommend on x2-4 for perturbed zoo profiles: placement sampling and the solo sweep do the work; no scheduler, journal or HTTP"

const (
	adviseMachine = "x2-4"
	adviseTarget  = 0.95
	// adviseBlock is the number of leading requests the deterministic
	// metrics and the digest cover: two rounds of the zoo.
	adviseBlock = 44
	// adviseRounds is the number of leading rounds of the zoo the timing
	// metrics cover; a pass runs at least that many. Rounds differ in cost,
	// so statistics over however many rounds fit the window would move
	// with the host's speed.
	adviseRounds = 4
	// adviseCheckEvery picks the block requests whose Best is re-derived
	// by an unpruned, uncached sweep.
	adviseCheckEvery = 11
)

type adviseBench struct {
	sys     *pandia.System
	md      *machine.Description
	palette []pandia.WorkloadSpec
}

// setupAdvise measures the machine, profiles the zoo, enumerates the
// placement space once (memoised from then on) and warms Recommend up.
func setupAdvise(e *env) (measurer, error) {
	t0 := time.Now()
	sys, err := pandia.NewSystem(adviseMachine)
	if err != nil {
		return nil, err
	}
	e.layer("machine.describe_ms", ms(time.Since(t0)))
	b := &adviseBench{sys: sys, md: sys.Description()}
	prof := &workload.Profiler{TB: runnerFor(sys.Testbed(), e.lay), MD: b.md}
	t0 = time.Now()
	var first *pandia.WorkloadDescription
	for _, z := range pandia.Benchmarks() {
		p, err := prof.Profile(z.Truth)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = &p.Workload
		}
		b.palette = append(b.palette, z.Truth)
	}
	e.layer("workload.profile_ms", ms(time.Since(t0)))
	t0 = time.Now()
	placement.Enumerate(sys.Machine())
	e.layer("placement.enumerate_ms", ms(time.Since(t0)))
	if _, err := sys.Recommend(first, adviseTarget); err != nil {
		return nil, err
	}
	if e.traced() {
		// System builds its description internally; describe once more
		// through the timing runner so simhw counts the stress runs too.
		if _, _, err := machine.DescribeWith(runnerFor(sys.Testbed(), e.lay), faults.Policy{}); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// adviseDone is one block request kept for the post-window checks.
type adviseDone struct {
	req  adviseRequest
	desc *core.Workload
	rec  *pandia.Recommendation
}

func (b *adviseBench) measure(e *env) (*passResult, error) {
	gen := newAdviseGen(e.seed, b.palette)
	prof := &workload.Profiler{TB: b.sys.Testbed(), MD: b.md}
	dig := newDigest()
	cache0 := b.sys.PredictionCacheStats()
	reg := newRegistryDelta()
	var lat, placeRates []float64
	var block []adviseDone
	var busy time.Duration

	// The window closes only at the end of a round, and not before
	// adviseRounds rounds unless a call fails.
	var failed bool
	timed := adviseRounds * len(b.palette)
	w := openWindow(e.seconds)
	for (gen.seq < timed && !failed) || w.open() || gen.seq%len(b.palette) != 0 {
		var req adviseRequest
		var desc *core.Workload
		var perr error
		w.untimedDo(func() {
			req = gen.next()
			var p *workload.Profile
			if p, perr = prof.Profile(req.Truth); perr == nil {
				desc = &p.Workload
			}
		})
		if perr != nil {
			return nil, fmt.Errorf("profiling request %d: %w", req.Seq, perr)
		}
		// Every Recommend allocates tens of megabytes; collecting before
		// each one starts every call from the same heap, so when the
		// collector runs inside a call is not left to chance.
		runtime.GC()
		t0 := time.Now()
		rec, err := b.sys.Recommend(desc, adviseTarget)
		d := time.Since(t0)
		if e.ledger.done("recommend", err) {
			failed = true
			continue
		}
		busy += d
		lat = append(lat, us(d))
		w.untimedDo(func() {
			placeRates = append(placeRates, float64(rec.Sweep.Evaluated+rec.Sweep.Pruned)/d.Seconds())
			if e.traced() {
				b.traceLayers(e, desc, rec)
			}
			if len(block) < adviseBlock {
				block = append(block, adviseDone{req: req, desc: desc, rec: rec})
				dig.add(req.Truth.Name, pandia.FormatShape(rec.Best), pandia.FormatShape(rec.Minimal), "recommended")
			}
		})
	}
	w.close()

	res := &passResult{E2E: map[string]float64{}, Digest: dig.String(), Decisions: lat,
		Tails: map[string]tail{"recommend_us": tailOf(lat)}}
	speedup, errs := b.check(e, block)
	n := float64(len(lat))
	first := lat[:min(timed, len(lat))]
	res.E2E["decisions_per_s"] = robustRate(map[string][]float64{"recommend": first})
	res.E2E["decide_p50_us"] = percentile(first, 50)
	res.E2E["decide_p90_us"] = percentile(first, 90)
	res.E2E["agg_speedup"] = speedup
	res.E2E["predict_err_pct"] = iqMean(errs)
	res.Notes = append(res.Notes, fmt.Sprintf("prediction error over %d placements: interquartile mean %.3f%%, median %.3f%%, mean %.3f%%",
		len(errs), iqMean(errs), median(errs), mean(errs)))
	res.E2E["alloc_kb_per_op"] = float64(w.HeapBytes) / 1024 / n
	res.Notes = append(res.Notes, fmt.Sprintf("recommend calls %d in %d whole rounds of the zoo, %.3f per second of call time; timing metrics over the first %d calls; block of %d",
		len(lat), len(lat)/len(b.palette), n/busy.Seconds(), len(first), len(block)))
	if e.traced() {
		res.Layer = b.layers(e, w, reg, cache0, placeRates)
	}
	return res, nil
}

// traceLayers times the layer calls one Recommend is made of, issued again
// from outside: the placement sample, the shape expansion, the pruned
// sweep, and one full-detail prediction.
func (b *adviseBench) traceLayers(e *env, desc *core.Workload, rec *pandia.Recommendation) {
	topo := b.sys.Machine()
	t0 := time.Now()
	shapes := b.sys.Shapes(4000)
	e.layer("placement.sample_ms", ms(time.Since(t0)))
	t0 = time.Now()
	places := make([]placement.Placement, len(shapes))
	for i, s := range shapes {
		places[i] = s.Expand(topo)
	}
	e.layer("placement.expand_us", us(time.Since(t0))/float64(len(shapes)))
	t0 = time.Now()
	_, stats, err := core.PredictSweepPruned(b.md, desc, places, core.Options{}, adviseTarget)
	e.layer("core.sweep_ms", ms(time.Since(t0)))
	e.ledger.done("trace-sweep", err)
	e.layer("core.sweep.prune_pct", 100*stats.PruneRate())
	t0 = time.Now()
	_, err = core.Predict(b.md, desc, rec.Best.Expand(topo), core.Options{})
	e.layer("core.predict_us", us(time.Since(t0)))
	e.ledger.done("trace-predict", err)
}

// check verifies the block's recommendations and returns the mean
// predicted speedup of Best and the prediction errors against the testbed:
// every recommendation must be internally consistent, its predictions must
// match the testbed within reason, and on every adviseCheckEvery-th request
// an unpruned, uncached sweep must pick the same Best.
func (b *adviseBench) check(e *env, block []adviseDone) (speedup float64, errs []float64) {
	topo := b.sys.Machine()
	for i, d := range block {
		rec := d.rec
		if rec.BestPrediction == nil || rec.MinimalPrediction == nil {
			e.ledger.check(fmt.Errorf("request %d: recommendation without predictions", d.req.Seq))
			continue
		}
		if rec.MinimalPrediction.Speedup < adviseTarget*rec.BestPrediction.Speedup {
			e.ledger.check(fmt.Errorf("request %d: Minimal speedup %g below %g of Best %g",
				d.req.Seq, rec.MinimalPrediction.Speedup, adviseTarget, rec.BestPrediction.Speedup))
			continue
		}
		speedup += rec.BestPrediction.Speedup / float64(len(block))
		for _, c := range []struct {
			shape pandia.Shape
			pred  float64
		}{{rec.Best, rec.BestPrediction.Time}, {rec.Minimal, rec.MinimalPrediction.Time}} {
			measured, err := b.sys.Measure(d.req.Truth, c.shape.Expand(topo))
			if err != nil {
				e.ledger.check(fmt.Errorf("request %d: measuring %s: %w", d.req.Seq, pandia.FormatShape(c.shape), err))
				continue
			}
			errs = append(errs, 100*math.Abs(c.pred-measured)/measured)
		}
		if i%adviseCheckEvery == 0 {
			e.ledger.check(b.checkBest(d))
		} else {
			e.ledger.check(nil)
		}
	}
	return speedup, errs
}

// checkBest re-derives Best with an unpruned, uncached sweep over the same
// sampled shapes and requires the same argmax.
func (b *adviseBench) checkBest(d adviseDone) error {
	topo := b.sys.Machine()
	shapes := b.sys.Shapes(4000)
	places := make([]placement.Placement, len(shapes))
	for i, s := range shapes {
		places[i] = s.Expand(topo)
	}
	times, err := core.PredictSweep(b.md, d.desc, places, core.Options{})
	if err != nil {
		return fmt.Errorf("request %d: reference sweep: %w", d.req.Seq, err)
	}
	best, bestIdx := math.Inf(-1), -1
	for i, t := range times {
		if t.Speedup > best {
			best, bestIdx = t.Speedup, i
		}
	}
	if got, want := pandia.FormatShape(d.rec.Best), pandia.FormatShape(shapes[bestIdx]); got != want {
		return fmt.Errorf("request %d: Recommend chose %s, unpruned sweep %s", d.req.Seq, got, want)
	}
	return nil
}

func (b *adviseBench) layers(e *env, w *window, reg registryDelta, cache0 pandia.CacheStats, perSec []float64) map[string]float64 {
	out := map[string]float64{}
	for _, name := range []string{"placement.sample_ms", "placement.expand_us", "core.sweep_ms", "core.sweep.prune_pct", "core.predict_us"} {
		out[name] = median(e.lay.get(name))
	}
	setupLayers(out, e)
	registryLayers(out, reg)
	c := b.sys.PredictionCacheStats()
	hits, misses := float64(c.Hits-cache0.Hits), float64(c.Misses-cache0.Misses)
	out["core.cache.hit_pct"] = pct(hits, hits+misses)
	out["core.placements_per_s"] = median(perSec)
	goLayers(out, w)
	return out
}
