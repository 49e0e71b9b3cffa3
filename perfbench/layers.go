package main

// The metric tables and the per-layer instruments of the traced run. The
// instruments sit on the benchmark's side of each layer boundary: a timing
// wrapper around the simulated hardware, a span sink for the scheduler's
// own operation spans, and timers around public calls into each package.

import (
	"sync"
	"time"

	"pandia/internal/obs"
	"pandia/internal/scheduler"
	"pandia/internal/simhw"
)

// metricDef describes one reported metric. Moves names, for a per-layer
// metric, the end-to-end metric and workload it should move.
type metricDef struct {
	Name, Unit, Better string
	Moves              string
}

// endToEnd lists the metrics a user of the decider sees, reported by every
// workload on the untraced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "decisions_per_s", Unit: "1/s", Better: "higher"},
	{Name: "decide_p50_us", Unit: "us", Better: "lower"},
	{Name: "decide_p90_us", Unit: "us", Better: "lower"},
	{Name: "agg_speedup", Unit: "x", Better: "higher"},
	{Name: "predict_err_pct", Unit: "%", Better: "lower"},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower"},
}

// perLayer lists the traced run's metrics, layer by layer, with the
// end-to-end metric each should move. Every workload reports every metric;
// a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"simhw.runs", "count", "lower", "setup_s on all workloads"},
	{"simhw.run_us", "us", "lower", "setup_s on all workloads"},
	{"machine.describe_ms", "ms", "lower", "setup_s on all workloads"},
	{"workload.profile_ms", "ms", "lower", "setup_s on all workloads"},
	{"placement.enumerate_ms", "ms", "lower", "setup_s on advise"},
	{"placement.sample_ms", "ms", "lower", "decide_p50_us on advise; nothing on churn or ops"},
	{"placement.expand_us", "us", "lower", "decide_p50_us on advise; nothing on churn or ops"},
	{"core.sweep_ms", "ms", "lower", "decide_p50_us and decisions_per_s on advise"},
	{"core.sweep.prune_pct", "%", "higher", "decide_p50_us and decisions_per_s on advise"},
	{"core.predict_us", "us", "lower", "decide_p50_us and decisions_per_s on advise"},
	{"core.placements_per_s", "1/s", "higher", "decisions_per_s on advise"},
	{"core.cosolve_us", "us", "lower", "decide_p50_us on ops; near-nothing on churn"},
	{"core.iterations_mean", "count", "lower", "decide_p50_us on ops; near-nothing on churn"},
	{"core.solver.warm_starts", "count", "higher", "decide_p50_us on ops; near-nothing on churn"},
	{"core.cocache.hit_pct", "%", "higher", "decide_p50_us on churn"},
	{"core.cache.hit_pct", "%", "higher", "decide_p50_us on advise"},
	{"scheduler.submit.allocs", "count", "lower", "decide_p50_us and alloc_kb_per_op on churn"},
	{"scheduler.submit.candidates", "count", "lower", "decide_p50_us and alloc_kb_per_op on churn"},
	{"scheduler.candidates.pruned_pct", "%", "higher", "decide_p50_us and alloc_kb_per_op on churn"},
	{"scheduler.submit.sweep_self_us", "us", "lower", "decide_p50_us and alloc_kb_per_op on churn"},
	{"scheduler.submit.cache_self_us", "us", "lower", "decide_p50_us and alloc_kb_per_op on churn"},
	{"scheduler.remove_us", "us", "lower", "decisions_per_s on churn"},
	{"scheduler.rebalance_ms", "ms", "lower", "decisions_per_s on churn"},
	{"scheduler.drain_ms", "ms", "lower", "decisions_per_s on ops"},
	{"scheduler.fail_ms", "ms", "lower", "decisions_per_s on ops"},
	{"scheduler.reject_pct", "%", "lower", "agg_speedup on churn and ops"},
	{"obs.journal.records", "count", "lower", "decide_p90_us on ops; zero on churn and advise"},
	{"obs.journal.dropped", "count", "lower", "decide_p90_us on ops; zero on churn and advise"},
	{"obs.incident.dumps", "count", "lower", "decide_p90_us on ops; zero on churn and advise"},
	{"http.metrics_ms", "ms", "lower", "decide_p90_us and decisions_per_s on ops"},
	{"http.decisions_ms", "ms", "lower", "decide_p90_us and alloc_kb_per_op on ops"},
	{"http.decisions_kb", "KiB", "lower", "alloc_kb_per_op on ops"},
	{"http.health_ms", "ms", "lower", "decide_p90_us and decisions_per_s on ops"},
	{"http.explain_ms", "ms", "lower", "decide_p90_us and decisions_per_s on ops"},
	{"scenario.replay_ms", "ms", "lower", "decisions_per_s on ops"},
	{"go.gc_count", "count", "lower", "decide_p90_us and alloc_kb_per_op on all workloads"},
	{"go.gc_pause_ms", "ms", "lower", "decide_p90_us and alloc_kb_per_op on all workloads"},
}

// timedRunner is the simhw layer's instrument: it times every run the
// profiling pipeline performs.
type timedRunner struct {
	simhw.Runner
	lay *series
}

func (r timedRunner) Run(cfg simhw.RunConfig) (simhw.RunResult, error) {
	t0 := time.Now()
	res, err := r.Runner.Run(cfg)
	r.lay.add("simhw.run_us", us(time.Since(t0)))
	return res, err
}

// runnerFor returns the runner setup profiles through: the bare testbed on
// the timed run, the timing wrapper on the traced one.
func runnerFor(tb *simhw.Testbed, lay *series) simhw.Runner {
	if lay == nil {
		return tb
	}
	return timedRunner{Runner: tb, lay: lay}
}

// openSpan is a scheduler span in flight.
type openSpan struct {
	id    int64
	phase int32
	start time.Time
	child time.Duration
}

// spanSink is an obs.Tracer that turns the scheduler's operation spans into
// self times: a span's duration minus the time its child spans cover,
// summed per (benchmark operation, span phase). The benchmark labels the
// operation it is about to issue with setOp; solver events are ignored.
type spanSink struct {
	mu    sync.Mutex
	op    string
	stack []openSpan
	self  map[string]time.Duration
}

func newSpanSink() *spanSink { return &spanSink{self: make(map[string]time.Duration)} }

func (t *spanSink) Enabled() bool { return true }

func (t *spanSink) Emit(e obs.Event) {
	if e.Kind != obs.EvSpanBegin && e.Kind != obs.EvSpanEnd {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.Kind == obs.EvSpanBegin {
		t.stack = append(t.stack, openSpan{id: e.Span, phase: e.Arg, start: now})
		return
	}
	for i := len(t.stack) - 1; i >= 0; i-- {
		sp := t.stack[i]
		if sp.id != e.Span || sp.phase != e.Arg {
			continue
		}
		t.stack = t.stack[:i]
		d := now.Sub(sp.start)
		t.self[t.op+"/"+phaseName(sp.phase)] += d - sp.child
		if i > 0 {
			t.stack[i-1].child += d
		}
		return
	}
}

// setOp labels the spans of the next operation.
func (t *spanSink) setOp(op string) {
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// selfTime returns the summed self time of one phase of one operation.
func (t *spanSink) selfTime(op string, phase int32) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.self[op+"/"+phaseName(phase)]
}

func phaseName(phase int32) string {
	switch phase {
	case scheduler.SpanPhaseOp:
		return "op"
	case scheduler.SpanPhaseSweep:
		return "sweep"
	case scheduler.SpanPhaseCache:
		return "cache"
	}
	return "other"
}

// registryDelta reads the movement of the obs counters and histograms a
// pass is judged by.
type registryDelta struct{ before *obs.Snapshot }

func newRegistryDelta() registryDelta { return registryDelta{before: obs.Default().Snapshot()} }

func (r registryDelta) counters() map[string]int64 {
	return obs.Default().Snapshot().DeltaFrom(r.before)
}

// iterationsMean is the mean solver iteration count of the solves since the
// delta was opened, from the core.predict.iterations histogram.
func (r registryDelta) iterationsMean() float64 {
	now := obs.Default().Snapshot().Histogram("core.predict.iterations")
	was := r.before.Histogram("core.predict.iterations")
	if now == nil {
		return 0
	}
	n, sum := now.Count, now.Sum
	if was != nil {
		n, sum = n-was.Count, sum-was.Sum
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// registryLayers fills the metrics read from the obs registry: the
// solver's iteration and warm-start counts and the journal's counters.
func registryLayers(out map[string]float64, r registryDelta) {
	d := r.counters()
	out["core.iterations_mean"] = r.iterationsMean()
	out["core.solver.warm_starts"] = float64(d["core.solver.warm_starts"])
	out["obs.journal.records"] = float64(d["scheduler.journal.records"])
	out["obs.journal.dropped"] = float64(d["scheduler.journal.dropped"])
	out["obs.incident.dumps"] = float64(d["obs.incident.dumps"])
}

// setupLayers fills the set-up layers recorded while the pass was set up:
// one value each, and the simulated runs as a count and a median.
func setupLayers(out map[string]float64, e *env) {
	for _, name := range []string{"machine.describe_ms", "workload.profile_ms", "placement.enumerate_ms"} {
		if v := e.lay.get(name); len(v) > 0 {
			out[name] = v[0]
		}
	}
	runs := e.lay.get("simhw.run_us")
	out["simhw.runs"] = float64(len(runs))
	out["simhw.run_us"] = median(runs)
}

// goLayers fills the Go runtime metrics from a closed window.
func goLayers(out map[string]float64, w *window) {
	out["go.gc_count"] = float64(w.GCCount)
	out["go.gc_pause_ms"] = ms(w.GCPause)
}

// pct is 100*num/den, 0 when den is 0.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}
