package scheduler

import (
	"testing"

	"pandia/internal/core"
	"pandia/internal/counters"
	"pandia/internal/machine"
	"pandia/internal/simhw"
)

// x52MD describes the simulated X5-2 without measurement noise.
func x52MD(tb testing.TB) *machine.Description {
	tb.Helper()
	truth := simhw.X52Truth()
	truth.NoiseSigma = 0
	tb2, err := simhw.NewTestbed(truth)
	if err != nil {
		tb.Fatal(err)
	}
	md, err := machine.Describe(tb2)
	if err != nil {
		tb.Fatal(err)
	}
	return md
}

// warmMix builds an X5-2 scheduler running three jobs and returns the
// fourth job of a repeating 4-job mix, submitted and removed once so the
// joint cache already holds every candidate Submit will score for it.
func warmMix(tb testing.TB, cfg Config) (*Scheduler, Job) {
	tb.Helper()
	s, err := New(x52MD(tb), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	residents := []Job{computeJob("a"), memoryJob("b"), computeJob("c")}
	for i := range residents {
		residents[i].Threads = 8
		if _, err := s.Submit(residents[i]); err != nil {
			tb.Fatal(err)
		}
	}
	job := Job{ID: "d", Workload: &core.Workload{
		Name: "d", T1: 100,
		Demand:       counters.Rates{Instr: 4, L2: 20, DRAM: 3},
		ParallelFrac: 0.98, LoadBalance: 0.85, Burstiness: 0.15,
	}}
	submitRemove(tb, s, job)
	return s, job
}

func submitRemove(tb testing.TB, s *Scheduler, job Job) {
	if _, err := s.Submit(job); err != nil {
		tb.Fatal(err)
	}
	if err := s.Remove(job.ID); err != nil {
		tb.Fatal(err)
	}
}

// submitRemoveAllocBudget bounds the allocations of one warm X5-2
// Submit+Remove of the 4-job mix. The candidate pipeline allocates only
// the committed Assignment and its placement (2); the rest of the budget
// is slack. Rendering every candidate for a dedupe map and copying the mix
// per candidate cost 725 allocations on this mix.
const submitRemoveAllocBudget = 4

// TestSubmitRemoveAllocBudget pins the pipeline's allocation budget: no
// per-candidate mix copy, Assignment, dedupe string or rejection text.
func TestSubmitRemoveAllocBudget(t *testing.T) {
	s, job := warmMix(t, Config{})
	allocs := testing.AllocsPerRun(100, func() { submitRemove(t, s, job) })
	if allocs > submitRemoveAllocBudget {
		t.Fatalf("warm Submit+Remove allocates %.1f times, budget %d", allocs, submitRemoveAllocBudget)
	}
}

// BenchmarkSubmitWarm is one warm Submit+Remove of the 4-job X5-2 mix:
// every candidate is a joint-cache hit, so it measures the pipeline around
// the cache.
func BenchmarkSubmitWarm(b *testing.B) {
	s, job := warmMix(b, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitRemove(b, s, job)
	}
}

// BenchmarkSubmitUncached is the same cycle with the joint cache disabled:
// every candidate is a joint solve on the pooled CoPredictor.
func BenchmarkSubmitUncached(b *testing.B) {
	s, job := warmMix(b, Config{DisablePredictionCache: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitRemove(b, s, job)
	}
}

// warmFour is warmMix with its fourth job admitted too: the 4-job X5-2
// mix, returned with the jobs in the order that rebuilds it.
func warmFour(tb testing.TB) (*Scheduler, []Job) {
	tb.Helper()
	s, job := warmMix(tb, Config{})
	if _, err := s.Submit(job); err != nil {
		tb.Fatal(err)
	}
	var jobs []Job
	for _, a := range s.Assignments() {
		jobs = append(jobs, a.Job)
	}
	return s, jobs
}

// BenchmarkRebalance is one warm Rebalance of the 4-job X5-2 mix: every
// job's candidates are joint-cache hits after the first call.
func BenchmarkRebalance(b *testing.B) {
	s, _ := warmFour(b)
	if _, err := s.Rebalance(0.02); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Rebalance(0.02); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDrain is one warm drain of socket 0 under the 4-job X5-2 mix.
// Between drains the mix is rebuilt by resubmitting its jobs in order,
// which reproduces the same placements; only the drain is timed.
func BenchmarkDrain(b *testing.B) {
	s, jobs := warmFour(b)
	rebuild := func() {
		for _, a := range s.Assignments() {
			if err := s.Remove(a.Job.ID); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.UncordonSocket(0); err != nil {
			b.Fatal(err)
		}
		for _, j := range jobs {
			if _, err := s.Submit(j); err != nil {
				b.Fatal(err)
			}
		}
	}
	drain := func() {
		if _, err := s.DrainSocket(0, DrainOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rebuild()
		b.StartTimer()
		drain()
	}
}
