//go:build scaling

package kernels

import (
	"runtime"
	"testing"
)

// TestEPScalingAbsolute holds EP to an absolute bound: embarrassingly
// parallel work must fit a parallel fraction above 0.5. It measures the
// host as much as the code, so it runs only with -tags scaling on an
// otherwise idle multi-core machine (make kernels-scaling), never in the
// plain test suite.
func TestEPScalingAbsolute(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs 2+ CPUs")
	}
	const rounds = 7
	counts := scalingCounts()
	e := &EP{Pairs: 1 << 21, Seed: 2}
	var ms []Measurement
	for r := 0; r < rounds; r++ {
		ms = keepFastest(t, ms, e, counts)
	}
	p, err := FitParallelFraction(ms)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.5 {
		t.Errorf("EP fitted parallel fraction = %.2f, want > 0.5", p)
	}
}

// keepFastest runs one round of k at every count and folds it into best,
// keeping each count's fastest run: wall-clock timings on a shared host
// only ever grow under load.
func keepFastest(t *testing.T, best []Measurement, k Kernel, counts []int) []Measurement {
	t.Helper()
	round, err := MeasureScaling(k, counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(round) != len(counts) || round[0].Threads != 1 {
		t.Fatalf("measurements = %v", round)
	}
	if best == nil {
		return round
	}
	for i, m := range round {
		if m.Elapsed < best[i].Elapsed {
			best[i] = m
		}
	}
	return best
}
