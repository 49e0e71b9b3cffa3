package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"pandia"
	"pandia/internal/simhw"
)

func zooTruths() []simhw.WorkloadTruth {
	var out []simhw.WorkloadTruth
	for _, z := range pandia.Benchmarks() {
		out = append(out, z.Truth)
	}
	return out
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	palette := zooTruths()
	advise := func(seed int64) []adviseRequest {
		g := newAdviseGen(seed, palette)
		var out []adviseRequest
		for i := 0; i < 3*len(palette); i++ {
			out = append(out, g.next())
		}
		return out
	}
	ops := func(seed int64) []opsOp {
		g := newOpsGen(seed, len(palette), 4, 2, 5)
		var out []opsOp
		for i := 0; i < 500; i++ {
			out = append(out, g.next())
		}
		return out
	}
	for _, c := range []struct {
		name string
		gen  func(seed int64) any
	}{
		{"advise", func(s int64) any { return advise(s) }},
		{"churn", func(s int64) any { return churnRota(s, len(palette), 12) }},
		{"ops", func(s int64) any { return ops(s) }},
	} {
		if a, b := c.gen(7), c.gen(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generators with seed 7 differ", c.name)
		}
		if a, b := c.gen(7), c.gen(8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 give the same inputs", c.name)
		}
	}
}

func TestAdviseRoundsCoverThePalette(t *testing.T) {
	palette := zooTruths()
	g := newAdviseGen(3, palette)
	for round := 0; round < 3; round++ {
		seen := map[int]bool{}
		for i := 0; i < len(palette); i++ {
			req := g.next()
			seen[req.Base] = true
			if err := req.Truth.Validate(); err != nil {
				t.Fatalf("request %d: %v", req.Seq, err)
			}
			if req.Truth == palette[req.Base] {
				t.Fatalf("request %d is not perturbed", req.Seq)
			}
		}
		if len(seen) != len(palette) {
			t.Fatalf("round %d visits %d of %d workloads", round, len(seen), len(palette))
		}
	}
}

func TestChurnRotaDealsThreadsEvenly(t *testing.T) {
	const kinds, rounds = 22, 12
	rota := churnRota(5, kinds, rounds)
	if len(rota) != kinds*rounds {
		t.Fatalf("rota length %d, want %d", len(rota), kinds*rounds)
	}
	for r := 0; r < rounds; r++ {
		seen := map[int]bool{}
		threads := map[int]int{}
		for _, s := range rota[r*kinds : (r+1)*kinds] {
			seen[s.Kind] = true
			threads[s.Threads]++
		}
		if len(seen) != kinds {
			t.Errorf("round %d covers %d kinds", r, len(seen))
		}
		for _, n := range churnThreads {
			if threads[n] < kinds/len(churnThreads) || threads[n] > kinds/len(churnThreads)+1 {
				t.Errorf("round %d: thread request %d dealt %d times", r, n, threads[n])
			}
		}
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[n-1-i] = float64(i + 1) // descending: the rule must sort
		}
		return out
	}
	for _, c := range []struct {
		n     int
		p     float64
		value float64
		ok    bool
	}{
		{0, 50, 0, false},
		{19, 50, 10, false},
		{20, 50, 10, true},
		{99, 50, 50, true},
		{100, 90, 90, true},
		{999, 90, 900, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		got := tailOf(seq(c.n))
		if got.P != c.p || got.Value != c.value || got.OK != c.ok || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%g = %g ok=%v", c.n, got, c.p, c.value, c.ok)
		}
		if c.ok {
			if beyond := c.n - int(c.value); beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, c.p)
			}
		}
	}
}

func TestRobustRateWeighsClassesAndIgnoresBursts(t *testing.T) {
	fast := []float64{10, 10, 10, 10, 10, 10, 10, 10}
	slow := []float64{100, 100, 100, 100, 100, 100, 100, 100}
	base := robustRate(map[string][]float64{"a": fast, "b": slow})
	if want := 16 / (880e-6); math.Abs(base-want) > 1e-6*want {
		t.Fatalf("rate %g, want %g", base, want)
	}
	burst := append([]float64(nil), slow...)
	burst[0] = 100000
	if got := robustRate(map[string][]float64{"a": fast, "b": burst}); got != base {
		t.Fatalf("one burst moved the rate from %g to %g", base, got)
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if def, ok := workloads[w.Name]; !ok || def.Why != w.Why {
			t.Errorf("workload %s: why differs from the command's rationale", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end has %d metrics, the command prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, command has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, the command prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, command has %+v", i, m, d)
		}
	}
}

func TestCompareRefusesDifferentConfigurations(t *testing.T) {
	a := &record{Host: stampHost(), Workload: "churn", Seconds: 10}
	b := *a
	if why := comparable(a, &b); why != "" {
		t.Fatalf("equal configurations refused: %s", why)
	}
	b.Seed = 9
	if why := comparable(a, &b); why != "" {
		t.Fatalf("a different seed refused: %s", why)
	}
	b.Host.GOMAXPROCS++
	if comparable(a, &b) == "" {
		t.Fatal("results from different GOMAXPROCS compared")
	}
	b = *a
	b.Host.CPUModel = "other"
	if comparable(a, &b) == "" {
		t.Fatal("results from different CPU models compared")
	}
}

// smoke runs one short pass of a workload, as the command would without
// set-up samples or a reference pass, and checks its result.
func smoke(t *testing.T, name string, traced bool) *record {
	t.Helper()
	e := &env{workload: name, seed: 11, seconds: 0.5, root: "..", ledger: newOpLedger()}
	rec, err := runWorkload(e, workloads[name], runOpts{trace: traced, setupSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", name, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
	}
	s := rec.summary()
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(s.Metrics) != len(want) {
		t.Fatalf("%s: %d metrics, want %d", name, len(s.Metrics), len(want))
	}
	if !traced {
		for _, d := range endToEnd {
			if s.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", name, d.Name, s.Metrics[d.Name].Value)
			}
		}
	}
	return rec
}

func TestSmokeAdvise(t *testing.T) {
	if testing.Short() {
		t.Skip("advise needs four rounds of Recommend")
	}
	rec := smoke(t, "advise", false)
	if rec.Classes["recommend"].Attempted < adviseRounds*22 {
		t.Fatalf("only %d Recommend calls", rec.Classes["recommend"].Attempted)
	}
}

func TestSmokeOps(t *testing.T) {
	rec := smoke(t, "ops", false)
	for _, class := range []string{"submit", "drain", "fail", "uncordon"} {
		if rec.Classes[class].Attempted == 0 {
			t.Errorf("no %s operations", class)
		}
	}
}

// TestChurnDeterministicAndTraced runs churn untraced and traced on one
// seed: the decisions, and so the deterministic metrics, must agree, and
// the traced pass must show the cache serving the recurring mixes.
func TestChurnDeterministicAndTraced(t *testing.T) {
	plain := smoke(t, "churn", false)
	traced := smoke(t, "churn", true)
	if plain.Digest != traced.Digest {
		t.Errorf("digests differ: %s untraced, %s traced", plain.Digest, traced.Digest)
	}
	for _, m := range []string{"agg_speedup", "predict_err_pct"} {
		if plain.E2E[m] != traced.E2E[m] {
			t.Errorf("%s differs: %v untraced, %v traced", m, plain.E2E[m], traced.E2E[m])
		}
	}
	if hit := traced.Layer["core.cocache.hit_pct"]; hit < 50 {
		t.Errorf("joint cache hit rate %.1f%% on churn", hit)
	}
	if n := traced.Layer["obs.journal.records"]; n != 0 {
		t.Errorf("churn journaled %g records", n)
	}
}
