package kernels

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func kernelsUnderTest() []Kernel {
	return []Kernel{
		&PageRank{Nodes: 1 << 12, EdgesPerNode: 6, Iterations: 5, Seed: 1},
		&NPOJoin{BuildSize: 1 << 12, ProbeSize: 1 << 15, Seed: 1},
		&RadixJoin{BuildSize: 1 << 12, ProbeSize: 1 << 15, RadixBits: 5, Seed: 1},
		&RadixSort{Size: 1 << 15, Seed: 1},
		&CG{Size: 1 << 13, Iterations: 30},
		&EP{Pairs: 1 << 18, Seed: 1},
		&BFS{Nodes: 1 << 12, EdgesPerNode: 6, Seed: 1},
		&Triad{Size: 1 << 14, Sweeps: 2},
	}
}

func TestKernelsCorrectAtVariousThreadCounts(t *testing.T) {
	for _, k := range kernelsUnderTest() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			t.Parallel()
			k.Prepare()
			for _, n := range []int{1, 2, 3, 8} {
				k.Run(n)
				if err := k.Verify(); err != nil {
					t.Fatalf("threads=%d: %v", n, err)
				}
			}
		})
	}
}

func TestPageRankDeterministicAndRanked(t *testing.T) {
	a := &PageRank{Nodes: 1 << 12, EdgesPerNode: 6, Iterations: 8, Seed: 7}
	a.Prepare()
	a.Run(4)
	top := a.Top(5)
	if len(top) != 5 {
		t.Fatalf("Top(5) = %v", top)
	}
	// The skewed generator favours low vertex ids as in-edge targets...
	// of sources; the top ranks should be low-id vertices.
	for _, v := range top {
		if v >= a.Nodes {
			t.Errorf("top vertex %d out of range", v)
		}
	}
	// Determinism across thread counts (floating point sums are computed
	// per vertex, so results are bitwise stable across schedules).
	b := &PageRank{Nodes: 1 << 12, EdgesPerNode: 6, Iterations: 8, Seed: 7}
	b.Prepare()
	b.Run(1)
	for i := range a.rank {
		if a.rank[i] != b.rank[i] {
			t.Fatalf("rank[%d] differs across thread counts: %g vs %g", i, a.rank[i], b.rank[i])
		}
	}
}

func TestJoinCardinalities(t *testing.T) {
	j := &NPOJoin{BuildSize: 1000, ProbeSize: 5000, Seed: 3}
	j.Prepare()
	j.Run(4)
	if j.Matches() != 5000 {
		t.Errorf("NPO matches = %d, want 5000", j.Matches())
	}
	r := &RadixJoin{BuildSize: 1000, ProbeSize: 5000, RadixBits: 4, Seed: 3}
	r.Prepare()
	r.Run(4)
	if err := r.Verify(); err != nil {
		t.Error(err)
	}
}

func TestCGConverges(t *testing.T) {
	c := &CG{Size: 4096, Iterations: 40}
	c.Prepare()
	c.Run(2)
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if c.Residual() >= c.initial {
		t.Errorf("residual %g did not drop from %g", c.Residual(), c.initial)
	}
}

func TestEPEstimatesPi(t *testing.T) {
	e := &EP{Pairs: 1 << 20, Seed: 9}
	e.Prepare()
	e.Run(4)
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.PiEstimate()-math.Pi) > 0.02 {
		t.Errorf("pi estimate %.4f", e.PiEstimate())
	}
}

func TestMeasureScalingAndFit(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs 2+ CPUs")
	}
	// Wall-clock timings on a shared host only ever grow under load, so
	// take each count's fastest run over interleaved rounds, and never ask
	// for more threads than there are CPUs to run them.
	counts := []int{1}
	for _, n := range []int{2, 4} {
		if n <= runtime.NumCPU() {
			counts = append(counts, n)
		}
	}
	const rounds = 7
	e := &EP{Pairs: 1 << 21, Seed: 2}
	var ms []Measurement
	for r := 0; r < rounds; r++ {
		round, err := MeasureScaling(e, counts, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(round) != len(counts) || round[0].Threads != 1 {
			t.Fatalf("measurements = %v", round)
		}
		if ms == nil {
			ms = round
			continue
		}
		for i, m := range round {
			if m.Elapsed < ms[i].Elapsed {
				ms[i] = m
			}
		}
	}
	p, err := FitParallelFraction(ms)
	if err != nil {
		t.Fatal(err)
	}
	// EP is embarrassingly parallel: expect a high parallel fraction on
	// any multi-core host. Keep the bound loose for noisy CI machines.
	if p < 0.5 {
		t.Errorf("EP fitted parallel fraction = %.2f, want > 0.5", p)
	}
}

func TestFitParallelFractionExact(t *testing.T) {
	// Synthetic Amdahl data with p = 0.8 must fit exactly.
	p := 0.8
	var ms []Measurement
	for _, n := range []int{1, 2, 4, 8} {
		r := (1 - p) + p/float64(n)
		ms = append(ms, Measurement{Threads: n, Elapsed: time.Duration(r * float64(time.Second))})
	}
	got, err := FitParallelFraction(ms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-p) > 1e-6 {
		t.Errorf("fitted p = %g, want %g", got, p)
	}
}

func TestFitParallelFractionErrors(t *testing.T) {
	if _, err := FitParallelFraction(nil); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := FitParallelFraction([]Measurement{{Threads: 1, Elapsed: time.Second}}); err == nil {
		t.Error("single-run data accepted")
	}
}

func TestMeasureScalingRejectsBadCounts(t *testing.T) {
	e := &EP{Pairs: 1 << 10}
	if _, err := MeasureScaling(e, []int{0}, 1); err == nil {
		t.Error("zero thread count accepted")
	}
}

func TestSplitRange(t *testing.T) {
	rs := splitRange(10, 3)
	if len(rs) != 3 || rs[0] != [2]int{0, 3} || rs[2] != [2]int{6, 10} {
		t.Errorf("splitRange(10,3) = %v", rs)
	}
	total := 0
	for _, r := range rs {
		total += r[1] - r[0]
	}
	if total != 10 {
		t.Errorf("ranges cover %d elements", total)
	}
	if got := splitRange(2, 8); len(got) != 2 {
		t.Errorf("splitRange(2,8) = %v", got)
	}
}

func TestXorshiftStreams(t *testing.T) {
	a, b := newXorshift(1), newXorshift(2)
	if a.next() == b.next() {
		t.Error("different seeds produced identical first values")
	}
	z := newXorshift(0)
	if z.next() == 0 {
		t.Error("zero seed yielded a stuck generator")
	}
	u := newXorshift(42)
	for i := 0; i < 1000; i++ {
		v := u.float64n()
		if v < 0 || v >= 1 {
			t.Fatalf("float64n out of range: %g", v)
		}
	}
}

func TestBFSCorrectness(t *testing.T) {
	b := &BFS{Nodes: 1 << 12, EdgesPerNode: 6, Seed: 5}
	b.Prepare()
	for _, n := range []int{1, 4} {
		b.Run(n)
		if err := b.Verify(); err != nil {
			t.Fatalf("threads=%d: %v", n, err)
		}
	}
	if b.MaxDepth() <= 0 {
		t.Error("BFS found no depth")
	}
	// Distances are schedule-independent (BFS levels are deterministic).
	d1 := append([]int32(nil), b.dist...)
	b.Run(3)
	for i := range d1 {
		if d1[i] != b.dist[i] {
			t.Fatalf("distance %d changed across schedules: %d vs %d", i, d1[i], b.dist[i])
		}
	}
}

func TestTriadCorrectness(t *testing.T) {
	tr := &Triad{Size: 1 << 14, Sweeps: 3}
	tr.Prepare()
	for _, n := range []int{1, 2, 7} {
		tr.Run(n)
		if err := tr.Verify(); err != nil {
			t.Fatalf("threads=%d: %v", n, err)
		}
	}
}
