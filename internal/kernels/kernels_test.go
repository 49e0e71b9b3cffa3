package kernels

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
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

// spin is the calibration kernel for the timing tests: pure register
// arithmetic split by splitRange, with no memory traffic, so on an idle
// multi-core host it shows the most parallel speedup the host can give.
type spin struct {
	Iters int
	sums  []uint64
}

func (s *spin) Name() string { return "spin" }
func (s *spin) Prepare()     {}

func (s *spin) Run(threads int) {
	ranges := splitRange(s.Iters, threads)
	s.sums = make([]uint64, len(ranges))
	var wg sync.WaitGroup
	for r := range ranges {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			x := newXorshift(uint64(r) + 1)
			var sum uint64
			for i := ranges[r][0]; i < ranges[r][1]; i++ {
				sum += x.next()
			}
			s.sums[r] = sum
		}(r)
	}
	wg.Wait()
}

func (s *spin) Verify() error {
	for r, sum := range s.sums {
		if sum == 0 {
			return fmt.Errorf("spin: share %d did no work", r)
		}
	}
	return nil
}

// scalingCounts are the thread counts the timing tests measure: never more
// threads than there are CPUs to run them.
func scalingCounts() []int {
	counts := []int{1}
	for _, n := range []int{2, 4} {
		if n <= runtime.NumCPU() {
			counts = append(counts, n)
		}
	}
	return counts
}

// relativeRound times one round of each kernel at every count (best of
// two runs, so no count carries the warm-up after a kernel switch) and
// appends, per kernel and count, the round's time relative to that
// kernel's own 1-thread run in the same round. Pairing each run with a
// baseline taken milliseconds earlier cancels load that comes and goes
// between rounds.
func relativeRound(t *testing.T, rel [][]float64, ks []Kernel, counts []int) [][]float64 {
	t.Helper()
	if rel == nil {
		rel = make([][]float64, len(ks)*len(counts))
	}
	for i, k := range ks {
		ms, err := MeasureScaling(k, counts, 2)
		if err != nil {
			t.Fatal(err)
		}
		for j, m := range ms {
			rel[i*len(counts)+j] = append(rel[i*len(counts)+j], m.Elapsed.Seconds()/ms[0].Elapsed.Seconds())
		}
	}
	return rel
}

// medians returns, per count, a measurement at the median relative time
// (in seconds, against a 1-second single-thread run).
func medians(rel [][]float64, counts []int) []Measurement {
	ms := make([]Measurement, len(counts))
	for j, n := range counts {
		r := slices.Clone(rel[j])
		slices.Sort(r)
		ms[j] = Measurement{Threads: n, Elapsed: time.Duration(r[len(r)/2] * float64(time.Second))}
	}
	return ms
}

// TestSplitRangeShares pins how EP divides its pairs among workers: every
// pair is covered exactly once, in n contiguous shares whose sizes differ
// by at most one. A split that hands every worker the whole range (or one
// worker everything) serialises the kernel.
func TestSplitRangeShares(t *testing.T) {
	for _, pairs := range []int{1, 7, 10, 1 << 18, 1<<21 + 3, 1 << 22} {
		for n := 1; n <= 8; n++ {
			rs := splitRange(pairs, n)
			want := min(n, pairs)
			if len(rs) != want {
				t.Fatalf("splitRange(%d, %d): %d shares, want %d", pairs, n, len(rs), want)
			}
			lo, smallest, largest := 0, pairs, 0
			for _, r := range rs {
				if r[0] != lo {
					t.Fatalf("splitRange(%d, %d) = %v: share starts at %d, want %d", pairs, n, rs, r[0], lo)
				}
				size := r[1] - r[0]
				smallest, largest = min(smallest, size), max(largest, size)
				lo = r[1]
			}
			if lo != pairs {
				t.Fatalf("splitRange(%d, %d) covers [0, %d), want [0, %d)", pairs, n, lo, pairs)
			}
			if smallest < 1 || largest-smallest > 1 {
				t.Fatalf("splitRange(%d, %d): share sizes %d..%d, want equal within one", pairs, n, smallest, largest)
			}
		}
	}
}

// TestMeasureScalingAndFit checks EP's measured scaling against what the
// host can give at the time: EP's fitted parallel fraction must be at
// least half that of the pure-spin calibration kernel, measured in the
// same interleaved rounds. Each fraction is fitted to the median round of
// a window. A shared host's capacity comes and goes, so windows repeat
// until one shows the calibration running threads in parallel; if none
// does within the budget, the test fails with the last window's speedup.
// The absolute bound on EP alone is TestEPScalingAbsolute
// (make kernels-scaling).
func TestMeasureScalingAndFit(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs 2+ CPUs")
	}
	const (
		window     = 21
		budget     = 60 * time.Second
		minSpeedup = 1.2
	)
	counts := scalingCounts()
	kernels := []Kernel{&spin{Iters: 1 << 20}, &EP{Pairs: 1 << 17, Seed: 2}}
	var speedup, pCal, pEP float64
	start, windows := time.Now(), 0
	for {
		windows++
		var rel [][]float64
		for r := 0; r < window; r++ {
			rel = relativeRound(t, rel, kernels, counts)
		}
		calMs, epMs := medians(rel[:len(counts)], counts), medians(rel[len(counts):], counts)
		var err error
		if pCal, err = FitParallelFraction(calMs); err != nil {
			t.Fatal(err)
		}
		if pEP, err = FitParallelFraction(epMs); err != nil {
			t.Fatal(err)
		}
		speedup = 1 / calMs[1].Elapsed.Seconds()
		if speedup >= minSpeedup && pEP >= pCal/2 || time.Since(start) > budget {
			break
		}
	}
	t.Logf("window %d of %d rounds: spin %.2fx on 2 threads, p = %.2f; EP p = %.2f",
		windows, window, speedup, pCal, pEP)
	if speedup < minSpeedup {
		t.Fatalf("calibration: the pure-spin kernel ran only %.2fx faster on 2 threads (want >= %.1fx); "+
			"the host shows no parallel speedup to compare EP against", speedup, minSpeedup)
	}
	if pEP < pCal/2 {
		t.Errorf("EP fitted parallel fraction = %.2f, want >= half the pure-spin kernel's %.2f", pEP, pCal)
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
