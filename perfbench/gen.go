package main

// Seeded input generators. Each takes its seed as an argument and yields
// only inputs — workload behaviours, thread requests, lifecycle events — so
// the program under test sees the same inputs for the same seed and nothing
// else of the benchmark's state.

import (
	"fmt"
	"math/rand"

	"pandia/internal/simhw"
)

// perturbAmp is the relative size of the seeded perturbation applied to a
// zoo workload: large enough that its profile (and so every prediction
// cache key) is new, small enough that the workload keeps its character.
const perturbAmp = 0.05

// perturb returns a copy of t renamed to name with each behavioural
// parameter scaled by its own factor drawn from [1-amp, 1+amp]. The serial
// fraction 1-p is scaled rather than p, and fractions stay in [0, 1].
func perturb(t simhw.WorkloadTruth, rng *rand.Rand, amp float64, name string) simhw.WorkloadTruth {
	f := func() float64 { return 1 + amp*(2*rng.Float64()-1) }
	unit := func(v float64) float64 { return min(1, max(0, v)) }
	t.Name = name
	t.SeqTime *= f()
	t.ParallelFrac = unit(1 - (1-t.ParallelFrac)*f())
	t.Demand.Instr *= f()
	t.Demand.L1 *= f()
	t.Demand.L2 *= f()
	t.Demand.L3 *= f()
	t.Demand.DRAM *= f()
	t.WorkingSetMB *= f()
	t.CommCost *= f()
	t.LoadBalance = unit(t.LoadBalance * f())
	t.Burstiness *= f()
	t.MemBoundFrac = unit(t.MemBoundFrac * f())
	return t
}

// adviseRequest is one Recommend input: a perturbed zoo workload.
type adviseRequest struct {
	Seq   int
	Base  int // index of the zoo workload it perturbs
	Truth simhw.WorkloadTruth
}

// adviseGen streams advise requests in rounds: each round visits every
// palette workload once, in an order drawn from the seed. The perturbation
// of a workload is fixed by its round and kind, not by the seed, so every
// seed measures the same population of inputs in its own order: a
// Recommend's cost swings by an order of magnitude between workloads that
// differ by a few percent, and drawing fresh perturbations per seed would
// leave the timing metrics to the luck of the draw.
type adviseGen struct {
	rng     *rand.Rand
	palette []simhw.WorkloadTruth
	order   []int
	seq     int
}

func newAdviseGen(seed int64, palette []simhw.WorkloadTruth) *adviseGen {
	return &adviseGen{rng: rand.New(rand.NewSource(seed)), palette: palette}
}

func (g *adviseGen) next() adviseRequest {
	n := len(g.palette)
	i := g.seq % n
	if i == 0 {
		g.order = g.rng.Perm(n)
	}
	base := g.order[i]
	round := g.seq / n
	perturbRNG := rand.New(rand.NewSource(int64(round*n + base + 1)))
	req := adviseRequest{Seq: g.seq, Base: base,
		Truth: perturb(g.palette[base], perturbRNG, perturbAmp, fmt.Sprintf("%s~%d", g.palette[base].Name, round))}
	g.seq++
	return req
}

// rotaSlot is one churn arrival: a palette workload kind and its thread
// request (0 lets the scheduler size the job).
type rotaSlot struct {
	Kind    int
	Threads int
}

// churnThreads are the thread requests a churn rota cycles through.
var churnThreads = []int{0, 8, 16, 24}

// churnRota builds the churn workload's repeating arrival cycle from
// rounds seeded rounds: each round visits every palette kind once, in a
// seeded order, with the thread requests of churnThreads dealt evenly over
// the kinds at random. The cycle repeats forever, so job mixes recur.
func churnRota(seed int64, kinds, rounds int) []rotaSlot {
	rng := rand.New(rand.NewSource(seed))
	var out []rotaSlot
	for r := 0; r < rounds; r++ {
		threads := rng.Perm(kinds)
		for _, k := range rng.Perm(kinds) {
			out = append(out, rotaSlot{Kind: k, Threads: churnThreads[threads[k]%len(churnThreads)]})
		}
	}
	return out
}

// opsVariants perturbs every palette workload into n variants; the ops
// writer submits variants, so its joint predictions rarely repeat. Like the
// advise stream's, the variants are a fixed population: the seed decides
// which ones the writer submits, when, and with what thread request.
func opsVariants(palette []simhw.WorkloadTruth, n int) [][]simhw.WorkloadTruth {
	rng := rand.New(rand.NewSource(0x5eed))
	out := make([][]simhw.WorkloadTruth, len(palette))
	for k, t := range palette {
		for v := 0; v < n; v++ {
			out[k] = append(out[k], perturb(t, rng, perturbAmp, fmt.Sprintf("%s~v%d", t.Name, v)))
		}
	}
	return out
}

// Op kinds of the ops writer's script.
const (
	opSubmit   = "submit"
	opDrain    = "drain"
	opFail     = "fail"
	opUncordon = "uncordon"
	opRebal    = "rebalance"
	opReplay   = "replay"
)

// opsOp is one step of the ops writer's script.
type opsOp struct {
	Kind     string
	Base     int // palette kind (submit)
	Variant  int // variant of the kind (submit)
	Threads  int // thread request (submit; 0 = auto)
	Socket   int // target socket (drain, fail, uncordon)
	Scenario int // corpus index (replay)
}

// opsThreads are the thread requests the ops writer draws from.
var opsThreads = []int{0, 4, 8, 12}

// opsReplayEvery is how many epochs pass between scenario replays.
const opsReplayEvery = 4

// opsGen scripts the ops writer in epochs. An epoch submits every palette
// kind once in a seeded order (seeded variant and thread request each) and
// places, at seeded positions, a drain of one socket and a failure of the
// other, each followed by its uncordon, and one rebalance; every
// opsReplayEvery-th epoch ends with a scenario replay, rotating through the
// corpus from a seeded start.
type opsGen struct {
	rng                         *rand.Rand
	kinds, variants, sockets    int
	scenarios, nextScen, epochs int
	queue                       []opsOp
}

func newOpsGen(seed int64, kinds, variants, sockets, scenarios int) *opsGen {
	g := &opsGen{rng: rand.New(rand.NewSource(seed)), kinds: kinds, variants: variants,
		sockets: sockets, scenarios: scenarios}
	if scenarios > 0 {
		g.nextScen = g.rng.Intn(scenarios)
	}
	return g
}

func (g *opsGen) next() opsOp {
	if len(g.queue) == 0 {
		g.queue = g.epoch()
	}
	op := g.queue[0]
	g.queue = g.queue[1:]
	return op
}

func (g *opsGen) epoch() []opsOp {
	var ops []opsOp
	for _, k := range g.rng.Perm(g.kinds) {
		ops = append(ops, opsOp{Kind: opSubmit, Base: k, Variant: g.rng.Intn(g.variants),
			Threads: opsThreads[g.rng.Intn(len(opsThreads))]})
	}
	drained := g.rng.Intn(g.sockets)
	failed := (drained + 1) % g.sockets
	n := len(ops)
	// insert places op before the submit at position pos (clamped).
	insert := func(pos int, op opsOp) {
		pos = min(max(pos, 0), len(ops))
		ops = append(ops[:pos], append([]opsOp{op}, ops[pos:]...)...)
	}
	// Positions are counted from the end so earlier insertions do not
	// shift later ones.
	rebal := n - g.rng.Intn(3)
	failAt := n/2 + g.rng.Intn(n/4+1)
	drainAt := 2 + g.rng.Intn(n/4+1)
	insert(rebal, opsOp{Kind: opRebal})
	insert(failAt+4, opsOp{Kind: opUncordon, Socket: failed})
	insert(failAt, opsOp{Kind: opFail, Socket: failed})
	insert(drainAt+4, opsOp{Kind: opUncordon, Socket: drained})
	insert(drainAt, opsOp{Kind: opDrain, Socket: drained})
	g.epochs++
	if g.scenarios > 0 && g.epochs%opsReplayEvery == 0 {
		ops = append(ops, opsOp{Kind: opReplay, Scenario: g.nextScen})
		g.nextScen = (g.nextScen + 1) % g.scenarios
	}
	return ops
}
