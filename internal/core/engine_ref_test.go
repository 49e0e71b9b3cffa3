package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// This file pins the solver's hot loop against a frozen copy of the
// per-thread formulation it replaced: refAccumulate looks every
// interconnect link up through Topo.PairIndex, refWorstOversubscription
// scans a thread's core and socket resources in one pass, and refIterate
// drives them exactly as iterate did. The engine now computes the
// socket-level part once per (job, socket) per iteration and indexes a
// dense pair table; every prediction must still match the reference bit
// for bit, bottleneck kinds and iteration counts included.

// refAccumulate is the frozen per-thread accumulate.
func (e *engine) refAccumulate() {
	for i := range e.instr {
		e.instr[i], e.l1[i], e.l2[i], e.l3Link[i] = 0, 0, 0, 0
	}
	for s := range e.l3Agg {
		e.l3Agg[s], e.dram[s] = 0, 0
	}
	for p := range e.ic {
		e.ic[p] = 0
	}
	topo := e.md.Topo
	for _, j := range e.jobs {
		d := j.w.Demand
		for i, c := range j.place {
			core := j.coreOf[i]
			fi := j.f[i]
			e.instr[core] += d.Instr * fi
			e.l1[core] += d.L1 * fi
			e.l2[core] += d.L2 * fi
			e.l3Link[core] += d.L3 * fi
			e.l3Agg[c.Socket] += d.L3 * fi
			if dd := d.DRAM * fi; dd > 0 {
				for _, u := range j.memSockets {
					e.dram[u] += dd * j.memShare
					if u != c.Socket {
						e.ic[topo.PairIndex(c.Socket, u)] += 2 * dd * j.memShare
					}
				}
			}
		}
	}
}

// refWorstOversubscription is the frozen single-scan bottleneck search:
// core resources, then the socket's L3 aggregate, then DRAM and
// interconnect over the job's memory sockets, with a strict >.
func (e *engine) refWorstOversubscription(j *job, i int) (float64, topology.ResourceKind) {
	md := e.md
	core := j.coreOf[i]
	sock := j.place[i].Socket
	d := j.w.Demand
	best := 1.0
	kind := topology.ResInstr

	if d.Instr > 0 {
		if cap := md.InstrCapacity(e.coreOcc[core]); cap > 0 && e.instr[core] > 0 {
			if r := e.instr[core] / cap; r > best {
				best, kind = r, topology.ResInstr
			}
		}
	}
	if d.L1 > 0 {
		if md.L1BW > 0 && e.l1[core] > 0 {
			if r := e.l1[core] / md.L1BW; r > best {
				best, kind = r, topology.ResL1
			}
		}
	}
	if d.L2 > 0 {
		if md.L2BW > 0 && e.l2[core] > 0 {
			if r := e.l2[core] / md.L2BW; r > best {
				best, kind = r, topology.ResL2
			}
		}
	}
	if d.L3 > 0 {
		if md.L3LinkBW > 0 && e.l3Link[core] > 0 {
			if r := e.l3Link[core] / md.L3LinkBW; r > best {
				best, kind = r, topology.ResL3Link
			}
		}
		if md.L3AggBW > 0 && e.l3Agg[sock] > 0 {
			if r := e.l3Agg[sock] / md.L3AggBW; r > best {
				best, kind = r, topology.ResL3Agg
			}
		}
	}
	if d.DRAM > 0 {
		for _, u := range j.memSockets {
			if md.DRAMBW > 0 && e.dram[u] > 0 {
				if r := e.dram[u] / md.DRAMBW; r > best {
					best, kind = r, topology.ResDRAM
				}
			}
			if u != sock {
				if load := e.ic[md.Topo.PairIndex(sock, u)]; md.InterconnectBW > 0 && load > 0 {
					if r := load / md.InterconnectBW; r > best {
						best, kind = r, topology.ResInterconnect
					}
				}
			}
		}
	}
	return best, kind
}

// refIterate is the frozen refinement loop driving the two functions above.
// Tracing and the runtime invariant checks are left out: neither feeds back
// into the solve.
func (e *engine) refIterate(opt Options) (int, bool) {
	maxIters := opt.maxIters()
	dampenAfter := opt.dampenAfter()
	tolerance := opt.tolerance()
	iters := 0
	converged := false
	for iter := 0; iter < maxIters; iter++ {
		iters = iter + 1
		e.refAccumulate()

		for _, j := range e.jobs {
			copy(j.prevF, j.f)
			for i := range j.place {
				s, kind := e.refWorstOversubscription(j, i)
				if !opt.DisableBurstiness && j.w.Burstiness > 0 && e.coreOcc[j.coreOf[i]] > 1 {
					s += j.w.Burstiness * s * j.f[i]
				}
				if s > j.sCap {
					s = j.sCap
				}
				j.sRes[i] = s
				j.sTot[i] = s
				j.commPen[i] = 0
				j.lbPen[i] = 0
				j.bottleneck[i] = kind
			}
		}

		for _, j := range e.jobs {
			n := len(j.place)
			if opt.DisableComm || j.w.InterSocketOverhead <= 0 || n <= 1 {
				continue
			}
			var invSum float64
			for i := 0; i < n; i++ {
				j.inv[i] = SafeDiv(1, j.sRes[i], 1)
				invSum += j.inv[i]
			}
			if invSum <= 0 {
				continue
			}
			l := j.w.LoadBalance
			for _, s := range j.memSockets {
				var lockstep, independent float64
				for k := 0; k < n; k++ {
					if j.place[k].Socket == s {
						continue
					}
					lockstep += j.w.InterSocketOverhead
					wk := j.inv[k] / invSum
					independent += float64(n) * wk * j.w.InterSocketOverhead
				}
				j.sockLock[s] = lockstep
				j.sockInd[s] = independent
			}
			for i := 0; i < n; i++ {
				s := j.place[i].Socket
				comm := l*j.sockInd[s] + (1-l)*j.sockLock[s]
				fMid := SafeDiv(j.fInit, j.sRes[i], j.fInit)
				j.sTot[i] = math.Min(j.sRes[i]+comm*fMid, j.sCap)
				j.commPen[i] = j.sTot[i] - j.sRes[i]
			}
		}

		for _, j := range e.jobs {
			n := len(j.place)
			if opt.DisableLoadBalance || n <= 1 {
				continue
			}
			sMax := 0.0
			for i := 0; i < n; i++ {
				if j.sTot[i] > sMax {
					sMax = j.sTot[i]
				}
			}
			l := j.w.LoadBalance
			for i := 0; i < n; i++ {
				before := j.sTot[i]
				j.sTot[i] = (1-l)*sMax + l*j.sTot[i]
				j.lbPen[i] = j.sTot[i] - before
			}
		}

		if iter == 0 {
			for _, j := range e.jobs {
				j.sCap = 1
				for _, s := range j.sTot {
					if s > j.sCap {
						j.sCap = s
					}
				}
			}
		}

		var maxDelta float64
		for _, j := range e.jobs {
			for i := range j.f {
				next := j.fInit * SafeDiv(j.sRes[i], j.sTot[i], 1)
				if iter >= dampenAfter {
					next = (next + j.prevF[i]) / 2
				}
				if d := math.Abs(next - j.prevF[i]); d > maxDelta {
					maxDelta = d
				}
				j.f[i] = next
			}
		}
		if maxDelta < tolerance {
			converged = true
			break
		}
	}
	return iters, converged
}

// refPredict is Predictor.Predict's full path on the reference loop.
func refPredict(md *machine.Description, w *Workload, place placement.Placement, opt Options) (*Prediction, error) {
	e, err := newEngine(md, []PlacedWorkload{{Workload: w, Placement: place}})
	if err != nil {
		return nil, err
	}
	iters, converged := e.refIterate(opt)
	e.refAccumulate()
	pred, err := e.jobs[0].prediction(iters, converged, e.loadsMap())
	if err != nil {
		return nil, err
	}
	var worst [obs.MaxLoadKinds]float64
	pred.WorstResource, pred.WorstOversubscription = e.loadSummary(&worst)
	return pred, nil
}

// refCoPredict is CoPredictor.Predict on the reference loop: bind, solve
// in refIterate, assemble.
func refCoPredict(cp *CoPredictor, placed []PlacedWorkload) (*CoPrediction, error) {
	if err := cp.e.bind(placed, true); err != nil {
		return nil, err
	}
	iters, converged := cp.e.refIterate(cp.opt)
	return assembleCoPrediction(cp.md, cp.e, iters, converged)
}

// bitsDiff names the first field in which two predictions differ bitwise,
// or returns "" when they are identical.
func bitsDiff(got, want *Prediction) string {
	floats := func(name string, a, b []float64) string {
		if len(a) != len(b) {
			return fmt.Sprintf("%s: len %d, want %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return fmt.Sprintf("%s[%d] = %v, want %v", name, i, a[i], b[i])
			}
		}
		return ""
	}
	scalars := []struct {
		name string
		a, b float64
	}{
		{"Time", got.Time, want.Time},
		{"Speedup", got.Speedup, want.Speedup},
		{"AmdahlSpeedup", got.AmdahlSpeedup, want.AmdahlSpeedup},
		{"WorstOversubscription", got.WorstOversubscription, want.WorstOversubscription},
	}
	for _, s := range scalars {
		if math.Float64bits(s.a) != math.Float64bits(s.b) {
			return fmt.Sprintf("%s = %v, want %v", s.name, s.a, s.b)
		}
	}
	for _, v := range []struct {
		name string
		a, b []float64
	}{
		{"Slowdowns", got.Slowdowns, want.Slowdowns},
		{"ResourceSlowdowns", got.ResourceSlowdowns, want.ResourceSlowdowns},
		{"CommPenalties", got.CommPenalties, want.CommPenalties},
		{"LoadBalancePenalties", got.LoadBalancePenalties, want.LoadBalancePenalties},
		{"Utilizations", got.Utilizations, want.Utilizations},
	} {
		if d := floats(v.name, v.a, v.b); d != "" {
			return d
		}
	}
	if len(got.Bottlenecks) != len(want.Bottlenecks) {
		return fmt.Sprintf("Bottlenecks: len %d, want %d", len(got.Bottlenecks), len(want.Bottlenecks))
	}
	for i := range got.Bottlenecks {
		if got.Bottlenecks[i] != want.Bottlenecks[i] {
			return fmt.Sprintf("Bottlenecks[%d] = %v, want %v", i, got.Bottlenecks[i], want.Bottlenecks[i])
		}
	}
	if d := loadsDiff(got.Loads, want.Loads); d != "" {
		return d
	}
	switch {
	case got.WorstResource != want.WorstResource:
		return fmt.Sprintf("WorstResource = %v, want %v", got.WorstResource, want.WorstResource)
	case got.Iterations != want.Iterations || got.Converged != want.Converged:
		return fmt.Sprintf("Iterations/Converged = %d/%v, want %d/%v", got.Iterations, got.Converged, want.Iterations, want.Converged)
	case got.Degraded != want.Degraded || fmt.Sprint(got.DegradedReasons) != fmt.Sprint(want.DegradedReasons):
		return fmt.Sprintf("Degraded = %v %q, want %v %q", got.Degraded, got.DegradedReasons, want.Degraded, want.DegradedReasons)
	}
	return ""
}

func loadsDiff(got, want map[topology.ResourceID]float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("Loads: %d entries, want %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("Loads[%v] = %v (present %v), want %v", id, g, ok, w)
		}
	}
	return ""
}

func coBitsDiff(got, want *CoPrediction) string {
	switch {
	case len(got.Predictions) != len(want.Predictions):
		return fmt.Sprintf("%d predictions, want %d", len(got.Predictions), len(want.Predictions))
	case math.Float64bits(got.WorstOversubscription) != math.Float64bits(want.WorstOversubscription):
		return fmt.Sprintf("WorstOversubscription = %v, want %v", got.WorstOversubscription, want.WorstOversubscription)
	case got.WorstResource != want.WorstResource:
		return fmt.Sprintf("WorstResource = %v, want %v", got.WorstResource, want.WorstResource)
	case got.Iterations != want.Iterations || got.Converged != want.Converged:
		return fmt.Sprintf("Iterations/Converged = %d/%v, want %d/%v", got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if d := loadsDiff(got.Loads, want.Loads); d != "" {
		return d
	}
	for i := range got.Predictions {
		if d := bitsDiff(got.Predictions[i], want.Predictions[i]); d != "" {
			return fmt.Sprintf("job %d: %s", i, d)
		}
	}
	return ""
}

// refMachines are the descriptions the reference test sweeps: the two- and
// four-socket presets, plus two X2-4 variants with a faster core, so that
// socket-level resources win more bottlenecks: one with tight DRAM, one
// with a tight L3 aggregate.
func refMachines() []*machine.Description {
	x52 := &machine.Description{
		Topo:          topology.X52(),
		CorePeakInstr: 8.1, SMTFactor: 1.3,
		L1BW: 220, L2BW: 95, L3LinkBW: 55, L3AggBW: 420,
		DRAMBW: 60, InterconnectBW: 35,
	}
	x24 := x24Machine()
	tightMem := *x24
	tightMem.CorePeakInstr, tightMem.DRAMBW, tightMem.InterconnectBW = 20, 8, 20
	tightL3 := *x24
	tightL3.CorePeakInstr, tightL3.DRAMBW, tightL3.InterconnectBW, tightL3.L3AggBW = 20, 400, 400, 60
	return []*machine.Description{quickMachine(), x52, x24, &tightMem, &tightL3}
}

// x24Machine is a four-socket X2-4 description for solver tests.
func x24Machine() *machine.Description {
	return &machine.Description{
		Topo:          topology.X24(),
		CorePeakInstr: 7.2, SMTFactor: 1.2,
		L1BW: 180, L2BW: 70, L3LinkBW: 45, L3AggBW: 260,
		DRAMBW: 30, InterconnectBW: 18,
	}
}

// refMix draws a 1–3 job mix from rng: one random placement (quickPlacement
// orders contexts arbitrarily, never socket-major) cut into consecutive
// chunks, each with its own random workload.
func refMix(rng *rand.Rand, topo topology.Machine) []PlacedWorkload {
	b := func() uint8 { return uint8(rng.Intn(256)) }
	place := quickPlacement(topo, uint16(rng.Intn(1<<16)), b())
	jobs := 1 + rng.Intn(3)
	if jobs > len(place) {
		jobs = len(place)
	}
	mix := make([]PlacedWorkload, jobs)
	start := 0
	for k := range mix {
		end := len(place)
		if k < jobs-1 {
			end = start + 1 + rng.Intn(len(place)-start-(jobs-1-k))
		}
		mix[k] = PlacedWorkload{
			Workload:  quickWorkload(b(), b(), b(), b(), b(), b(), b()),
			Placement: place[start:end],
		}
		start = end
	}
	return mix
}

// TestSolverMatchesReference compares the solver with the frozen
// per-thread reference on random X3-2, X5-2 and X2-4 inputs: the solo full
// Prediction, PredictCoSchedule, and successive CoPredictor.Predict calls
// that re-bind one engine's scratch, every field bitwise.
func TestSolverMatchesReference(t *testing.T) {
	prev := SetInvariantChecks(false)
	defer SetInvariantChecks(prev)
	cases := 300
	if testing.Short() {
		cases = 60
	}
	var seen [topology.NumResourceKinds]int
	for mi, md := range refMachines() {
		rng := rand.New(rand.NewSource(int64(1 + mi)))
		cp, err := NewCoPredictor(md, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewCoPredictor(md, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < cases; c++ {
			mix := refMix(rng, md.Topo)
			name := fmt.Sprintf("%s case %d", md.Topo.Name, c)

			for k, pw := range mix {
				got, err := Predict(md, pw.Workload, pw.Placement, Options{})
				if err != nil {
					t.Fatalf("%s job %d: %v", name, k, err)
				}
				want, err := refPredict(md, pw.Workload, pw.Placement, Options{})
				if err != nil {
					t.Fatalf("%s job %d ref: %v", name, k, err)
				}
				if d := bitsDiff(got, want); d != "" {
					t.Fatalf("%s solo job %d: %s", name, k, d)
				}
				for i, kind := range got.Bottlenecks {
					if got.ResourceSlowdowns[i] > 1 {
						seen[kind]++
					}
				}
			}

			co, err := PredictCoSchedule(md, mix, Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fresh, err := NewCoPredictor(md, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := refCoPredict(fresh, mix)
			if err != nil {
				t.Fatalf("%s ref: %v", name, err)
			}
			if d := coBitsDiff(co, want); d != "" {
				t.Fatalf("%s PredictCoSchedule: %s", name, d)
			}

			// Successive binds on one CoPredictor: the previous case's
			// scratch, an exact repeat and a one-job delta must each solve
			// as if fresh.
			delta := append([]PlacedWorkload(nil), mix...)
			delta[0].Workload = quickWorkload(uint8(c), 200, 90, uint8(7*c), 128, 60, 30)
			for step, in := range [][]PlacedWorkload{mix, mix, delta} {
				got, err := cp.Predict(in)
				if err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
				want, err := refCoPredict(ref, in)
				if err != nil {
					t.Fatalf("%s step %d ref: %v", name, step, err)
				}
				if d := coBitsDiff(got, want); d != "" {
					t.Fatalf("%s CoPredictor step %d: %s", name, step, d)
				}
			}
		}
	}
	// The inputs must reach both halves of the split bottleneck search.
	t.Logf("contended threads by bottleneck kind: %v", seen)
	for _, k := range []topology.ResourceKind{topology.ResL1, topology.ResL3Link, topology.ResL3Agg, topology.ResDRAM, topology.ResInterconnect} {
		if seen[k] == 0 {
			t.Errorf("no contended thread with bottleneck %v", k)
		}
	}
}

// TestPairTableMatchesTopology pins the engine's dense pair table to
// Topo.PairIndex on every ordered pair of distinct sockets.
func TestPairTableMatchesTopology(t *testing.T) {
	for _, md := range refMachines() {
		e, err := newEngineState(md)
		if err != nil {
			t.Fatal(err)
		}
		n := md.Topo.Sockets
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := -1
				if a != b {
					want = md.Topo.PairIndex(a, b)
				}
				if got := e.pair[a*n+b]; got != want {
					t.Errorf("%s: pair[%d,%d] = %d, want %d", md.Topo.Name, a, b, got, want)
				}
			}
		}
	}
}

// TestBottleneckTieKeepsFirstMaximum constructs exact ties between a core
// and a socket resource, and between two socket resources, on one thread:
// the reported kind must be the one the single ordered scan meets first.
func TestBottleneckTieKeepsFirstMaximum(t *testing.T) {
	prev := SetInvariantChecks(false)
	defer SetInvariantChecks(prev)
	base := machine.Description{
		Topo:          topology.X24(),
		CorePeakInstr: 100, SMTFactor: 1,
		L1BW: 1000, L2BW: 1000, L3LinkBW: 1000, L3AggBW: 1000,
		DRAMBW: 1000, InterconnectBW: 1000,
	}
	for _, tc := range []struct {
		name           string
		l3Link, l3Agg  float64
		dram, l3Demand float64
		want           topology.ResourceKind
	}{
		// L3 link 40/20 = 2 and DRAM 10/5 = 2: the core resource wins.
		{"l3link=dram", 20, 1000, 5, 40, topology.ResL3Link},
		// L3 aggregate 40/20 = 2 and DRAM 10/5 = 2: L3 aggregate is
		// scanned first among the socket resources.
		{"l3agg=dram", 1000, 20, 5, 40, topology.ResL3Agg},
	} {
		md := base
		md.L3LinkBW, md.L3AggBW, md.DRAMBW = tc.l3Link, tc.l3Agg, tc.dram
		w := &Workload{Name: "tie", T1: 10, ParallelFrac: 0.5}
		w.Demand.L3, w.Demand.DRAM = tc.l3Demand, 10
		place := placement.Placement{{Socket: 2, Core: 3, Slot: 0}}
		got, err := Predict(&md, w, place, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := refPredict(&md, w, place, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d := bitsDiff(got, want); d != "" {
			t.Fatalf("%s: %s", tc.name, d)
		}
		if got.Bottlenecks[0] != tc.want || got.ResourceSlowdowns[0] != 2 {
			t.Fatalf("%s: bottleneck %v at %v, want %v at 2", tc.name, got.Bottlenecks[0], got.ResourceSlowdowns[0], tc.want)
		}
	}
}
