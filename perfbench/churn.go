package main

// The churn workload: one client runs a steady-state scheduler on x5-2
// over a few job slots, fed by a repeating seeded rota of zoo jobs.

import (
	"pandia"
	"pandia/internal/core"
	"pandia/internal/scheduler"
	"pandia/internal/simhw"
)

const churnWhy = "x5-2 scheduler, default Config, repeating seeded rota of zoo jobs: mixes recur, so the joint cache serves them and Submit's own pipeline is measured"

const (
	churnSlots = 4
	// churnRebalanceEvery arrivals, Rebalance runs and its best move is
	// applied.
	churnRebalanceEvery = 11
	churnMinGain        = 0.02
	// churnRounds rounds (see churnRota) make one rota cycle. Every cycle
	// starts from an empty machine, so it repeats the previous cycle's
	// mixes exactly. A cycle's distinct joint predictions stay well inside
	// the joint cache (core.DefaultCoCacheSize entries): a cycle that
	// outgrew it would reset the cache every cycle.
	churnRounds = 12
	// churnWarmCycles rota cycles run during set-up to fill the joint
	// prediction cache; churnBlockCycles cycles form the deterministic
	// block the quality metrics and the digest cover.
	churnWarmCycles  = 1
	churnBlockCycles = 1
	// churnCheckEvery arrivals, CheckConsistency runs.
	churnCheckEvery = 64
)

type churnBench struct {
	wr      *writer
	palette []simhw.WorkloadTruth
	descs   []*core.Workload
	rota    []rotaSlot
}

func setupChurn(e *env) (measurer, error) {
	tb, md, err := describeMachine(e)
	if err != nil {
		return nil, err
	}
	b := &churnBench{}
	for _, z := range pandia.Benchmarks() {
		b.palette = append(b.palette, z.Truth)
	}
	if b.descs, err = profileAll(e, tb, md, b.palette); err != nil {
		return nil, err
	}
	b.rota = churnRota(e.seed, len(b.palette), churnRounds)
	if b.wr, err = newWriter(e, tb, md, scheduler.Config{}, churnSlots); err != nil {
		return nil, err
	}
	b.wr.warmPass(e)
	for i := 0; i < churnWarmCycles*len(b.rota); i++ {
		b.arrive(i)
	}
	return b, b.wr.p.warmErr()
}

// arrive submits the rota's next job, emptying the machine first at the
// start of each cycle; every churnRebalanceEvery-th arrival also
// rebalances.
func (b *churnBench) arrive(i int) {
	if i%len(b.rota) == 0 {
		b.wr.removeAll()
	}
	slot := b.rota[i%len(b.rota)]
	b.wr.submit(b.descs[slot.Kind], b.palette[slot.Kind], slot.Threads)
	if (i+1)%churnRebalanceEvery == 0 {
		b.wr.rebalance(churnMinGain)
	}
	if (i+1)%churnCheckEvery == 0 {
		b.wr.checkConsistency()
	}
}

func (b *churnBench) measure(e *env) (*passResult, error) {
	cache0 := b.wr.s.PredictionCacheStats()
	reg := newRegistryDelta()
	b.wr.measurePass(e, churnBlockCycles*len(b.rota))
	p := b.wr.p
	for i := churnWarmCycles * len(b.rota); p.inBlock() || p.w.open(); i++ {
		b.arrive(i)
	}
	return b.wr.finish(e, cache0, reg), nil
}
