package main

// The ops workload: the scheduler with its flight recorder on. A writer
// submits perturbed jobs that miss the joint cache, drains, fails and
// uncordons sockets, and replays bundled scenarios, while a second client
// scrapes the HTTP introspection endpoints at a fixed cadence.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pandia"
	"pandia/internal/core"
	"pandia/internal/obs"
	"pandia/internal/scenario"
	"pandia/internal/scheduler"
	"pandia/internal/simhw"
)

const opsWhy = "x5-2 scheduler with journal, SLO and threshold on: perturbed jobs miss the joint cache, sockets drain and fail, scenarios replay, HTTP scrapes contend"

const (
	opsSlots      = 6
	opsVariantN   = 8
	opsJournalCap = 512
	opsSLO        = 2.5
	opsThreshold  = 1.6
	opsMinGain    = 0.02
	// opsBlockEpochs epochs of submits form the deterministic block.
	opsBlockEpochs = 48
	// opsScrapeEvery is the scraper's cadence in writer operations: its
	// k-th scrape starts once the writer has completed k times this many,
	// or at once if it is behind. Pacing by the writer's progress keeps the
	// read/write mix the same however fast either side runs.
	opsScrapeEvery = 40
)

// opsEndpoints is the scraper's rotation.
var opsEndpoints = []string{"metrics", "health", "explain", "decisions"}

type opsBench struct {
	wr       *writer
	palette  []simhw.WorkloadTruth
	variants [][]simhw.WorkloadTruth
	descs    [][]*core.Workload
	corpus   []*scenario.Scenario
	names    []string
	gen      *opsGen
	srv      *httptest.Server
	client   *http.Client
	target   lease
}

// lease is the job the scraper may explain. The writer moves it off a job
// before that job can end, waiting for an explain in flight to finish, so
// an explain never names a job that has gone.
type lease struct {
	mu sync.RWMutex
	id string
}

func (l *lease) set(id string) {
	l.mu.Lock()
	l.id = id
	l.mu.Unlock()
}

func setupOps(e *env) (measurer, error) {
	tb, md, err := describeMachine(e)
	if err != nil {
		return nil, err
	}
	b := &opsBench{}
	for _, z := range pandia.Benchmarks() {
		b.palette = append(b.palette, z.Truth)
	}
	b.variants = opsVariants(b.palette, opsVariantN)
	var flat []simhw.WorkloadTruth
	for _, vs := range b.variants {
		flat = append(flat, vs...)
	}
	descs, err := profileAll(e, tb, md, flat)
	if err != nil {
		return nil, err
	}
	for k := range b.variants {
		b.descs = append(b.descs, descs[k*opsVariantN:(k+1)*opsVariantN])
	}
	if err := b.loadCorpus(e.root); err != nil {
		return nil, err
	}
	journal := obs.NewJournal(opsJournalCap, nil)
	journal.SetEnabled(true)
	cfg := scheduler.Config{Journal: journal, SlowdownSLO: opsSLO, AdmissionThreshold: opsThreshold}
	if b.wr, err = newWriter(e, tb, md, cfg, opsSlots); err != nil {
		return nil, err
	}
	b.wr.leaving = func(id string) {
		if b.target.id == id {
			b.target.set(b.newest(id))
		}
	}
	b.gen = newOpsGen(e.seed, len(b.palette), opsVariantN, md.Topo.Sockets, len(b.corpus))
	b.srv = httptest.NewServer(b.wr.s.Mux())
	b.client = b.srv.Client()

	// Warm-up: every scenario once (their machine descriptions are
	// memoised), one epoch of writer operations, one scrape of each
	// endpoint.
	b.wr.warmPass(e)
	for i := range b.corpus {
		b.replay(i)
	}
	// Run the writer until the journal ring has wrapped, so its cost is in
	// steady state before measuring.
	for n := 0; n < len(b.palette)+5 || journal.Recorded() < 2*opsJournalCap; n++ {
		b.step()
	}
	for k := range opsEndpoints {
		if _, _, err := b.scrape(k); err != nil {
			b.srv.Close()
			return nil, fmt.Errorf("warm-up scrape: %w", err)
		}
	}
	if err := b.wr.p.warmErr(); err != nil {
		b.srv.Close()
		return nil, err
	}
	return b, nil
}

// loadCorpus reads the bundled scenarios in name order.
func (b *opsBench) loadCorpus(root string) error {
	paths, err := filepath.Glob(filepath.Join(root, "scenarios", "*.json"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, p := range paths {
		sc, err := scenario.Load(p)
		if err != nil {
			return err
		}
		b.corpus = append(b.corpus, sc)
		b.names = append(b.names, filepath.Base(p))
	}
	if len(b.corpus) == 0 {
		return fmt.Errorf("no scenarios under %s", filepath.Join(root, "scenarios"))
	}
	return nil
}

// newest returns the most recently admitted running job other than skip,
// or "".
func (b *opsBench) newest(skip string) string {
	for i := len(b.wr.fifo) - 1; i >= 0; i-- {
		if id := b.wr.fifo[i]; id != skip {
			return id
		}
	}
	return ""
}

// step performs the writer's next scripted operation.
func (b *opsBench) step() {
	wr := b.wr
	op := b.gen.next()
	switch op.Kind {
	case opSubmit:
		wr.submit(b.descs[op.Base][op.Variant], b.variants[op.Base][op.Variant], op.Threads)
		if b.target.id == "" {
			b.target.set(b.newest(""))
		}
	case opDrain:
		b.target.set("")
		var rep *scheduler.DrainReport
		err := wr.timed("drain", func() (err error) {
			rep, err = wr.s.DrainSocket(op.Socket, scheduler.DrainOptions{MaxRetries: 2})
			return err
		})
		if err == nil {
			wr.forget(evictedIDs(rep.Evicted))
			wr.p.note("drain", fmt.Sprint(op.Socket), fmt.Sprintf("%d migrated %d evicted", len(rep.Migrated), len(rep.Evicted)))
		} else {
			wr.p.note("drain", fmt.Sprint(op.Socket), outcome(err))
		}
		wr.checkConsistency()
		b.target.set(b.newest(""))
	case opFail:
		b.target.set("")
		var rep *scheduler.EvictionReport
		err := wr.timed("fail", func() (err error) { rep, err = wr.s.FailSocket(op.Socket); return err })
		if err == nil {
			wr.forget(evictedIDs(rep.Evicted))
			wr.p.note("fail", fmt.Sprint(op.Socket), fmt.Sprintf("%d evicted", len(rep.Evicted)))
		} else {
			wr.p.note("fail", fmt.Sprint(op.Socket), outcome(err))
		}
		wr.checkConsistency()
		b.target.set(b.newest(""))
	case opUncordon:
		err := wr.timed("uncordon", func() error { _, err := wr.s.UncordonSocket(op.Socket); return err })
		wr.p.note("uncordon", fmt.Sprint(op.Socket), outcome(err))
		wr.checkConsistency()
	case opRebal:
		wr.rebalance(opsMinGain)
		wr.checkConsistency()
	case opReplay:
		b.replay(op.Scenario)
	}
}

// replay runs one bundled scenario; its own assertions are output checks.
func (b *opsBench) replay(i int) {
	var res *scenario.Result
	err := b.wr.timed("replay", func() (err error) { res, err = scenario.Run(b.corpus[i]); return err })
	if err == nil && len(res.Failures) > 0 {
		err = fmt.Errorf("scenario %s: %v", b.names[i], res.Failures)
	}
	b.wr.p.ledger.check(err)
	b.wr.p.note("replay", b.names[i], outcome(err))
}

func evictedIDs(evs []scheduler.Eviction) []string {
	ids := make([]string, len(evs))
	for i, ev := range evs {
		ids[i] = ev.JobID
	}
	return ids
}

// scrape fetches endpoint k of the rotation and returns its name and body
// size. An explain with no job to name scrapes health instead.
func (b *opsBench) scrape(k int) (string, int64, error) {
	name := opsEndpoints[k%len(opsEndpoints)]
	path := map[string]string{"metrics": "/metrics", "health": "/debug/health",
		"decisions": "/debug/decisions"}[name]
	if name == "explain" {
		b.target.mu.RLock()
		defer b.target.mu.RUnlock()
		if b.target.id == "" {
			name, path = "health", "/debug/health"
		} else {
			path = "/debug/explain?job=" + b.target.id
		}
	}
	resp, err := b.client.Get(b.srv.URL + path)
	if err != nil {
		return name, 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return name, n, err
	}
	if resp.StatusCode/100 != 2 {
		return name, n, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if n == 0 {
		return name, n, fmt.Errorf("GET %s: empty body", path)
	}
	return name, n, nil
}

// pacer counts the writer's operations for the scraper to pace itself by.
type pacer struct {
	mu   sync.Mutex
	cond *sync.Cond
	ops  int
	want int
	stop bool
}

func newPacer() *pacer {
	p := &pacer{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// add counts one writer operation, waking the scraper when it reaches the
// count the scraper waits for.
func (p *pacer) add() {
	p.mu.Lock()
	p.ops++
	wake := p.ops == p.want
	p.mu.Unlock()
	if wake {
		p.cond.Broadcast()
	}
}

// wait blocks until the writer has completed n operations; false means the
// pass ended first.
func (p *pacer) wait(n int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.want = n
	for p.ops < n && !p.stop {
		p.cond.Wait()
	}
	return !p.stop
}

func (p *pacer) halt() {
	p.mu.Lock()
	p.stop = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// scraper scrapes at the pacer's cadence until it halts, recording latency
// and body size per endpoint.
func (b *opsBench) scraper(e *env, pace *pacer, lat *series, count *int) {
	for k := 1; pace.wait(k * opsScrapeEvery); k++ {
		t0 := time.Now()
		name, n, err := b.scrape(k)
		d := time.Since(t0)
		e.ledger.done("http-"+name, err)
		*count++
		lat.add("http."+name+"_ms", ms(d))
		if name == "decisions" {
			lat.add("http.decisions_kb", float64(n)/1024)
		}
	}
}

func (b *opsBench) measure(e *env) (*passResult, error) {
	defer b.srv.Close()
	wr := b.wr
	cache0 := wr.s.PredictionCacheStats()
	reg := newRegistryDelta()
	wr.measurePass(e, opsBlockEpochs*len(b.palette))
	p := wr.p

	scrapes := newSeries()
	var scraped int
	pace := newPacer()
	wr.tick = pace.add
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.scraper(e, pace, scrapes, &scraped)
	}()
	for p.inBlock() || p.w.open() {
		b.step()
	}
	wr.tick = nil
	pace.halt()
	wg.Wait()

	res := wr.finish(e, cache0, reg)
	res.E2E["alloc_kb_per_op"] = float64(p.w.HeapBytes) / 1024 / float64(p.ops+scraped)
	var all []float64
	for _, name := range scrapes.names() {
		if name != "http.decisions_kb" {
			all = append(all, scrapes.get(name)...)
		}
	}
	res.Tails["scrape_ms"] = tailOf(all)
	res.Notes = append(res.Notes, fmt.Sprintf("scrapes %d: p50 %.3f ms, p90 %.3f ms; drain p50 %.3f ms",
		scraped, percentile(all, 50), percentile(all, 90), median(p.lat["drain"])/1000))
	if res.Layer != nil {
		for _, name := range scrapes.names() {
			res.Layer[name] = median(scrapes.get(name))
		}
		res.Layer["scheduler.drain_ms"] = median(p.lat["drain"]) / 1000
		res.Layer["scheduler.fail_ms"] = median(p.lat["fail"]) / 1000
		res.Layer["scenario.replay_ms"] = median(p.lat["replay"]) / 1000
	}
	return res, nil
}
