package main

// Measurement plumbing shared by the workloads: per-class operation
// accounting, latency series, the heap-allocation meter, and the decision
// digest.

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"pandia/internal/scheduler"
)

// classCount is one operation class's accounting. Decided counts typed
// admission and move-conflict results: they are decisions the program made,
// not failures.
type classCount struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Decided   int64 `json:"decided,omitempty"`
}

// opLedger counts attempted and failed operations per class. Safe for
// concurrent use by the benchmark's clients.
type opLedger struct {
	mu      sync.Mutex
	classes map[string]*classCount
	errs    []string
}

func newOpLedger() *opLedger { return &opLedger{classes: make(map[string]*classCount)} }

// maxErrs bounds the failure messages kept for the report.
const maxErrs = 8

// done records one finished operation of class. A nil error is a success,
// a typed AdmissionError or MoveConflictError a decision, anything else a
// failure. It reports whether the operation failed.
func (l *opLedger) done(class string, err error) bool {
	decided := isDecision(err)
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.classes[class]
	if c == nil {
		c = &classCount{}
		l.classes[class] = c
	}
	c.Attempted++
	switch {
	case decided:
		c.Decided++
	case err != nil:
		c.Failed++
		if len(l.errs) < maxErrs {
			l.errs = append(l.errs, fmt.Sprintf("%s: %v", class, err))
		}
	}
	return err != nil && !decided
}

// isDecision reports whether err is a typed admission or move-conflict
// result: a decision the scheduler made, not a failure.
func isDecision(err error) bool {
	var adm *scheduler.AdmissionError
	var conflict *scheduler.MoveConflictError
	return err != nil && (errors.As(err, &adm) || errors.As(err, &conflict))
}

// check records one output check: a non-nil error is a failed check.
func (l *opLedger) check(err error) { l.done("check", err) }

// totals sums every class.
func (l *opLedger) totals() (attempted, failed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.classes {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// snapshot copies the per-class counts.
func (l *opLedger) snapshot() map[string]classCount {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]classCount, len(l.classes))
	for k, c := range l.classes {
		out[k] = *c
	}
	return out
}

func (l *opLedger) failures() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.errs...)
}

// series is a set of named sample lists; safe for concurrent use.
type series struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newSeries() *series { return &series{m: make(map[string][]float64)} }

func (s *series) add(name string, v float64) {
	s.mu.Lock()
	s.m[name] = append(s.m[name], v)
	s.mu.Unlock()
}

func (s *series) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.m[name]...)
}

func (s *series) names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapAllocBytes reads the cumulative heap bytes allocated by the process,
// without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// window measures one pass's client activity: wall time, heap bytes
// allocated net of the benchmark's own untimed work, and GC activity.
type window struct {
	start     time.Time
	deadline  time.Time
	heap0     uint64
	untimedMu sync.Mutex
	untimed   uint64
	gc0       runtime.MemStats
	// Results, filled by close.
	HeapBytes uint64
	GCCount   uint32
	GCPause   time.Duration
}

func openWindow(seconds float64) *window {
	w := &window{}
	runtime.GC()
	runtime.ReadMemStats(&w.gc0)
	w.heap0 = heapAllocBytes()
	w.start = time.Now()
	w.deadline = w.start.Add(time.Duration(seconds * float64(time.Second)))
	return w
}

func (w *window) open() bool { return time.Now().Before(w.deadline) }

// untimedDo runs benchmark bookkeeping inside the window and subtracts the
// heap bytes it allocates from the window's total.
func (w *window) untimedDo(f func()) {
	h := heapAllocBytes()
	f()
	d := heapAllocBytes() - h
	w.untimedMu.Lock()
	w.untimed += d
	w.untimedMu.Unlock()
}

func (w *window) close() {
	h := heapAllocBytes() - w.heap0
	if w.untimed < h {
		h -= w.untimed
	} else {
		h = 0
	}
	w.HeapBytes = h
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.GCCount = m.NumGC - w.gc0.NumGC
	w.GCPause = time.Duration(m.PauseTotalNs - w.gc0.PauseTotalNs)
}

// digest hashes the sequence of decisions a pass made: job, placement,
// strategy and outcome per decision. Equal seeds give equal digests.
type digest struct {
	h hash.Hash64
	n int
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(fields ...string) {
	for _, f := range fields {
		d.h.Write([]byte(f))
		d.h.Write([]byte{0})
	}
	d.h.Write([]byte{'\n'})
	d.n++
}

func (d *digest) String() string { return fmt.Sprintf("%016x/%d", d.h.Sum64(), d.n) }
