package obs

import (
	"sync"
	"time"
)

// Clock supplies the timestamps stamped onto trace events. Everything in
// this repository that needs a time source takes a Clock — detflow forbids
// bare time.Now in the instrumented packages precisely so that traces and
// experiments replay deterministically. Now returns seconds since an
// arbitrary per-clock epoch.
type Clock interface {
	Now() float64
}

// ManualClock is a deterministic Clock for tests and reproducible trace
// exports: it starts at a fixed value and advances by a fixed tick on every
// reading, so the n-th timestamp is always start + n·tick. Safe for
// concurrent use.
type ManualClock struct {
	mu sync.Mutex
	//pandia:unit seconds
	//pandia:guardedby(mu)
	now float64
	//pandia:unit seconds
	//pandia:guardedby(mu)
	tick float64
}

// NewManualClock builds a manual clock that first reads start seconds and
// advances by tick seconds per reading (tick 0 freezes the clock).
//
//pandia:unit start seconds
//pandia:unit tick seconds
func NewManualClock(start, tick float64) *ManualClock {
	return &ManualClock{now: start, tick: tick}
}

// Now returns the clock's current reading and advances it by one tick.
//
//pandia:unit seconds
func (c *ManualClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now
	c.now += c.tick
	return t
}

// Advance moves the clock forward by d seconds without producing a reading.
//
//pandia:unit d seconds
func (c *ManualClock) Advance(d float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

// wallClock is the real-time Clock, measuring monotonic seconds from its
// construction instant.
type wallClock struct {
	epoch time.Time
}

// WallClock returns a real-time Clock whose readings are monotonic seconds
// since this call. It is the single sanctioned wall-time source in the
// instrumented packages; everything downstream of it is explicitly
// nondeterministic and must not feed golden tests.
func WallClock() Clock {
	return wallClock{epoch: time.Now()} //detflow:ignore the one injected wall-time source; traces meant for goldens use ManualClock
}

// Now returns monotonic seconds since the clock was created.
//
//pandia:unit seconds
func (c wallClock) Now() float64 {
	return time.Since(c.epoch).Seconds()
}
