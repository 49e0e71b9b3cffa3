package local

// Fixture for single-function lock misuse: double/upgrade locks,
// wrong-flavour and missing unlocks, channel operations under a held lock.

import "sync"

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	vals map[string]int
}

func okDefer(s *store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

func okPaired(s *store) {
	s.mu.Lock()
	s.vals["x"] = 1
	s.mu.Unlock()
}

func okConditional(s *store, c bool) {
	if c {
		s.mu.Lock()
	}
	// State is not definite after the join: nothing reported.
	if c {
		s.mu.Unlock()
	}
}

func doubleLock(s *store) {
	s.mu.Lock()
	s.mu.Lock() // want `\(local\.store\)\.mu is acquired again via local\.doubleLock \(local\.go:\d+\) while already write-held`
	s.mu.Unlock()
	s.mu.Unlock()
}

func upgrade(s *store) {
	s.rw.RLock()
	s.rw.Lock() // want `\(local\.store\)\.rw is acquired again via local\.upgrade \(local\.go:\d+\) while already read-held`
	s.rw.Unlock()
}

func wrongFlavour(s *store) {
	s.rw.RLock()
	s.rw.Unlock() // want `Unlock of \(local\.store\)\.rw while read-held \(want RUnlock\)`
	s.rw.Lock()
	s.rw.RUnlock() // want `RUnlock of \(local\.store\)\.rw while write-held \(want Unlock\)`
}

func earlyReturn(s *store, bad bool) int {
	s.mu.Lock()
	if bad {
		return 0 // want `return while holding \(local\.store\)\.mu with no deferred unlock`
	}
	v := s.vals["x"]
	s.mu.Unlock()
	return v
}

func chanUnderLock(s *store, ch chan int) {
	s.mu.Lock()
	ch <- 1 // want `channel send while holding \(local\.store\)\.mu`
	v := <-ch // want `channel receive while holding \(local\.store\)\.mu`
	s.vals["x"] = v
	s.mu.Unlock()
}

func chanAfterUnlock(s *store, ch chan int) {
	s.mu.Lock()
	s.vals["x"] = 1
	s.mu.Unlock()
	ch <- 1 // ok: lock released
}

func suppressedReturn(s *store) {
	s.mu.Lock()
	//deadlockcheck:ok the caller releases it
	return
}

type queue struct {
	mu    sync.Mutex
	other sync.Mutex
	cond  *sync.Cond // L is &mu
	n     int
}

// waitOne is the Cond idiom: Wait releases q.mu while it waits.
func waitOne(q *queue) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		q.cond.Wait()
	}
}

// waitTwo keeps a second lock held across the wait.
func waitTwo(q *queue) {
	q.other.Lock()
	defer q.other.Unlock()
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		q.cond.Wait() // want `call to sync\.Cond\.Wait while holding \(local\.queue\)\.mu, \(local\.queue\)\.other`
	}
}
