package placement

import (
	"math/rand"
	"sort"
	"sync"

	"pandia/internal/topology"
)

// enumCache memoises Enumerate per machine shape. Machine is a small
// comparable struct, so it keys the map directly. The cached slice is
// canonical and never handed out: Enumerate returns a fresh top-level copy,
// because callers sort, append, and sample the result in place. The Shape
// values inside (and their PerSocket slices) are shared — they are immutable
// by convention throughout the codebase (enforced by the mutcheck pass).
var enumCache sync.Map // topology.Machine -> []Shape

// sampledCache memoises EnumerateSampled per (machine, max, seed).
var sampledCache sync.Map // sampledKey -> *sampledSpace

type sampledKey struct {
	m    topology.Machine
	max  int
	seed int64
}

type sampledSpace struct {
	shapes []Shape
	places []Placement
}

// Enumerate generates every canonical shape on the machine: all multisets of
// per-socket occupancies, at least one thread total. The result is sorted by
// total thread count, then core count, then shape key, matching the
// paper's plotting order (§6.1: "sorted first by the total number of
// threads, then by the number of threads on core 0, ...").
//
// The canonical space is ~18k shapes for the X5-2 and ~1k for the X3-2/X4-2.
// For machines whose space is enormous (the 4-socket X2-4 has ~860k),
// search a sample instead: EnumerateSampled memoises one with its
// expansion.
//
// Results are memoised per machine: repeated calls copy a cached slice
// instead of re-running the recursion.
func Enumerate(m topology.Machine) []Shape {
	return append([]Shape(nil), enumerated(m)...)
}

// enumerated returns the memoised canonical space itself, which callers in
// this package only read.
func enumerated(m topology.Machine) []Shape {
	if v, ok := enumCache.Load(m); ok {
		return v.([]Shape)
	}
	shapes := enumerate(m)
	enumCache.Store(m, shapes)
	return shapes
}

// EnumerateSampled returns Sample(Enumerate(m), max, seed) together with the
// expansion of every sampled shape: places[i] is shapes[i].Expand(m). The
// pair is computed once per (machine, max, seed) and then shared, so a
// search over a fixed sample pays for neither the enumeration copy, the
// sampling pass nor the expansion again.
//
// Both slices and everything they reference are shared and read-only;
// callers that need to reorder or append copy first. The placements are
// carved from one contiguous arena with cap == len, so an append to one of
// them reallocates instead of overwriting its neighbour. max <= 0 keeps the
// whole space, which on the X2-4 expands ~860k placements.
func EnumerateSampled(m topology.Machine, max int, seed int64) (shapes []Shape, places []Placement) {
	key := sampledKey{m, max, seed}
	v, ok := sampledCache.Load(key)
	if !ok {
		v, _ = sampledCache.LoadOrStore(key, newSampledSpace(m, max, seed))
	}
	sp := v.(*sampledSpace)
	return sp.shapes, sp.places
}

// newSampledSpace samples the memoised enumeration and expands the sample into
// a single arena.
func newSampledSpace(m topology.Machine, max int, seed int64) *sampledSpace {
	shapes := Sample(enumerated(m), max, seed)
	total := 0
	for _, s := range shapes {
		total += s.Threads()
	}
	arena := make([]topology.Context, total)
	places := make([]Placement, len(shapes))
	off := 0
	for i, s := range shapes {
		n := s.Threads()
		places[i] = s.appendTo(arena[off : off : off+n])
		off += n
	}
	return &sampledSpace{shapes: shapes, places: places}
}

// enumerate is the uncached enumeration.
func enumerate(m topology.Machine) []Shape {
	states := socketStates(m)
	var shapes []Shape
	// Multisets: choose a non-increasing sequence of state indices, one per
	// socket (index 0 is the empty socket; allow trailing empties
	// implicitly by stopping at any point).
	// The recursion emits non-increasing state sequences, and the state
	// ordering mirrors SocketCount.less, so each emitted prefix of
	// non-empty sockets is already in canonical form; only trailing empty
	// sockets need trimming.
	var rec func(socket, maxState, nonEmpty int, acc []SocketCount)
	rec = func(socket, maxState, nonEmpty int, acc []SocketCount) {
		if socket == m.Sockets {
			if nonEmpty > 0 {
				shapes = append(shapes, Shape{PerSocket: append([]SocketCount(nil), acc[:nonEmpty]...)})
			}
			return
		}
		for i := maxState; i >= 0; i-- {
			ne := nonEmpty
			if states[i].Threads() > 0 {
				ne++
			}
			rec(socket+1, i, ne, append(acc, states[i]))
		}
	}
	rec(0, len(states)-1, 0, make([]SocketCount, 0, m.Sockets))
	SortShapes(shapes)
	return shapes
}

// socketStates lists every possible occupancy of a single socket, including
// the empty one at index 0.
func socketStates(m topology.Machine) []SocketCount {
	var states []SocketCount
	maxTwos := 0
	if m.ThreadsPerCore >= 2 {
		maxTwos = m.CoresPerSocket
	}
	for ones := 0; ones <= m.CoresPerSocket; ones++ {
		for twos := 0; twos <= maxTwos && ones+twos <= m.CoresPerSocket; twos++ {
			states = append(states, SocketCount{Ones: ones, Twos: twos})
		}
	}
	// Put the empty state first so the recursion can address it directly.
	sort.Slice(states, func(i, j int) bool {
		if states[i].Threads() != states[j].Threads() {
			return states[i].Threads() < states[j].Threads()
		}
		return states[i].Twos < states[j].Twos
	})
	return states
}

// SortShapes sorts shapes into the canonical plotting order.
func SortShapes(shapes []Shape) {
	type decorated struct {
		threads, cores int
		key            string
	}
	dec := make([]decorated, len(shapes))
	for i, s := range shapes {
		dec[i] = decorated{s.Threads(), s.Cores(), s.Key()}
	}
	idx := make([]int, len(shapes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if dec[i].threads != dec[j].threads {
			return dec[i].threads < dec[j].threads
		}
		if dec[i].cores != dec[j].cores {
			return dec[i].cores < dec[j].cores
		}
		return dec[i].key < dec[j].key
	})
	out := make([]Shape, len(shapes))
	for pos, i := range idx {
		out[pos] = shapes[i]
	}
	copy(shapes, out)
}

// Sample draws a deterministic subset of at most max shapes, stratified by
// thread count so every thread count present in the input remains
// represented (the paper covered ~20% of the X5-2's placements, §6.1).
// The input order is preserved in the output.
func Sample(shapes []Shape, max int, seed int64) []Shape {
	if max <= 0 || len(shapes) <= max {
		return shapes
	}
	byThreads := make(map[int][]int) // thread count -> indices
	var counts []int
	for i, s := range shapes {
		n := s.Threads()
		if _, ok := byThreads[n]; !ok {
			counts = append(counts, n)
		}
		byThreads[n] = append(byThreads[n], i)
	}
	sort.Ints(counts)
	rng := rand.New(rand.NewSource(seed))
	frac := float64(max) / float64(len(shapes))
	chosen := make([]int, 0, max+len(counts))
	for _, n := range counts {
		idx := byThreads[n]
		want := int(frac * float64(len(idx)))
		if want < 1 {
			want = 1
		}
		if want >= len(idx) {
			chosen = append(chosen, idx...)
			continue
		}
		perm := rng.Perm(len(idx))[:want]
		sort.Ints(perm)
		for _, p := range perm {
			chosen = append(chosen, idx[p])
		}
	}
	sort.Ints(chosen)
	out := make([]Shape, len(chosen))
	for i, c := range chosen {
		out[i] = shapes[c]
	}
	return out
}

// FilterMaxSockets keeps shapes touching at most k sockets (the "2 Socket"
// class of the four-socket experiment, §6.2).
func FilterMaxSockets(shapes []Shape, k int) []Shape {
	var out []Shape
	for _, s := range shapes {
		if s.SocketsUsed() <= k {
			out = append(out, s)
		}
	}
	return out
}

// FilterMaxCores keeps shapes occupying at most k cores in total (the
// "20 Core" class of §6.2).
func FilterMaxCores(shapes []Shape, k int) []Shape {
	var out []Shape
	for _, s := range shapes {
		if s.Cores() <= k {
			out = append(out, s)
		}
	}
	return out
}
