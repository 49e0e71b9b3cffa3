// Package placement represents assignments of workload threads to hardware
// thread contexts, and enumerates the canonical placement space that the
// paper's evaluation explores (§6.1: placements sorted by total thread
// count, then by per-core occupancy).
//
// Because the machines are homogeneous (§2.2), two placements that differ
// only by permuting sockets, cores within a socket, or contexts within a
// core behave identically. The canonical unit is therefore a Shape: for
// each socket, how many cores run one thread and how many run two. Shapes
// expand deterministically into concrete placements.
package placement

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pandia/internal/topology"
)

// Placement is an ordered assignment of workload threads to contexts;
// thread i runs on Placement[i].
type Placement []topology.Context

// Validate checks that every context exists on the machine and is used at
// most once.
func (p Placement) Validate(m topology.Machine) error {
	if len(p) == 0 {
		return fmt.Errorf("placement: empty")
	}
	seen := make(map[topology.Context]bool, len(p))
	for _, c := range p {
		if !m.ValidContext(c) {
			return fmt.Errorf("placement: context %v not on machine %s", c, m.Name)
		}
		if seen[c] {
			return fmt.Errorf("placement: context %v used twice", c)
		}
		seen[c] = true
	}
	return nil
}

// Threads returns the number of threads placed.
func (p Placement) Threads() int { return len(p) }

// SocketsUsed returns the number of distinct sockets hosting threads.
func (p Placement) SocketsUsed() int {
	seen := make(map[int]bool)
	for _, c := range p {
		seen[c.Socket] = true
	}
	return len(seen)
}

// CoresUsed returns the number of distinct physical cores hosting threads.
func (p Placement) CoresUsed(m topology.Machine) int {
	seen := make(map[int]bool)
	for _, c := range p {
		seen[m.GlobalCore(c)] = true
	}
	return len(seen)
}

// String renders the placement compactly.
func (p Placement) String() string {
	parts := make([]string, len(p))
	for i, c := range p {
		parts[i] = c.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// SocketCount is the occupancy of one socket in a canonical shape: Ones
// cores running a single thread and Twos cores running two threads.
type SocketCount struct {
	Ones int `json:"ones"`
	Twos int `json:"twos"`
}

// Threads returns the number of threads the socket hosts.
func (sc SocketCount) Threads() int { return sc.Ones + 2*sc.Twos }

// Cores returns the number of cores the socket occupies.
func (sc SocketCount) Cores() int { return sc.Ones + sc.Twos }

// less orders socket counts for canonicalisation: busier sockets first.
func (sc SocketCount) less(o SocketCount) bool {
	if sc.Threads() != o.Threads() {
		return sc.Threads() > o.Threads()
	}
	return sc.Twos > o.Twos
}

// Shape is a canonical placement: the multiset of per-socket occupancies,
// stored busiest socket first. Sockets beyond len(PerSocket) are empty.
type Shape struct {
	PerSocket []SocketCount
}

// Threads returns the total thread count of the shape.
func (s Shape) Threads() int {
	n := 0
	for _, sc := range s.PerSocket {
		n += sc.Threads()
	}
	return n
}

// Cores returns the total number of occupied cores.
func (s Shape) Cores() int {
	n := 0
	for _, sc := range s.PerSocket {
		n += sc.Cores()
	}
	return n
}

// SocketsUsed returns the number of sockets hosting at least one thread.
func (s Shape) SocketsUsed() int {
	n := 0
	for _, sc := range s.PerSocket {
		if sc.Threads() > 0 {
			n++
		}
	}
	return n
}

// Canonical returns the shape with sockets sorted busiest-first and empty
// sockets trimmed.
func (s Shape) Canonical() Shape {
	out := make([]SocketCount, 0, len(s.PerSocket))
	for _, sc := range s.PerSocket {
		if sc.Threads() > 0 {
			out = append(out, sc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return Shape{PerSocket: out}
}

// Key returns a comparable identity for the canonical form of the shape:
// "ones.twos;" per non-empty socket, busiest first. SortShapes orders by
// this string, so its bytes are part of the canonical plotting order.
func (s Shape) Key() string {
	per := s.PerSocket
	if !s.isCanonical() {
		per = s.Canonical().PerSocket
	}
	var buf [64]byte
	b := buf[:0]
	for _, sc := range per {
		b = strconv.AppendInt(b, int64(sc.Ones), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(sc.Twos), 10)
		b = append(b, ';')
	}
	return string(b)
}

// isCanonical reports whether PerSocket already equals Canonical's: no
// empty sockets and busiest first. Counts equal under less are identical,
// so the order Canonical sorts into is unique.
func (s Shape) isCanonical() bool {
	for i, sc := range s.PerSocket {
		if sc.Threads() <= 0 || i > 0 && sc.less(s.PerSocket[i-1]) {
			return false
		}
	}
	return true
}

// String renders the shape as e.g. "s0:2x2+3x1 s1:4x1".
func (s Shape) String() string {
	var parts []string
	for i, sc := range s.PerSocket {
		if sc.Threads() == 0 {
			continue
		}
		var seg []string
		if sc.Twos > 0 {
			seg = append(seg, fmt.Sprintf("%dx2", sc.Twos))
		}
		if sc.Ones > 0 {
			seg = append(seg, fmt.Sprintf("%dx1", sc.Ones))
		}
		parts = append(parts, fmt.Sprintf("s%d:%s", i, strings.Join(seg, "+")))
	}
	if len(parts) == 0 {
		return "empty"
	}
	return strings.Join(parts, " ")
}

// Validate checks that the shape fits on the machine.
func (s Shape) Validate(m topology.Machine) error {
	if len(s.PerSocket) > m.Sockets {
		return fmt.Errorf("placement: shape uses %d sockets, machine %s has %d",
			len(s.PerSocket), m.Name, m.Sockets)
	}
	if s.Threads() == 0 {
		return fmt.Errorf("placement: empty shape")
	}
	for i, sc := range s.PerSocket {
		if sc.Ones < 0 || sc.Twos < 0 {
			return fmt.Errorf("placement: negative occupancy on socket %d", i)
		}
		if sc.Twos > 0 && m.ThreadsPerCore < 2 {
			return fmt.Errorf("placement: machine %s has no SMT for doubled cores", m.Name)
		}
		if sc.Cores() > m.CoresPerSocket {
			return fmt.Errorf("placement: socket %d needs %d cores, machine %s has %d per socket",
				i, sc.Cores(), m.Name, m.CoresPerSocket)
		}
	}
	return nil
}

// Expand materialises the shape into a concrete placement: on each socket,
// doubled cores come first (cores 0..Twos-1 with both contexts), then
// single-thread cores. Thread order is socket-major.
func (s Shape) Expand(m topology.Machine) Placement {
	var p Placement
	if n := s.Threads(); n > 0 {
		p = make(Placement, 0, n)
	}
	return s.appendTo(p)
}

// appendTo appends the shape's expansion (see Expand) to p.
func (s Shape) appendTo(p Placement) Placement {
	for sIdx, sc := range s.PerSocket {
		core := 0
		for i := 0; i < sc.Twos; i++ {
			p = append(p,
				topology.Context{Socket: sIdx, Core: core, Slot: 0},
				topology.Context{Socket: sIdx, Core: core, Slot: 1})
			core++
		}
		for i := 0; i < sc.Ones; i++ {
			p = append(p, topology.Context{Socket: sIdx, Core: core, Slot: 0})
			core++
		}
	}
	return p
}

// ShapeOf computes the canonical shape of a concrete placement. Core
// occupancy is counted in a dense slice indexed by global core — cores are
// small dense integers, and the in-order sweep keeps the computation
// deterministic without a sort.
func ShapeOf(m topology.Machine, p Placement) Shape {
	occ := make([]int, m.TotalCores())
	for _, c := range p {
		occ[m.GlobalCore(c)]++
	}
	per := make([]SocketCount, m.Sockets)
	for core, n := range occ {
		s := core / m.CoresPerSocket
		switch {
		case n == 1:
			per[s].Ones++
		case n >= 2:
			per[s].Twos++
		}
	}
	return Shape{PerSocket: per}.Canonical()
}
