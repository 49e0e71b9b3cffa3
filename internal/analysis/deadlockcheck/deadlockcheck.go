// Package deadlockcheck is the mutex-discipline pass of pandia-vet. It
// runs the internal/analysis/locks engine over the module-local call graph
// and reports, in every package:
//
//   - lock-order inversions: every acquisition of lock B while lock A is
//     held (in any function, through any call chain) contributes an edge
//     A → B to a global lock-acquisition-order graph; a cycle in that
//     graph means two goroutines can acquire the same locks in opposite
//     orders and deadlock. Each cycle is reported once, with a call-chain
//     witness per edge.
//   - double-locks: a Lock of a mutex that is already held — in the same
//     function, or in a helper some caller calls with it held — which
//     self-deadlocks because sync mutexes are not re-entrant; Lock while
//     RLock-ed (the upgrade deadlock) counts too.
//   - wrong-flavour releases: Unlock of a read-held lock, RUnlock of a
//     write-held one.
//   - leaked locks: an explicit return while a lock taken in the function
//     is still held and no deferred unlock covers it.
//   - blocking under a lock: a channel send/receive, WaitGroup.Wait,
//     time.Sleep, net/http or os/exec call reached (directly or through
//     callees) while a lock is held, stalling every other goroutine that
//     needs the lock; Cond.Wait only when a second lock is held, since it
//     releases its own.
//
// Only definite lock states survive a CFG join, so conditionally-held
// locks are never reported. Copying a lock-bearing value is go vet's
// copylocks check, not this pass's.
//
// A finding that is intended behavior (e.g. a deliberately-held lock
// around a bounded channel handoff) is suppressed with a trailing
//
//	//deadlockcheck:ok <reason>
//
// on the reported line (or the line above); the reason is mandatory.
// Findings in _test.go files are ignored.
package deadlockcheck

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"pandia/internal/analysis"
	"pandia/internal/analysis/locks"
)

// Analyzer is the deadlockcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "deadlockcheck",
	Doc: "detect lock-order inversions, double-locks, wrong-flavour unlocks, returns that leak " +
		"a lock, and blocking calls under a lock",
	Run: run,
}

type checker struct {
	pass *analysis.Pass
	ok   map[string]map[int]bool // filename -> lines carrying //deadlockcheck:ok
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, ok: map[string]map[int]bool{}}
	c.collectDirectives()
	c.checkSuppressionReasons()

	res := locks.Analyze(pass)
	c.reportCycles(res)
	for _, f := range res.Findings {
		c.report(f.Pos, f.Message)
	}
	return nil
}

// reportCycles finds the strongly connected components of the global
// lock-order graph and reports each cyclic one, anchored at its first
// in-package witness edge.
func (c *checker) reportCycles(res *locks.Result) {
	for _, group := range cyclicGroups(res.OrderEdges) {
		sort.Slice(group, func(i, j int) bool {
			if group[i].From.String() != group[j].From.String() {
				return group[i].From.String() < group[j].From.String()
			}
			return group[i].To.String() < group[j].To.String()
		})
		var anchor *locks.OrderEdge
		for i := range group {
			if group[i].InRoot {
				anchor = &group[i]
				break
			}
		}
		if anchor == nil {
			continue // fully outside this package; its own pass reports it
		}
		var names []string
		seen := map[string]bool{}
		for _, ed := range group {
			for _, id := range []string{ed.From.String(), ed.To.String()} {
				if !seen[id] {
					seen[id] = true
					names = append(names, id)
				}
			}
		}
		sort.Strings(names)
		clauses := make([]string, len(group))
		for i, ed := range group {
			clauses[i] = fmt.Sprintf("holding %s, %s is acquired via %s (%s)",
				ed.From, ed.To, ed.Chain, res.PosLabel(ed.AcqPos))
		}
		c.report(anchor.Pos, fmt.Sprintf("potential lock-order inversion among %s: %s",
			strings.Join(names, ", "), strings.Join(clauses, "; ")))
	}
}

// cyclicGroups returns, for every cyclic SCC of the lock-order graph, the
// edges inside it (Tarjan, deterministic in edge order).
func cyclicGroups(edges []locks.OrderEdge) [][]locks.OrderEdge {
	var nodes []locks.LockID
	index := map[locks.LockID]int{}
	nodeOf := func(id locks.LockID) int {
		if i, ok := index[id]; ok {
			return i
		}
		index[id] = len(nodes)
		nodes = append(nodes, id)
		return len(nodes) - 1
	}
	adj := map[int][]int{}
	for _, ed := range edges {
		f, t := nodeOf(ed.From), nodeOf(ed.To)
		adj[f] = append(adj[f], t)
	}

	// Iterative Tarjan.
	const unvisited = -1
	idx := make([]int, len(nodes))
	low := make([]int, len(nodes))
	onStack := make([]bool, len(nodes))
	for i := range idx {
		idx[i] = unvisited
	}
	var stack []int
	next := 0
	comp := make([]int, len(nodes))
	for i := range comp {
		comp[i] = unvisited
	}
	ncomp := 0

	type frame struct{ v, ei int }
	var dfs func(root int)
	dfs = func(root int) {
		frames := []frame{{root, 0}}
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			v := fr.v
			if fr.ei == 0 {
				idx[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for fr.ei < len(adj[v]) {
				w := adj[v][fr.ei]
				fr.ei++
				if idx[w] == unvisited {
					frames = append(frames, frame{w, 0})
					advanced = true
					break
				}
				if onStack[w] && idx[w] < low[v] {
					low[v] = idx[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == idx[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	for i := range nodes {
		if idx[i] == unvisited {
			dfs(i)
		}
	}

	size := map[int]int{}
	for _, cp := range comp {
		size[cp]++
	}
	groups := map[int][]locks.OrderEdge{}
	var order []int
	for _, ed := range edges {
		f, t := index[ed.From], index[ed.To]
		if comp[f] != comp[t] || size[comp[f]] < 2 {
			continue
		}
		if _, ok := groups[comp[f]]; !ok {
			order = append(order, comp[f])
		}
		groups[comp[f]] = append(groups[comp[f]], ed)
	}
	out := make([][]locks.OrderEdge, 0, len(order))
	for _, cp := range order {
		out = append(out, groups[cp])
	}
	return out
}

// report emits one finding unless it lies in a test file or its line
// carries a //deadlockcheck:ok suppression.
func (c *checker) report(pos token.Pos, msg string) {
	if c.pass.IsTestFile(pos) || c.suppressed(pos) {
		return
	}
	c.pass.Report(analysis.Diagnostic{Pos: pos, Message: msg})
}

// isDirective reports whether the comment is the machine-readable form of
// the directive (prefix match, so prose quoting it does not count).
func isDirective(text, name string) bool {
	return strings.HasPrefix(text, "//"+name) || strings.HasPrefix(text, "/*"+name)
}

// collectDirectives maps the lines carrying //deadlockcheck:ok in every
// package file (the comment's own line and the line below, matching the
// trailing and line-above placements).
func (c *checker) collectDirectives() {
	for _, f := range c.pass.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if !isDirective(cm.Text, "deadlockcheck:ok") {
					continue
				}
				p := c.pass.Fset.Position(cm.Pos())
				m := c.ok[p.Filename]
				if m == nil {
					m = map[int]bool{}
					c.ok[p.Filename] = m
				}
				m[p.Line] = true
				m[p.Line+1] = true
			}
		}
	}
}

func (c *checker) suppressed(pos token.Pos) bool {
	p := c.pass.Fset.Position(pos)
	return c.ok[p.Filename][p.Line]
}

// checkSuppressionReasons enforces that every //deadlockcheck:ok carries a
// reason: silent suppressions hide intent from the next reader.
func (c *checker) checkSuppressionReasons() {
	for _, f := range c.pass.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if !isDirective(cm.Text, "deadlockcheck:ok") {
					continue
				}
				reason := strings.TrimSpace(strings.TrimSuffix(cm.Text[2+len("deadlockcheck:ok"):], "*/"))
				if reason == "" {
					c.pass.Reportf(cm.Pos(), "//deadlockcheck:ok needs a reason (//deadlockcheck:ok <why this locking is safe>)")
				}
			}
		}
	}
}
