package locks

import (
	"fmt"
	"go/ast"
	"go/token"

	"pandia/internal/analysis/callgraph"
)

// maxSCCRounds bounds the fixed-point iteration of one recursive SCC's
// summaries; lock deltas stabilize in two or three rounds.
const maxSCCRounds = 8

// summarize computes the bottom-up summaries in callee-before-caller SCC
// order, iterating recursive components to a fixed point.
func (e *engine) summarize() {
	for _, scc := range e.g.SCCs() {
		recursive := len(scc) > 1
		if !recursive {
			n := scc[0]
			for _, ed := range n.Edges {
				for _, c := range ed.Callees {
					if c == n {
						recursive = true
					}
				}
			}
		}
		for round := 0; round < maxSCCRounds; round++ {
			changed := false
			for _, n := range scc {
				s := e.computeSummary(n)
				if !summaryEqual(e.sums[n], s) {
					e.sums[n] = s
					changed = true
				}
			}
			if !changed || !recursive {
				break
			}
		}
	}
}

// computeSummary derives one function's summary: the definite exit delta
// from the converged exit fact, the may-acquire and may-block sets from a
// deterministic replay.
func (e *engine) computeSummary(n *callgraph.Node) *summary {
	res := e.solveNode(n, nil)
	sum := &summary{
		exitHeld:      map[LockID]Mode{},
		releasedEntry: map[LockID]bool{},
		acquired:      map[LockID]*acqInfo{},
	}
	if exitF, ok := res.In[e.cfgs[n].Exit].(*fact); ok && !exitF.bottom {
		f := exitF.clone()
		f.applyDeferred()
		sum.exitHeld = f.held
		sum.releasedEntry = f.released
	}
	s := &sink{
		onAcquire: func(id LockID, mode Mode, anchor, acqPos token.Pos, via []string, f *fact) {
			if sum.acquired[id] == nil {
				sum.acquired[id] = &acqInfo{mode: mode, pos: acqPos, via: via}
			}
		},
		onBlock: func(anchor, opPos token.Pos, desc string, via []string, f *fact) {
			if sum.blocks == nil {
				sum.blocks = &blockInfo{desc: desc, pos: opPos, via: via}
			}
		},
	}
	e.replayNode(n, res, s)
	return sum
}

// summaryEqual compares the convergence-relevant parts of two summaries:
// the key sets, not the witnesses (witness choice must not keep the
// fixed-point loop spinning).
func summaryEqual(a, b *summary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.exitHeld) != len(b.exitHeld) || len(a.releasedEntry) != len(b.releasedEntry) ||
		len(a.acquired) != len(b.acquired) || (a.blocks == nil) != (b.blocks == nil) {
		return false
	}
	for id, m := range a.exitHeld {
		if b.exitHeld[id] != m {
			return false
		}
	}
	for id := range a.releasedEntry {
		if !b.releasedEntry[id] {
			return false
		}
	}
	for id := range a.acquired {
		if b.acquired[id] == nil {
			return false
		}
	}
	return true
}

// inferable reports whether a function's entry lock set may be inferred
// from its call sites. Exported functions, main/init, functions whose
// address escapes (Ref edges), and go/defer/value literals are entry
// points: their entry set is pinned empty. Unexported functions are only
// callable from their own package, whose sources are always in the
// closure, so the intersection over visible call sites is sound.
func (e *engine) inferable(n *callgraph.Node) bool {
	if n.Lit != nil {
		return e.usage[n.Lit] == litCall
	}
	fn := n.Func
	if fn == nil || fn.Exported() || fn.Name() == "main" || fn.Name() == "init" {
		return false
	}
	return !e.refTarget[n]
}

// inferEntries computes entry lock sets top-down: sweeps in caller-first
// order intersect the held set over every call site of each inferable
// function, until no entry changes. Entry sets only shrink once a function
// is reached, so the loop converges.
func (e *engine) inferEntries() {
	e.entries = map[*callgraph.Node]*entryInfo{}
	for _, n := range e.g.Nodes {
		if e.inferable(n) {
			e.entries[n] = &entryInfo{inferred: true, removed: map[LockID]string{}}
		} else {
			e.entries[n] = &entryInfo{held: map[LockID]Mode{}}
		}
	}
	sccs := e.g.SCCs()
	var order []*callgraph.Node
	for i := len(sccs) - 1; i >= 0; i-- {
		order = append(order, sccs[i]...)
	}

	type cand struct {
		held    map[LockID]Mode
		site    string
		removed map[LockID]string
	}
	const maxSweeps = 10
	for sweep := 0; sweep < maxSweeps; sweep++ {
		cands := map[*callgraph.Node]*cand{}
		for _, n := range order {
			en := e.entries[n]
			if en.held == nil {
				continue // not reached by any processed caller yet
			}
			caller := n
			res := e.solveNode(n, en.held)
			s := &sink{onCall: func(call *ast.CallExpr, ed *callgraph.Edge, f *fact) {
				isLit := ed.Kind == callgraph.Literal
				for _, c := range ed.Callees {
					if !e.inferable(c) {
						continue
					}
					mapped := filterHeld(f.held, isLit)
					label := e.siteLabel(caller, call.Pos())
					cd := cands[c]
					if cd == nil {
						cands[c] = &cand{held: mapped, site: label, removed: map[LockID]string{}}
						continue
					}
					for id := range cd.held {
						if m, ok := mapped[id]; ok {
							cd.held[id] = minMode(cd.held[id], m)
						} else {
							delete(cd.held, id)
							cd.removed[id] = label
						}
					}
				}
			}}
			e.replayNode(n, res, s)
		}
		changed := false
		for _, n := range order {
			en := e.entries[n]
			if !en.inferred {
				continue
			}
			cd := cands[n]
			var nh map[LockID]Mode
			if cd != nil {
				nh = cd.held
			}
			if !heldEq(en.held, nh) {
				changed = true
			}
			if cd != nil {
				en.held = cd.held
				en.site = cd.site
				for id, l := range cd.removed {
					en.removed[id] = l
				}
			} else {
				en.held = nil
			}
		}
		if !changed {
			break
		}
	}
	for _, en := range e.entries {
		if en.held == nil {
			en.held = map[LockID]Mode{} // never called: dead code, no claims
		}
	}
}

// heldEq compares two entry sets, distinguishing nil (unreached) from
// empty (no locks provably held).
func heldEq(a, b map[LockID]Mode) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for id, m := range a {
		if b[id] != m {
			return false
		}
	}
	return true
}

// replayAll runs the final pass over every function with its inferred
// entry set, collecting order edges, double-locks, wrong-flavour releases,
// returns that leak a lock, blocking-under-lock findings, and
// guarded-field accesses.
func (e *engine) replayAll() {
	for _, n := range e.g.Nodes {
		n := n
		entry := e.entryOf(n)
		res := e.solveNode(n, entry)
		inRoot := n.Pkg.Types == e.rootPkg
		fnName := n.Name()
		s := &sink{
			onAcquire: func(id LockID, mode Mode, anchor, acqPos token.Pos, via []string, f *fact) {
				for _, h := range sortedIDs(f.held) {
					hm := f.held[h]
					if h == id {
						if hm == ModeRead && mode == ModeRead {
							continue // RLock is shareable
						}
						if _, inherited := entry[id]; !inRoot || len(via) == 0 && inherited {
							continue // its own package, or the caller's call site, reports it
						}
						e.addFinding(&e.result.Findings, anchor, fmt.Sprintf(
							"%s is acquired again via %s (%s) while already %s-held; sync mutexes are not re-entrant",
							id, chainLabel(fnName, via), posLabel(e.fset, acqPos), hm))
						continue
					}
					key := [2]LockID{h, id}
					if e.orderSeen[key] {
						continue
					}
					e.orderSeen[key] = true
					e.result.OrderEdges = append(e.result.OrderEdges, OrderEdge{
						From: h, To: id, Pos: anchor, AcqPos: acqPos,
						Chain: chainLabel(fnName, via), InRoot: inRoot,
					})
				}
			},
			onBlock: func(anchor, opPos token.Pos, desc string, via []string, f *fact) {
				if len(f.held) == 0 || !inRoot {
					return
				}
				if desc == condWait && len(f.held) < 2 {
					return // Wait releases the Cond's own lock while it waits
				}
				msg := fmt.Sprintf("%s while holding %s", desc, holding(f.held))
				if len(via) > 0 {
					msg += fmt.Sprintf(" via %s (%s)", chainLabel(fnName, via), posLabel(e.fset, opPos))
				}
				e.addFinding(&e.result.Findings, anchor, msg)
			},
			onRelease: func(call *ast.CallExpr, op syncOp, f *fact) {
				hm, want := f.held[op.id], "Unlock"
				if hm == ModeRead {
					want = "RUnlock"
				}
				if inRoot && hm != 0 && op.method != want {
					e.addFinding(&e.result.Findings, call.Pos(), fmt.Sprintf(
						"%s of %s while %s-held (want %s)", op.method, op.id, hm, want))
				}
			},
			onReturn: func(ret *ast.ReturnStmt, f *fact) {
				if !inRoot {
					return
				}
				for _, id := range sortedIDs(f.held) {
					if _, inherited := entry[id]; !inherited && !f.deferred[id] {
						e.addFinding(&e.result.Findings, ret.Pos(), fmt.Sprintf(
							"return while holding %s with no deferred unlock", id))
					}
				}
			},
			onAccess: func(a *FieldAccess) {
				e.result.Accesses = append(e.result.Accesses, a)
			},
		}
		e.replayNode(n, res, s)
	}
}

// addFinding appends a finding, deduplicating identical (position,
// message) pairs across replay paths.
func (e *engine) addFinding(list *[]Finding, pos token.Pos, msg string) {
	key := fmt.Sprintf("%d\x00%s", pos, msg)
	if e.findSeen[key] {
		return
	}
	e.findSeen[key] = true
	*list = append(*list, Finding{Pos: pos, Message: msg})
}
