package locks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sync"

	"pandia/internal/analysis"
	"pandia/internal/analysis/callgraph"
	"pandia/internal/analysis/dataflow"
)

// Finding is one fully-rendered engine finding, anchored in the root
// package. The passes only filter suppressions and report.
type Finding struct {
	Pos     token.Pos
	Message string
}

// OrderEdge is one observed lock-acquisition ordering: To was acquired on
// some path while From was held. Edges are deduplicated by (From, To) with
// the first witness kept.
type OrderEdge struct {
	From, To LockID
	// Pos anchors the witness: the acquiring statement or, for an
	// acquisition inside a callee, the call site.
	Pos token.Pos
	// AcqPos is the ultimate Lock statement (may be in another package).
	AcqPos token.Pos
	// Chain renders the call path from the witness function to the
	// acquisition, e.g. "(*a.S).LockAB → (*a.S).lockB".
	Chain string
	// InRoot reports whether Pos lies in the root package, i.e. whether
	// this package's pass may anchor a report on it.
	InRoot bool
}

// FieldAccess is one read or write of a tracked struct field, with the
// lock set held at that program point.
type FieldAccess struct {
	// Field is the accessed field's object.
	Field *types.Var
	// Pos anchors the access (the field selector).
	Pos token.Pos
	// Write reports mutation: assignment (including through an index),
	// inc/dec, delete, or address-taking.
	Write bool
	// Fresh marks accesses through a local variable holding a value
	// constructed in the same function (constructor idiom): no other
	// goroutine can see the object yet, so guards do not apply.
	Fresh bool
	// InRoot reports whether the access lies in the root package.
	InRoot bool
	// FnName names the enclosing function for messages.
	FnName string

	fn       *callgraph.Node
	root     rootKey
	basePath string
	held     map[LockID]Mode
}

// GuardMode returns the mode the access holds the guard at, where
// guardPath is relative to the field's owning struct ("mu", "state.mu");
// zero means the guard is not held.
func (a *FieldAccess) GuardMode(guardPath string) Mode {
	return a.held[a.guardID(guardPath)]
}

// GuardName renders the guard's lock identity as seen from this access.
func (a *FieldAccess) GuardName(guardPath string) string {
	return a.guardID(guardPath).String()
}

func (a *FieldAccess) guardID(guardPath string) LockID {
	p := guardPath
	if a.basePath != "" {
		p = a.basePath + "." + guardPath
	}
	return a.root.childID(p)
}

// Result is the engine's output for one root package and its module-local
// closure.
type Result struct {
	// OrderEdges is the global lock-acquisition-order graph (deduplicated,
	// deterministic order).
	OrderEdges []OrderEdge
	// Findings are the lock-misuse findings: re-acquisitions of a held
	// lock (locally or through callees), wrong-flavour releases, returns
	// that leak a lock taken in the function, and blocking operations
	// performed while holding a lock.
	Findings []Finding
	// Accesses are all tracked field accesses across the closure; report
	// only those with InRoot set.
	Accesses []*FieldAccess
	// GuardErrs are malformed //pandia:guardedby annotations in the root
	// package.
	GuardErrs []analysis.Diagnostic

	structs map[*types.Var]*structInfo
	entries map[*callgraph.Node]*entryInfo
	fset    *token.FileSet
}

// PosLabel renders a position as "file.go:12" for embedding in messages
// whose anchor lies elsewhere.
func (r *Result) PosLabel(pos token.Pos) string { return posLabel(r.fset, pos) }

// GuardOf returns the //pandia:guardedby declaration of a field, or nil.
func (r *Result) GuardOf(field *types.Var) *GuardDecl {
	if si := r.structs[field]; si != nil {
		return si.guards[field]
	}
	return nil
}

// StructDisp renders the struct a field belongs to, e.g.
// "scheduler.Scheduler".
func (r *Result) StructDisp(field *types.Var) string {
	if si := r.structs[field]; si != nil {
		return si.disp
	}
	return "?"
}

// MutexPaths lists the direct mutex fields of the field's owning struct —
// the candidate guards for inference.
func (r *Result) MutexPaths(field *types.Var) []string {
	if si := r.structs[field]; si != nil {
		return si.mutexPaths
	}
	return nil
}

// EntryNote explains why an access's enclosing function does not hold the
// guard on entry, naming the caller the inference lost the lock at. Empty
// when the function is an entry point in its own right.
func (r *Result) EntryNote(a *FieldAccess, guardPath string) string {
	en := r.entries[a.fn]
	if en == nil || !en.inferred {
		return ""
	}
	id := a.guardID(guardPath)
	if site := en.removed[id]; site != "" {
		return fmt.Sprintf("; %s is not held on entry (e.g. called from %s)", id, site)
	}
	if en.site != "" {
		return fmt.Sprintf("; %s is not held on entry (e.g. called from %s)", id, en.site)
	}
	return ""
}

// litUse classifies how a function literal is consumed.
type litUse uint8

const (
	litValue litUse = iota // stored/passed as a value
	litCall                // called directly at its definition
	litGo                  // spawned with go
	litDefer               // registered with defer
)

// summary is the bottom-up composition contract of one function.
type summary struct {
	// exitHeld holds the locks definitely acquired inside and still held
	// at every return (a lock() helper's net effect).
	exitHeld map[LockID]Mode
	// releasedEntry holds locks definitely released that were not acquired
	// inside (an unlock() helper releasing its caller's lock).
	releasedEntry map[LockID]bool
	// acquired is the transitive may-acquire set, each with a witness.
	acquired map[LockID]*acqInfo
	// blocks is non-nil when some path may block (channel op or classified
	// blocking call), transitively.
	blocks *blockInfo
}

type acqInfo struct {
	mode Mode
	pos  token.Pos // the ultimate Lock statement
	via  []string  // call chain below this function, outermost first
}

type blockInfo struct {
	desc string
	pos  token.Pos
	via  []string
}

// entryInfo is the inferred entry lock set of one function.
type entryInfo struct {
	// held is the intersection of the lock sets over every visible call
	// site; nil means "no call site seen yet" during inference.
	held map[LockID]Mode
	// inferred marks functions whose entry set came from call-site
	// intersection (as opposed to entry points pinned to the empty set).
	inferred bool
	// site labels a representative call site, removed labels the call site
	// at which the inference lost each lock.
	site    string
	removed map[LockID]string
}

// engine runs the analysis for one root package.
type engine struct {
	pass    *analysis.Pass
	g       *callgraph.Graph
	fset    *token.FileSet
	rootPkg *types.Package

	structs     map[*types.Var]*structInfo
	usage       map[*ast.FuncLit]litUse
	refTarget   map[*callgraph.Node]bool
	nonBlockPos map[token.Pos]bool
	writes      map[token.Pos]bool
	fresh       map[*callgraph.Node]map[types.Object]bool
	edges       map[*callgraph.Node]map[token.Pos][]*callgraph.Edge
	cfgs        map[*callgraph.Node]*dataflow.Graph
	sums        map[*callgraph.Node]*summary
	entries     map[*callgraph.Node]*entryInfo

	orderSeen map[[2]LockID]bool
	findSeen  map[string]bool
	result    *Result
}

// cache memoizes Analyze per root package so deadlockcheck and guardcheck
// share one engine run per package.
var (
	cacheMu sync.Mutex
	cache   = map[*types.Package]*Result{}
)

// Analyze runs (or returns the memoized) lock-set analysis for the pass's
// package and its module-local closure.
func Analyze(pass *analysis.Pass) *Result {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if r, ok := cache[pass.Pkg]; ok {
		return r
	}
	e := &engine{
		pass:        pass,
		g:           callgraph.Build(pass),
		fset:        pass.Fset,
		rootPkg:     pass.Pkg,
		usage:       map[*ast.FuncLit]litUse{},
		refTarget:   map[*callgraph.Node]bool{},
		nonBlockPos: map[token.Pos]bool{},
		writes:      map[token.Pos]bool{},
		fresh:       map[*callgraph.Node]map[types.Object]bool{},
		edges:       map[*callgraph.Node]map[token.Pos][]*callgraph.Edge{},
		cfgs:        map[*callgraph.Node]*dataflow.Graph{},
		sums:        map[*callgraph.Node]*summary{},
		orderSeen:   map[[2]LockID]bool{},
		findSeen:    map[string]bool{},
	}
	e.result = &Result{fset: pass.Fset}
	e.prepare()
	e.summarize()
	e.inferEntries()
	e.replayAll()
	e.result.structs = e.structs
	e.result.entries = e.entries
	cache[pass.Pkg] = e.result
	return e.result
}

// prepare builds the per-node indexes: struct/guard registry, literal
// usage, ref targets, non-blocking select positions, write targets,
// constructor-fresh locals, edge lookup, and CFGs.
func (e *engine) prepare() {
	pkgs := []*analysis.Package{{
		Path:    e.rootPkg.Path(),
		Fset:    e.fset,
		Files:   e.pass.Files,
		Types:   e.rootPkg,
		Info:    e.pass.TypesInfo,
		Imports: e.pass.Deps,
	}}
	seen := map[string]bool{pkgs[0].Path: true}
	var walkDeps func(m map[string]*analysis.Package)
	walkDeps = func(m map[string]*analysis.Package) {
		for _, p := range m {
			if p == nil || seen[p.Path] {
				continue
			}
			seen[p.Path] = true
			pkgs = append(pkgs, p)
			walkDeps(p.Imports)
		}
	}
	walkDeps(e.pass.Deps)
	e.collectStructs(pkgs)

	for _, n := range e.g.Nodes {
		em := map[token.Pos][]*callgraph.Edge{}
		for _, ed := range n.Edges {
			em[ed.Pos] = append(em[ed.Pos], ed)
			if ed.Kind == callgraph.Ref {
				for _, c := range ed.Callees {
					e.refTarget[c] = true
				}
			}
		}
		e.edges[n] = em
		e.cfgs[n] = dataflow.New(n.Body())
		e.prepNode(n)
	}
}

// prepNode classifies literal usage, marks write-target selectors and
// fresh locals, and records channel ops exempted by a select default.
func (e *engine) prepNode(n *callgraph.Node) {
	info := n.Pkg.Info
	freshSet := map[types.Object]bool{}
	e.fresh[n] = freshSet

	markWrite := func(x ast.Expr) {
		t := writeTarget(x)
		if sel, ok := t.(*ast.SelectorExpr); ok {
			e.writes[sel.Pos()] = true
		}
	}
	markFresh := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || !freshExpr(rhs) {
			return
		}
		if obj := info.Defs[id]; obj != nil {
			freshSet[obj] = true
		} else if obj := info.Uses[id]; obj != nil {
			freshSet[obj] = true
		}
	}

	ast.Inspect(n.Body(), func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if _, ok := e.usage[x]; !ok {
				e.usage[x] = litValue
			}
			return false // nested bodies are their own nodes
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				e.usage[lit] = litGo
			}
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				e.usage[lit] = litDefer
			}
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				if _, seen := e.usage[lit]; !seen {
					e.usage[lit] = litCall
				}
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "delete" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(x.Args) > 0 {
					markWrite(x.Args[0])
				}
			}
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				markWrite(l)
			}
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					markFresh(x.Lhs[i], x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i := range x.Names {
					markFresh(x.Names[i], x.Values[i])
				}
			}
		case *ast.IncDecStmt:
			markWrite(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				markWrite(x.X)
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range x.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				for _, cl := range x.Body.List {
					cc, ok := cl.(*ast.CommClause)
					if !ok || cc.Comm == nil {
						continue
					}
					ast.Inspect(cc.Comm, func(y ast.Node) bool {
						switch y := y.(type) {
						case *ast.SendStmt:
							e.nonBlockPos[y.Pos()] = true
						case *ast.UnaryExpr:
							if y.Op == token.ARROW {
								e.nonBlockPos[y.Pos()] = true
							}
						}
						return true
					})
				}
			}
		}
		return true
	})
}

// writeTarget peels index/star/paren wrappers off an assignment target so
// `s.m[k] = v` and `*s.p = v` mark the selector itself.
func writeTarget(x ast.Expr) ast.Expr {
	for {
		switch t := x.(type) {
		case *ast.ParenExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.StarExpr:
			x = t.X
		default:
			return x
		}
	}
}

// freshExpr recognizes constructor right-hand sides: composite literals,
// their addresses, new(T), and make(...).
func freshExpr(x ast.Expr) bool {
	switch x := ast.Unparen(x).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			return id.Name == "new" || id.Name == "make"
		}
	}
	return false
}
