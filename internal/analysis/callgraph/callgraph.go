// Package callgraph builds a module-local call graph on top of the
// repository's self-contained analysis framework, and solves bottom-up
// summary problems over it.
//
// The intraprocedural passes of pandia-vet stop at function boundaries: a
// property like "this function performs no heap allocation" or "this
// function never observes nondeterminism" depends on everything the
// function calls, transitively. This package supplies the missing
// structure:
//
//   - a Graph of every function declared in a package and its module-local
//     import closure (the Deps the loader retains with syntax), including a
//     node per function literal;
//   - call edges for static calls and method calls (method resolution goes
//     through go/types selections, so promoted methods of embedded fields
//     and value-receiver methods resolve to the declaration that actually
//     runs), conservative fan-out for interface method calls (every
//     module-local concrete method that implements the interface), and
//     explicitly-unresolved edges for calls through func values;
//   - references to functions and bound method values as may-call edges,
//     so a callback stashed in a field still contributes to its creator's
//     summary;
//   - Tarjan SCCs in bottom-up (callee-before-caller) order, and a generic
//     fixed-point Solve for monotone per-function summaries that converges
//     on mutually recursive cycles instead of looping.
//
// Calls that leave the loaded closure (the standard library) carry the
// callee's *types.Func so clients can classify them from a table; calls
// whose target cannot be named at all (func values, interfaces with no
// module-local implementation) are marked unresolved and clients must
// treat them as unknown.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"pandia/internal/analysis"
)

// CallKind classifies how an edge's callee is reached.
type CallKind uint8

const (
	// Static is a direct call of a declared function or method, including
	// promoted methods of embedded fields resolved through go/types.
	Static CallKind = iota
	// Literal is a call of (or reference to) a function literal; the callee
	// is the literal's own node.
	Literal
	// Interface is a dynamic method call through an interface value. Callees
	// holds every module-local concrete method that can be behind it.
	Interface
	// FuncValue is a dynamic call through a func-typed value; the target is
	// unknowable module-locally, so the edge is unresolved.
	FuncValue
	// Ref is a reference to a function or method that is not itself a call
	// (a func value or bound method value being created). The referenced
	// function may run later, so summary solvers treat Ref as may-call.
	Ref
)

// String names the kind for diagnostics.
func (k CallKind) String() string {
	switch k {
	case Static:
		return "static"
	case Literal:
		return "literal"
	case Interface:
		return "interface"
	case FuncValue:
		return "func-value"
	case Ref:
		return "ref"
	default:
		return "unknown"
	}
}

// Edge is one call (or may-call reference) site.
type Edge struct {
	// Pos is the call or reference position in the caller's body.
	Pos token.Pos
	// Kind classifies the dispatch.
	Kind CallKind
	// Desc renders the callee for reports: "fmt.Errorf", "(obs.Tracer).Emit",
	// "func literal", or the func value's expression.
	Desc string
	// Callees are the resolved module-local targets: exactly one for Static,
	// Literal, and Ref edges, any number for Interface fan-out.
	Callees []*Node
	// External names a callee outside the loaded closure (standard library),
	// when the call is static but the body is unavailable.
	External *types.Func
	// Bound marks a Ref edge that creates a bound method value (x.M with a
	// concrete receiver value), which allocates its receiver closure.
	Bound bool
}

// Unresolved reports whether the edge has no nameable target at all: a call
// through a func value, or an interface call with no module-local
// implementation.
func (e *Edge) Unresolved() bool {
	return len(e.Callees) == 0 && e.External == nil
}

// Node is one function in the graph: a declared function or method, or a
// function literal.
type Node struct {
	// Func is the declared function's type object; nil for literals.
	Func *types.Func
	// Decl is the declaration carrying the body; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Pkg is the package whose sources hold the body.
	Pkg *analysis.Package
	// Edges are the node's call and reference sites in source order.
	Edges []*Edge

	name  string
	index int // build order, for deterministic SCC output
}

// Name renders the node for reports: "core.SafeDiv",
// "(*core.Predictor).PredictTime", or "core.PredictSweep$1" for the first
// literal inside PredictSweep. Module-path prefixes are stripped.
func (n *Node) Name() string { return n.name }

// Body returns the function body.
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the declaration or literal position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Graph is a call graph over one package and its module-local import
// closure.
type Graph struct {
	// Nodes lists every function in deterministic order: packages sorted by
	// import path, files and declarations in source order.
	Nodes []*Node
	// Fset positions every node and edge.
	Fset *token.FileSet

	byFunc map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node
}

// NodeOf returns the node of a declared function, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byFunc[fn] }

// LitNode returns the node of a function literal, or nil.
func (g *Graph) LitNode(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// shortPath compresses an import path for display: the module prefix and
// internal/ segment carry no information in reports.
func shortPath(path string) string {
	path = strings.TrimPrefix(path, "pandia/internal/")
	path = strings.TrimPrefix(path, "pandia/")
	return path
}

// FuncName renders any *types.Func the way graph nodes are named, e.g.
// "fmt.Errorf" or "(*core.Predictor).PredictTime".
func FuncName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		if fn.Pkg() == nil {
			return fn.Name()
		}
		return shortPath(fn.Pkg().Path()) + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
		ptr = "*"
	}
	name := types.TypeString(recv, func(p *types.Package) string { return shortPath(p.Path()) })
	if ptr != "" {
		return "(*" + name + ")." + fn.Name()
	}
	return "(" + name + ")." + fn.Name()
}

// Build constructs the graph for the pass's package plus the transitive
// module-local dependency closure the loader retained with syntax.
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{
		Fset:   pass.Fset,
		byFunc: make(map[*types.Func]*Node),
		byLit:  make(map[*ast.FuncLit]*Node),
	}
	b := &builder{g: g}

	// Collect the closure deterministically: dependencies sorted by path,
	// the root package last (its nodes are usually the entry points and
	// reports read best when the graph is callee-major, but order only needs
	// to be stable).
	root := &analysis.Package{
		Path:    pass.Pkg.Path(),
		Fset:    pass.Fset,
		Files:   pass.Files,
		Types:   pass.Pkg,
		Info:    pass.TypesInfo,
		Imports: pass.Deps,
	}
	closure := map[string]*analysis.Package{}
	collectClosure(root, closure)
	var paths []string
	for p := range closure {
		if p != root.Path {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		b.declare(closure[p])
	}
	b.declare(root)
	for _, p := range paths {
		b.connect(closure[p])
	}
	b.connect(root)
	b.resolveInterfaces(closure, paths, root)
	return g
}

func collectClosure(pkg *analysis.Package, out map[string]*analysis.Package) {
	if pkg == nil || out[pkg.Path] != nil {
		return
	}
	out[pkg.Path] = pkg
	var deps []string
	for p := range pkg.Imports { //detflow:ignore collected then sorted below
		deps = append(deps, p)
	}
	sort.Strings(deps)
	for _, p := range deps {
		collectClosure(pkg.Imports[p], out)
	}
}

// builder carries the two-phase construction state: declare creates every
// node first so connect can resolve forward references, and interface calls
// are fanned out last, once every method node exists.
type builder struct {
	g     *Graph
	iface []pendingIface
}

// pendingIface is one interface method call awaiting fan-out resolution.
type pendingIface struct {
	edge  *Edge
	iface *types.Interface
	name  string
	pkg   *types.Package // the interface method's package, for lookup qualification
}

// declare creates a node for every declared function in pkg. Literal nodes
// are created during connect, when their enclosing function is walked.
func (b *builder) declare(pkg *analysis.Package) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			n := &Node{Func: fn, Decl: fd, Pkg: pkg, name: FuncName(fn), index: len(b.g.Nodes)}
			b.g.Nodes = append(b.g.Nodes, n)
			b.g.byFunc[fn] = n
		}
	}
}

// connect extracts the call and reference edges of every declared function
// in pkg, creating literal nodes as they are encountered.
func (b *builder) connect(pkg *analysis.Package) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if n := b.g.byFunc[fn]; n != nil {
				b.walk(n, fd.Body)
			}
		}
		// Literals in package-level var initialisers have no enclosing
		// function node; give each its own root node so its body is still
		// analysed.
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			ast.Inspect(gd, func(x ast.Node) bool {
				if lit, ok := x.(*ast.FuncLit); ok {
					if b.g.byLit[lit] == nil {
						n := b.litNode(pkg, lit, shortPath(pkg.Path)+".init")
						b.walk(n, lit.Body)
					}
					return false
				}
				return true
			})
		}
	}
}

// litNode creates (and registers) the node of one function literal.
func (b *builder) litNode(pkg *analysis.Package, lit *ast.FuncLit, parent string) *Node {
	n := &Node{Lit: lit, Pkg: pkg, index: len(b.g.Nodes)}
	n.name = fmt.Sprintf("%s$%d", parent, litOrdinal(b.g, parent)+1)
	b.g.Nodes = append(b.g.Nodes, n)
	b.g.byLit[lit] = n
	return n
}

// litOrdinal counts the literals already named under parent, so successive
// literals in one function render as parent$1, parent$2, …
func litOrdinal(g *Graph, parent string) int {
	c := 0
	prefix := parent + "$"
	for _, n := range g.Nodes {
		if n.Lit != nil && strings.HasPrefix(n.name, prefix) {
			c++
		}
	}
	return c
}

// walk extracts edges from one function body. Nested literal bodies belong
// to their own nodes: the walk records a Literal edge at the literal's
// position and recurses with the literal's node as the caller.
func (b *builder) walk(n *Node, body *ast.BlockStmt) {
	info := n.Pkg.Info
	// callFuns marks expressions appearing as the Fun of a call, so the
	// reference pass below does not double-count them.
	callFuns := map[ast.Expr]bool{}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			lit := b.g.byLit[x]
			if lit == nil {
				lit = b.litNode(n.Pkg, x, n.name)
			}
			n.Edges = append(n.Edges, &Edge{Pos: x.Pos(), Kind: Literal, Desc: "func literal", Callees: []*Node{lit}})
			b.walk(lit, x.Body)
			return false
		case *ast.CallExpr:
			fun := ast.Unparen(x.Fun)
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
				return true // conversion, not a call
			}
			callFuns[fun] = true
			// Mark the callee's inner expressions too (the ident under a
			// generic instantiation, a selector's Sel ident) so the
			// reference pass below does not record a second, spurious Ref
			// edge for the same call.
			inner := fun
			switch idx := fun.(type) {
			case *ast.IndexExpr:
				inner = ast.Unparen(idx.X)
			case *ast.IndexListExpr:
				inner = ast.Unparen(idx.X)
			}
			callFuns[inner] = true
			if sel, ok := inner.(*ast.SelectorExpr); ok {
				callFuns[sel.Sel] = true
			}
			b.callEdge(n, x, fun)
			return true
		case *ast.Ident:
			if callFuns[x] {
				return true
			}
			if fn, ok := info.Uses[x].(*types.Func); ok {
				b.refEdge(n, x.Pos(), fn, false)
			}
			return true
		case *ast.SelectorExpr:
			if callFuns[x] {
				return true
			}
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					b.refEdge(n, x.Pos(), fn, true)
					return false // X already handled; Sel is not a use
				}
			}
			if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
				// Qualified function reference (pkg.F) or method expression
				// (T.M) used as a value.
				b.refEdge(n, x.Pos(), fn, false)
				return false
			}
			return true
		}
		return true
	})
}

// refEdge records a non-call reference to fn as a may-call edge.
func (b *builder) refEdge(n *Node, pos token.Pos, fn *types.Func, bound bool) {
	e := &Edge{Pos: pos, Kind: Ref, Desc: FuncName(fn), Bound: bound}
	if callee := b.g.byFunc[fn]; callee != nil {
		e.Callees = []*Node{callee}
	} else {
		e.External = fn
	}
	n.Edges = append(n.Edges, e)
}

// callEdge records the edge of one call expression whose Fun is fun
// (parentheses stripped).
func (b *builder) callEdge(n *Node, call *ast.CallExpr, fun ast.Expr) {
	info := n.Pkg.Info
	// Generic instantiations: f[T](…) and x.m[T](…).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		// The FuncLit case of walk already records the Literal edge.
		return
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			b.staticEdge(n, call.Pos(), obj)
		case *types.Builtin, nil:
			// Builtins (append, make, new, …) are not call-graph edges;
			// allocation-aware clients classify them from the AST directly.
		default:
			// A func-typed variable: dynamic, unresolved.
			n.Edges = append(n.Edges, &Edge{Pos: call.Pos(), Kind: FuncValue, Desc: fun.Name})
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				fn, _ := sel.Obj().(*types.Func)
				if fn == nil {
					return
				}
				if types.IsInterface(sel.Recv()) {
					iface, _ := sel.Recv().Underlying().(*types.Interface)
					e := &Edge{Pos: call.Pos(), Kind: Interface,
						Desc: "(" + types.TypeString(sel.Recv(), func(p *types.Package) string { return shortPath(p.Path()) }) + ")." + fn.Name()}
					n.Edges = append(n.Edges, e)
					b.iface = append(b.iface, pendingIface{edge: e, iface: iface, name: fn.Name(), pkg: fn.Pkg()})
					return
				}
				b.staticEdge(n, call.Pos(), fn)
				return
			case types.MethodExpr:
				if fn, ok := sel.Obj().(*types.Func); ok {
					b.staticEdge(n, call.Pos(), fn)
				}
				return
			case types.FieldVal:
				// Calling a func-typed field: dynamic, unresolved.
				n.Edges = append(n.Edges, &Edge{Pos: call.Pos(), Kind: FuncValue, Desc: types.ExprString(fun)})
				return
			}
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			// Package-qualified call (pkg.F).
			b.staticEdge(n, call.Pos(), fn)
			return
		}
		// A func-typed package variable or similar: dynamic.
		n.Edges = append(n.Edges, &Edge{Pos: call.Pos(), Kind: FuncValue, Desc: types.ExprString(fun)})
	default:
		// Call of an arbitrary expression's value (slice element, call
		// result, …): dynamic, unresolved.
		n.Edges = append(n.Edges, &Edge{Pos: call.Pos(), Kind: FuncValue, Desc: types.ExprString(fun)})
	}
}

// staticEdge records a direct call to fn, resolved module-locally when the
// body is in the graph and marked external otherwise.
func (b *builder) staticEdge(n *Node, pos token.Pos, fn *types.Func) {
	e := &Edge{Pos: pos, Kind: Static, Desc: FuncName(fn)}
	if callee := b.g.byFunc[fn]; callee != nil {
		e.Callees = []*Node{callee}
	} else {
		e.External = fn
	}
	n.Edges = append(n.Edges, e)
}

// resolveInterfaces fans every pending interface call out to the concrete
// module-local methods that can be behind it: for every named type in the
// closure whose pointer type implements the interface, the implementation
// of the called method (possibly promoted from an embedded field) becomes a
// callee.
func (b *builder) resolveInterfaces(closure map[string]*analysis.Package, paths []string, root *analysis.Package) {
	if len(b.iface) == 0 {
		return
	}
	var named []*types.Named
	addScope := func(pkg *analysis.Package) {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok {
				named = append(named, nt)
			}
		}
	}
	for _, p := range paths {
		addScope(closure[p])
	}
	addScope(root)

	for _, pi := range b.iface {
		seen := map[*Node]bool{}
		for _, nt := range named {
			if types.IsInterface(nt) {
				continue
			}
			ptr := types.NewPointer(nt)
			if !types.Implements(ptr, pi.iface) && !types.Implements(nt, pi.iface) {
				continue
			}
			sel, _, _ := types.LookupFieldOrMethod(ptr, true, pi.pkg, pi.name)
			fn, ok := sel.(*types.Func)
			if !ok {
				// Unexported interface methods from another package cannot
				// be looked up with a foreign qualifier; try the type's own
				// package.
				sel, _, _ = types.LookupFieldOrMethod(ptr, true, nt.Obj().Pkg(), pi.name)
				fn, ok = sel.(*types.Func)
				if !ok {
					continue
				}
			}
			if callee := b.g.byFunc[fn]; callee != nil && !seen[callee] {
				seen[callee] = true
				pi.edge.Callees = append(pi.edge.Callees, callee)
			}
		}
		sort.Slice(pi.edge.Callees, func(i, j int) bool {
			return pi.edge.Callees[i].index < pi.edge.Callees[j].index
		})
	}
}
