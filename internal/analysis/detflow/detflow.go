// Package detflow enforces determinism in the predictor's core paths.
//
// The fixed-point loop (§5) must produce bit-identical results run-to-run:
// golden tests, the ablation tables, and cross-machine portability studies
// all diff floating-point outputs exactly. Three Go constructs silently
// break that: map range iteration (random order — and float accumulation is
// not associative, so even "order-independent" sums drift), time.Now, and
// the process-seeded global math/rand source. Seeded generators built with
// rand.New(rand.NewSource(seed)) are fine, as is the key-collection prelude
// of a sorted iteration.
//
// detflow guards the restricted packages (internal/core, internal/simhw,
// internal/eval, internal/faults, internal/obs) in two ways. A source
// inside the package is reported at its own line — in particular,
// observability timestamps must come from an injected obs.Clock, never a
// bare time.Now, so recorded traces stay reproducible. A source hidden in an
// unrestricted helper (kernels, placement, a utility package) is found by
// tainting the module-local call graph (internal/analysis/callgraph) and
// reported at the call site where the flow leaves the package, with the
// full call chain and the true source location in the message:
//
//	nondeterminism reaches the core: time.Now (at kernels/cpu.go:42);
//	call path: kernels.stamp ← core.refresh; inject the clock
//
// Callees in other restricted packages are not traversed: they are vetted
// when their own package is analysed. Test files are exempt. A deliberate,
// order-independent escape carries //detflow:ignore with a justification
// on the source line or the calling line (or the line above it).
package detflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pandia/internal/analysis"
	"pandia/internal/analysis/callgraph"
)

// Analyzer is the detflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: "forbid time.Now, global math/rand and map iteration in the prediction core, " +
		"directly or through the module-local call graph",
	Run:      run,
	Restrict: restricted,
}

// restricted is the prediction core: the packages whose results must be
// bit-identical run to run.
var restricted = analysis.RestrictTo("internal/core", "internal/simhw", "internal/eval",
	"internal/faults", "internal/obs")

// seededConstructors are the math/rand functions that build explicitly
// seeded generators and are therefore allowed.
var seededConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// source is one nondeterminism origin.
type source struct {
	pos    token.Pos
	what   string // names it in a flow: "time.Now", "global math/rand call rand.Intn", …
	why    string // states it at its own line: "time.Now breaks run-to-run determinism", …
	advice string // the fix
}

type checker struct {
	pass     *analysis.Pass
	g        *callgraph.Graph
	sources  map[*callgraph.Node][]source
	tainted  map[*callgraph.Node]bool
	comments map[*ast.File]map[int]string
	reported map[string]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		g:        callgraph.Build(pass),
		sources:  map[*callgraph.Node][]source{},
		comments: map[*ast.File]map[int]string{},
		reported: map[string]bool{},
	}
	for _, n := range c.g.Nodes {
		if c.collectable(n) {
			c.sources[n] = c.collect(n)
		}
	}
	c.tainted = callgraph.Solve(c.g, false, func(n *callgraph.Node, get func(*callgraph.Node) bool) bool {
		if len(c.sources[n]) > 0 {
			return true
		}
		for _, e := range n.Edges {
			for _, callee := range e.Callees {
				if c.traversable(callee) && get(callee) {
					return true
				}
			}
		}
		return false
	})
	for _, n := range c.g.Nodes {
		if n.Pkg.Types != pass.Pkg || pass.IsTestFile(n.Pos()) {
			continue
		}
		for _, s := range c.collect(n) {
			c.reportLocal(s)
		}
		if n.Decl != nil {
			c.reportEntry(n)
		}
	}
	c.reportInitializers()
	return nil
}

// reportInitializers reports sources called directly in package-level var
// initialisers, which run outside every call-graph node (literals there
// are nodes of their own).
func (c *checker) reportInitializers() {
	for _, f := range c.pass.Files {
		if c.pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			ast.Inspect(d, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.FuncDecl, *ast.FuncLit:
					return false
				case *ast.CallExpr:
					fun := x.Fun
					if sel, ok := fun.(*ast.SelectorExpr); ok {
						fun = sel.Sel
					}
					id, ok := fun.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := c.pass.TypesInfo.Uses[id].(*types.Func)
					if !ok {
						return true
					}
					if s, ok := nondetCall(fn); ok {
						s.pos = x.Pos()
						c.reportLocal(s)
					}
				}
				return true
			})
		}
	}
}

// reportLocal reports a source inside the package at its own line.
func (c *checker) reportLocal(s source) {
	if !c.ignored(s.pos) {
		c.pass.Reportf(s.pos, "%s; %s", s.why, s.advice)
	}
}

// collectable limits flow sources to unrestricted, non-test functions
// outside the package under analysis: sources inside it are reported at
// their own line, and other restricted packages are vetted on their own.
func (c *checker) collectable(n *callgraph.Node) bool {
	if n.Pkg.Types == c.pass.Pkg || c.pass.IsTestFile(n.Pos()) {
		return false
	}
	return !restricted(n.Pkg.Path)
}

// traversable reports whether the taint walk may enter callee: unrestricted
// dependency functions, plus function literals of the package under
// analysis (their enclosing declaration is the entry that owns them).
func (c *checker) traversable(callee *callgraph.Node) bool {
	if callee.Pkg.Types == c.pass.Pkg {
		return callee.Lit != nil
	}
	return !restricted(callee.Pkg.Path)
}

// collect scans one function for nondeterminism sources: calls
// to time.Now, calls to unseeded package-level math/rand functions, and map
// range iteration (minus the key-collection idiom).
func (c *checker) collect(n *callgraph.Node) []source {
	var out []source
	for _, e := range n.Edges {
		if e.External == nil {
			continue
		}
		if s, ok := nondetCall(e.External); ok {
			s.pos = e.Pos
			out = append(out, s)
		}
	}
	body := n.Body()
	if body == nil {
		return out
	}
	ast.Inspect(body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false // a literal is its own node
		}
		rs, ok := x.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := n.Pkg.Info.Types[rs.X].Type
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); isMap && !isKeyCollection(rs) {
			what := "nondeterministic iteration over map " + types.ExprString(rs.X)
			out = append(out, source{pos: rs.Pos(), what: what, why: what, advice: "iterate sorted keys instead"})
		}
		return true
	})
	return out
}

// nondetCall classifies an external callee as a nondeterminism source.
func nondetCall(fn *types.Func) (source, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return source{}, false
	}
	switch pkg.Path() {
	case "time":
		if fn.Name() == "Now" {
			return source{what: "time.Now", why: "time.Now breaks run-to-run determinism",
				advice: "inject the clock"}, true
		}
	case "math/rand", "math/rand/v2":
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil && !seededConstructors[fn.Name()] {
			return source{
				what:   "global math/rand call " + pkg.Name() + "." + fn.Name(),
				why:    "global math/rand source is process-seeded",
				advice: "use rand.New(rand.NewSource(seed))",
			}, true
		}
	}
	return source{}, false
}

// isKeyCollection recognises the canonical deterministic-iteration prelude —
// `for k := range m { keys = append(keys, k) }` — which is order-independent
// by construction (the keys are sorted before use). The loop must bind only
// the key and its body must be a single append of that key.
func isKeyCollection(rs *ast.RangeStmt) bool {
	if rs.Value != nil || rs.Key == nil || len(rs.Body.List) != 1 {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}

// ignored reports whether an in-package position's line carries a
// //detflow:ignore directive.
func (c *checker) ignored(pos token.Pos) bool {
	p := c.pass.Fset.Position(pos)
	for _, f := range c.pass.Files {
		fp := c.pass.Fset.Position(f.Pos())
		if fp.Filename != p.Filename {
			continue
		}
		m, ok := c.comments[f]
		if !ok {
			m = analysis.LineComments(c.pass.Fset, f)
			c.comments[f] = m
		}
		return strings.Contains(m[p.Line], "detflow:ignore")
	}
	return false
}

// reportEntry walks the unrestricted closure reachable from one entry and
// reports every nondeterminism source with the call chain back to the
// entry, anchored at the call site where the flow leaves the package.
func (c *checker) reportEntry(entry *callgraph.Node) {
	seen := map[*callgraph.Node]bool{}
	chain := []*callgraph.Node{}

	var visit func(n *callgraph.Node, anchor token.Pos)
	visit = func(n *callgraph.Node, anchor token.Pos) {
		if seen[n] {
			return
		}
		seen[n] = true
		chain = append(chain, n)
		for _, s := range c.sources[n] {
			c.report(entry, anchor, chain, s)
		}
		for _, e := range n.Edges {
			inPass := n.Pkg.Types == c.pass.Pkg
			if inPass && c.ignored(e.Pos) {
				continue
			}
			next := anchor
			if inPass {
				next = e.Pos
			}
			for _, callee := range e.Callees {
				if c.traversable(callee) && c.tainted[callee] {
					visit(callee, next)
				}
			}
		}
		chain = chain[:len(chain)-1]
	}
	visit(entry, entry.Decl.Pos())
}

// report emits one finding at the in-package anchor.
func (c *checker) report(entry *callgraph.Node, anchor token.Pos, chain []*callgraph.Node, s source) {
	p := c.pass.Fset.Position(s.pos)
	parts := make([]string, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		parts = append(parts, chain[i].Name())
	}
	msg := "nondeterminism reaches the core: " + s.what +
		" (at " + shortFile(p.Filename) + ":" + itoa(p.Line) + ")" +
		"; call path: " + strings.Join(parts, " ← ") + "; " + s.advice
	key := entry.Name() + "\x00" + p.String() + "\x00" + s.what
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Reportf(anchor, "%s", msg)
}

// shortFile trims a filename to its final two path elements.
func shortFile(name string) string {
	name = strings.ReplaceAll(name, "\\", "/")
	parts := strings.Split(name, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
