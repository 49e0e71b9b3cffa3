// Package nanguard flags floating-point divisions and math.Log/math.Pow
// calls whose denominators/arguments are not provably guarded.
//
// A single NaN born from 0/0 or log(0) propagates through the fixed-point
// loop (§5) and convergence checks silently: math.Abs(NaN) < tol is false,
// so the loop spins to its iteration cap and emits garbage predictions.
// This pass demands that every float division have a denominator that is a
// nonzero constant, a value guarded on the path (via an enclosing
// `if d > 0` or an early `if d <= 0 { return }`), a max(x, c) with positive
// constant floor, or be replaced by a SafeDiv-style helper. Guards are
// tracked flow-sensitively per function with textual expression matching
// and are dropped when any identifier they mention is reassigned.
//
// Deliberate exceptions carry a //nanguard:ok comment on the same line.
package nanguard

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"pandia/internal/analysis"
)

// Analyzer is the nanguard pass.
var Analyzer = &analysis.Analyzer{
	Name: "nanguard",
	Doc: "flag float divisions and math.Log/math.Pow calls with unguarded " +
		"denominators/arguments; guard them or use core.SafeDiv",
	Run:      run,
	Restrict: analysis.RestrictTo("internal/core", "internal/simhw"),
}

const (
	levelNonZero  = 1 // value proven != 0
	levelPositive = 2 // value proven > 0
)

type guard struct {
	level  int
	idents map[string]bool // identifiers the guarded expression mentions
}

type guards map[string]guard

func (g guards) clone() guards {
	out := make(guards, len(g))
	for k, v := range g {
		out[k] = v
	}
	return out
}

func (g guards) merge(h guards) guards {
	out := g.clone()
	for k, v := range h {
		if cur, ok := out[k]; !ok || v.level > cur.level {
			out[k] = v
		}
	}
	return out
}

// invalidate drops every guard mentioning name.
func (g guards) invalidate(name string) {
	for k, v := range g {
		if v.idents[name] {
			delete(g, k)
		}
	}
}

type checker struct {
	pass     *analysis.Pass
	comments map[int]string
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		c := &checker{pass: pass, comments: analysis.LineComments(pass.Fset, f)}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.walkBlock(fd.Body.List, guards{})
			}
		}
	}
	return nil
}

func (c *checker) suppressed(pos token.Pos) bool {
	return strings.Contains(c.comments[c.pass.Fset.Position(pos).Line], "nanguard:ok")
}

// walkBlock processes statements in order, threading the guard set: guards
// learned from terminating if-statements apply to the rest of the block.
func (c *checker) walkBlock(stmts []ast.Stmt, g guards) guards {
	g = g.clone()
	for _, s := range stmts {
		g = c.walkStmt(s, g)
	}
	return g
}

func (c *checker) walkStmt(s ast.Stmt, g guards) guards {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			g = c.walkStmt(s.Init, g)
		}
		c.checkExpr(s.Cond, g)
		c.walkBlock(s.Body.List, g.merge(c.condGuards(s.Cond, false)))
		if s.Else != nil {
			c.walkStmt(s.Else, g.merge(c.condGuards(s.Cond, true)))
		}
		if blockTerminates(s.Body) {
			g = g.merge(c.condGuards(s.Cond, true))
		} else if s.Else != nil && stmtTerminates(s.Else) {
			g = g.merge(c.condGuards(s.Cond, false))
		}
	case *ast.BlockStmt:
		g = c.walkBlock(s.List, g)
	case *ast.ForStmt:
		if s.Init != nil {
			g = c.walkStmt(s.Init, g)
		}
		body := g
		if s.Cond != nil {
			c.checkExpr(s.Cond, g)
			body = g.merge(c.condGuards(s.Cond, false))
		}
		// Loop bodies may reassign; rewalk invalidations conservatively by
		// processing the body once and discarding its outgoing state.
		inner := c.walkBlock(s.Body.List, body)
		if s.Post != nil {
			c.walkStmt(s.Post, inner)
		}
		// Any identifier assigned in the loop body invalidates outer guards.
		c.invalidateAssigned(s.Body, g)
	case *ast.RangeStmt:
		c.checkExpr(s.X, g)
		c.walkBlock(s.Body.List, g)
		c.invalidateAssigned(s.Body, g)
	case *ast.SwitchStmt:
		if s.Init != nil {
			g = c.walkStmt(s.Init, g)
		}
		if s.Tag != nil {
			c.checkExpr(s.Tag, g)
		}
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CaseClause)
			cg := g
			if s.Tag == nil {
				for _, e := range cc.List {
					c.checkExpr(e, g)
					cg = cg.merge(c.condGuards(e, false))
				}
			} else {
				for _, e := range cc.List {
					c.checkExpr(e, g)
				}
			}
			c.walkBlock(cc.Body, cg)
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			c.walkBlock(clause.(*ast.CaseClause).Body, g)
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			c.walkBlock(clause.(*ast.CommClause).Body, g)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.checkExpr(e, g)
		}
		for i, lhs := range s.Lhs {
			c.checkExpr(lhs, g)
			if id, ok := lhs.(*ast.Ident); ok {
				g.invalidate(id.Name)
				// Learn guards from clamping assignments: x := max(y, c) with
				// positive constant c proves x > 0.
				if len(s.Rhs) == len(s.Lhs) {
					if lv := c.clampLevel(s.Rhs[i]); lv > 0 {
						c.addGuard(g, id, lv)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		c.checkExpr(s.X, g)
		if id, ok := s.X.(*ast.Ident); ok {
			g.invalidate(id.Name)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.checkExpr(v, g)
					}
					for _, name := range vs.Names {
						g.invalidate(name.Name)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.checkExpr(e, g)
		}
	case *ast.ExprStmt:
		c.checkExpr(s.X, g)
	case *ast.DeferStmt:
		c.checkExpr(s.Call, g)
	case *ast.GoStmt:
		c.checkExpr(s.Call, g)
	case *ast.SendStmt:
		c.checkExpr(s.Chan, g)
		c.checkExpr(s.Value, g)
	case *ast.LabeledStmt:
		g = c.walkStmt(s.Stmt, g)
	}
	return g
}

// invalidateAssigned drops outer guards for identifiers assigned anywhere in
// the subtree (loop bodies re-run, so a guard established before the loop
// may be stale after any iteration).
func (c *checker) invalidateAssigned(n ast.Node, g guards) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					g.invalidate(id.Name)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := n.X.(*ast.Ident); ok {
				g.invalidate(id.Name)
			}
		}
		return true
	})
}

// checkExpr reports unguarded float divisions and math.Log/math.Pow calls
// inside e. Function literals get a fresh guard set.
func (c *checker) checkExpr(e ast.Expr, g guards) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.walkBlock(n.Body.List, guards{})
			return false
		case *ast.BinaryExpr:
			if n.Op == token.QUO && c.isFloat(n.Y) && !c.safeDenominator(n.Y, g) && !c.suppressed(n.OpPos) {
				c.pass.Reportf(n.OpPos,
					"possibly zero denominator %s; guard it or use a SafeDiv helper",
					types.ExprString(n.Y))
			}
		case *ast.CallExpr:
			c.checkMathCall(n, g)
		}
		return true
	})
}

func (c *checker) checkMathCall(call *ast.CallExpr, g guards) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
		return
	}
	switch fn.Name() {
	case "Log", "Log2", "Log10":
		x := call.Args[0]
		if !c.provenPositive(x, g) && !c.suppressed(call.Pos()) {
			c.pass.Reportf(call.Pos(),
				"math.%s argument %s is not provably positive; guard it",
				fn.Name(), types.ExprString(x))
		}
	case "Pow":
		x, y := call.Args[0], call.Args[1]
		if c.nonNegativeIntegerConst(y) {
			return // x^k with integer k >= 0 is defined for every base
		}
		if !c.provenPositive(x, g) && !c.suppressed(call.Pos()) {
			c.pass.Reportf(call.Pos(),
				"math.Pow base %s is not provably positive with non-integer exponent %s",
				types.ExprString(x), types.ExprString(y))
		}
	}
}

func (c *checker) isFloat(e ast.Expr) bool {
	t := c.pass.TypesInfo.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func (c *checker) safeDenominator(den ast.Expr, g guards) bool {
	return c.provenLevel(den, g, levelNonZero)
}

func (c *checker) provenPositive(e ast.Expr, g guards) bool {
	return c.provenLevel(e, g, levelPositive)
}

// provenLevel checks e (looking through parens and value-preserving type
// conversions such as float64(n)) against constants, path guards, and
// max() floors.
func (c *checker) provenLevel(e ast.Expr, g guards, want int) bool {
	for {
		e = unparen(e)
		if v := c.constValue(e); v != nil {
			if want == levelPositive {
				return constant.Sign(*v) > 0
			}
			return constant.Sign(*v) != 0
		}
		if gd, ok := g[types.ExprString(e)]; ok && gd.level >= want {
			return true
		}
		if c.clampLevel(e) >= want {
			return true
		}
		// Unwrap one conversion layer: float64(x) is nonzero/positive iff
		// x is.
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return false
		}
		if tv, ok := c.pass.TypesInfo.Types[call.Fun]; !ok || !tv.IsType() {
			return false
		}
		e = call.Args[0]
	}
}

// clampLevel recognises expressions with a built-in positive floor:
// max(x, c) / math.Max(x, c) with a positive constant argument.
func (c *checker) clampLevel(e ast.Expr) int {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return 0
	}
	name := ""
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if name != "max" && name != "Max" {
		return 0
	}
	for _, arg := range call.Args {
		if v := c.constValue(arg); v != nil && constant.Sign(*v) > 0 {
			return levelPositive
		}
	}
	return 0
}

// nonNegativeIntegerConst reports whether e is a constant representable as
// an integer >= 0 (math.Pow is defined for every base with such exponents).
func (c *checker) nonNegativeIntegerConst(e ast.Expr) bool {
	v := c.constValue(e)
	if v == nil || constant.Sign(*v) < 0 {
		return false
	}
	_, ok := constant.Int64Val(constant.ToInt(*v))
	return ok
}

func (c *checker) constValue(e ast.Expr) *constant.Value {
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return nil
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return &tv.Value
	}
	// String/bool/complex comparisons carry no sign information.
	return nil
}

// condGuards extracts the guards implied by cond being true (negated=false)
// or false (negated=true).
func (c *checker) condGuards(cond ast.Expr, negated bool) guards {
	out := guards{}
	c.collectCondGuards(unparen(cond), negated, out)
	return out
}

func (c *checker) collectCondGuards(cond ast.Expr, negated bool, out guards) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		if ue, ok := cond.(*ast.UnaryExpr); ok && ue.Op == token.NOT {
			c.collectCondGuards(unparen(ue.X), !negated, out)
		}
		return
	}
	switch be.Op {
	case token.LAND:
		if !negated { // a && b true => both true
			c.collectCondGuards(unparen(be.X), false, out)
			c.collectCondGuards(unparen(be.Y), false, out)
		}
		return
	case token.LOR:
		if negated { // !(a || b) => both false
			c.collectCondGuards(unparen(be.X), true, out)
			c.collectCondGuards(unparen(be.Y), true, out)
		}
		return
	}
	op := be.Op
	x, y := unparen(be.X), unparen(be.Y)
	// Normalise to <expr> <op> <const>.
	cv := c.constValue(y)
	if cv == nil {
		if cv = c.constValue(x); cv == nil {
			return
		}
		x = y
		op = flip(op)
	}
	if negated {
		op = negate(op)
	}
	sign := constant.Sign(*cv)
	var level int
	switch op {
	case token.GTR: // x > c
		if sign >= 0 {
			level = levelPositive
		}
	case token.GEQ: // x >= c
		if sign > 0 {
			level = levelPositive
		}
	case token.NEQ: // x != c
		if sign == 0 {
			level = levelNonZero
		}
	case token.LSS: // x < c with c <= 0 proves x != 0
		if sign <= 0 {
			level = levelNonZero
		}
	case token.LEQ: // x <= c with c < 0 proves x != 0
		if sign < 0 {
			level = levelNonZero
		}
	}
	if level > 0 {
		if id, ok := x.(*ast.Ident); ok {
			c.addGuard(out, id, level)
		} else {
			c.addGuardExpr(out, x, level)
		}
	}
}

func (c *checker) addGuard(g guards, id *ast.Ident, level int) {
	g[id.Name] = guard{level: level, idents: map[string]bool{id.Name: true}}
}

func (c *checker) addGuardExpr(g guards, e ast.Expr, level int) {
	idents := map[string]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			idents[id.Name] = true
		}
		return true
	})
	g[types.ExprString(e)] = guard{level: level, idents: idents}
}

func flip(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op
}

func negate(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	}
	return token.ILLEGAL
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func blockTerminates(b *ast.BlockStmt) bool {
	return b != nil && len(b.List) > 0 && stmtTerminates(b.List[len(b.List)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.BREAK || s.Tok == token.CONTINUE || s.Tok == token.GOTO
	case *ast.BlockStmt:
		return blockTerminates(s)
	case *ast.IfStmt:
		return blockTerminates(s.Body) && s.Else != nil && stmtTerminates(s.Else)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
