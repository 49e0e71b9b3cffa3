package unitflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pandia/internal/analysis"
)

// seeds is the table of declared units: everything unitflow trusts as a
// source of dimension information before flow propagation starts.
//
// Declared sources, in the order the paper's discipline suggests:
//
//  1. //pandia:unit annotations on struct fields, package vars, named types,
//     function results ("//pandia:unit seconds") and parameters
//     ("//pandia:unit t1 seconds", "//pandia:unit return seconds");
//  2. built-in knowledge of standard types (time.Duration is seconds);
//  3. the identifier-suffix families (Bytes, Secs/Seconds, Instrs,
//     Hz/GHz/MHz, <dim>PerSec), demoted to a seeding strategy: they apply
//     only where no annotation says otherwise.
type seeds struct {
	fields  map[*types.Var]Unit
	vars    map[*types.Var]Unit
	params  map[*types.Var]Unit
	results map[*types.Func]Unit
	types   map[*types.TypeName]Unit
	// funcDecls indexes every function declaration with a body across the
	// package and its module-local import closure, for on-demand summaries.
	funcDecls map[*types.Func]funcSource
	// badAnnots records unparseable annotations in the package under
	// analysis (never in dependencies) for reporting.
	badAnnots []badAnnot
}

type badAnnot struct {
	pos token.Pos
	msg string
}

// funcSource ties a function declaration to the type info of its package,
// so dependency functions can be summarised in their own context.
type funcSource struct {
	decl *ast.FuncDecl
	info *types.Info
}

const directive = "//pandia:unit"

func newSeeds() *seeds {
	return &seeds{
		fields:    make(map[*types.Var]Unit),
		vars:      make(map[*types.Var]Unit),
		params:    make(map[*types.Var]Unit),
		results:   make(map[*types.Func]Unit),
		types:     make(map[*types.TypeName]Unit),
		funcDecls: make(map[*types.Func]funcSource),
	}
}

// collect gathers seeds from the package under analysis and its module-local
// import closure.
func collect(pass *analysis.Pass) *seeds {
	s := newSeeds()
	s.collectPackage(pass.Files, pass.TypesInfo, true)
	seen := map[string]bool{}
	var walk func(deps map[string]*analysis.Package)
	walk = func(deps map[string]*analysis.Package) {
		for path, dep := range deps {
			if seen[path] || dep == nil {
				continue
			}
			seen[path] = true
			s.collectPackage(dep.Files, dep.Info, false)
			walk(dep.Imports)
		}
	}
	walk(pass.Deps)
	return s
}

func (s *seeds) collectPackage(files []*ast.File, info *types.Info, reportBad bool) {
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				s.genDecl(d, info, reportBad)
			case *ast.FuncDecl:
				s.funcDecl(d, info, reportBad)
			}
		}
	}
}

// annotations extracts the //pandia:unit lines of a comment group.
func annotations(groups ...*ast.CommentGroup) []string {
	var out []string
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if rest, ok := strings.CutPrefix(c.Text, directive); ok {
				if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
					out = append(out, strings.TrimSpace(rest))
				}
			}
		}
	}
	return out
}

func (s *seeds) bad(reportBad bool, pos token.Pos, msg string) {
	if reportBad {
		s.badAnnots = append(s.badAnnots, badAnnot{pos, msg})
	}
}

func (s *seeds) genDecl(d *ast.GenDecl, info *types.Info, reportBad bool) {
	switch d.Tok {
	case token.TYPE:
		for _, spec := range d.Specs {
			ts := spec.(*ast.TypeSpec)
			for _, a := range annotations(d.Doc, ts.Doc, ts.Comment) {
				u, err := ParseUnit(a)
				if err != nil {
					s.bad(reportBad, ts.Pos(), err.Error())
					continue
				}
				if tn, ok := info.Defs[ts.Name].(*types.TypeName); ok {
					s.types[tn] = u
				}
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				s.structFields(st, info, reportBad)
			}
		}
	case token.VAR, token.CONST:
		for _, spec := range d.Specs {
			vs := spec.(*ast.ValueSpec)
			for _, a := range annotations(d.Doc, vs.Doc, vs.Comment) {
				u, err := ParseUnit(a)
				if err != nil {
					s.bad(reportBad, vs.Pos(), err.Error())
					continue
				}
				for _, name := range vs.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						s.vars[v] = u
					}
				}
			}
		}
	}
}

func (s *seeds) structFields(st *ast.StructType, info *types.Info, reportBad bool) {
	for _, field := range st.Fields.List {
		for _, a := range annotations(field.Doc, field.Comment) {
			u, err := ParseUnit(a)
			if err != nil {
				s.bad(reportBad, field.Pos(), err.Error())
				continue
			}
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					s.fields[v] = u
				}
			}
		}
	}
}

// funcDecl reads function annotations. A bare "//pandia:unit <u>" names the
// result unit; "//pandia:unit <param> <u>" names one parameter's unit;
// "//pandia:unit return <u>" is the explicit result form.
func (s *seeds) funcDecl(d *ast.FuncDecl, info *types.Info, reportBad bool) {
	fn, _ := info.Defs[d.Name].(*types.Func)
	if fn != nil && d.Body != nil {
		s.funcDecls[fn] = funcSource{decl: d, info: info}
	}
	for _, a := range annotations(d.Doc) {
		name, expr := "", a
		if i := strings.IndexAny(a, " \t"); i >= 0 {
			name, expr = a[:i], strings.TrimSpace(a[i+1:])
		}
		if name == "" || name == "return" {
			u, err := ParseUnit(expr)
			if err != nil {
				s.bad(reportBad, d.Pos(), err.Error())
				continue
			}
			if fn != nil {
				s.results[fn] = u
			}
			continue
		}
		u, err := ParseUnit(expr)
		if err != nil {
			// Maybe the whole line was a unit expression with spaces; retry.
			if u2, err2 := ParseUnit(a); err2 == nil {
				if fn != nil {
					s.results[fn] = u2
				}
				continue
			}
			s.bad(reportBad, d.Pos(), err.Error())
			continue
		}
		if v := paramByName(d.Type, info, name); v != nil {
			s.params[v] = u
		} else {
			s.bad(reportBad, d.Pos(), "no parameter named "+name)
		}
	}
}

func paramByName(ft *ast.FuncType, info *types.Info, name string) *types.Var {
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, id := range field.Names {
			if id.Name == name {
				v, _ := info.Defs[id].(*types.Var)
				return v
			}
		}
	}
	return nil
}

// typeUnit resolves the declared unit of a type: an annotated named type, or
// the built-in knowledge that time.Duration is a duration in (scaled)
// seconds.
func (s *seeds) typeUnit(t types.Type) Unit {
	for {
		named, ok := t.(*types.Named)
		if !ok {
			return Unknown
		}
		tn := named.Obj()
		if u, ok := s.types[tn]; ok {
			return u
		}
		if tn.Pkg() != nil && tn.Pkg().Path() == "time" && tn.Name() == "Duration" {
			return Seconds
		}
		t = named.Underlying()
		if _, ok := t.(*types.Named); !ok {
			return Unknown
		}
	}
}

// suffixes is the identifier-suffix table: each family's unit and the
// family name the syntactic check compares when flow inference leaves a
// pair undecided. Every suffix starts with a capital, so a match always
// begins a fresh camel-case word ("Emphasis" never reads as a Hz value);
// PerSec comes first so it wins over Secs.
var suffixes = []struct {
	suffix string
	unit   Unit
	family string
}{
	{"PerSec", Unknown, "rate(PerSec)"}, // unit: the numerator's, per second
	{"Seconds", Seconds, "seconds"},
	{"Secs", Seconds, "seconds"},
	{"Bytes", Bytes, "bytes"},
	{"Instrs", Instructions, "instructions"},
	{"Hz", Hertz, "frequency(Hz)"}, // also GHz, MHz: scale does not matter
}

// suffixMatch returns the first table entry name ends with and the name's
// head before the suffix.
func suffixMatch(name string) (head string, unit Unit, family string) {
	for _, s := range suffixes {
		if head, ok := strings.CutSuffix(name, s.suffix); ok {
			return head, s.unit, s.family
		}
	}
	return "", Unknown, ""
}

// suffixUnit derives a unit from the identifier's suffix when nothing is
// declared. A PerSec suffix resolves its numerator recursively
// (BytesPerSec, InstrsPerSec); a bare PerSec leaves the unit unknown.
func suffixUnit(name string) Unit {
	head, u, _ := suffixMatch(name)
	if u.Known() || head == "" {
		return u
	}
	if n := suffixUnit(head); n.Known() {
		return n.Div(Seconds)
	}
	return Unknown
}

// suffixFamily names the suffix family of an identifier, or "".
func suffixFamily(name string) string {
	_, _, family := suffixMatch(name)
	return family
}
