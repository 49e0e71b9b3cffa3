// Package analysis is a self-contained static-analysis framework modelled
// on golang.org/x/tools/go/analysis, built only on the standard library
// (go/parser, go/types) so the repository carries no external dependencies.
//
// It provides the three pieces the pandia-vet suite needs:
//
//   - Analyzer / Pass / Diagnostic: the familiar x/tools API surface, so the
//     checkers under internal/analysis/* read exactly like upstream passes
//     and could be ported to the real framework by changing one import.
//   - Loader: parses and type-checks packages of this module (and GOPATH-style
//     fixture trees for tests), resolving standard-library imports through
//     go/importer's source importer.
//   - LineComments / IsTestFile helpers shared by the individual passes.
//
// The pandia predictor's correctness rests on properties the Go compiler
// cannot see — consistent counter units (§3 of the paper), a deterministic
// fixed-point loop (§5), read-only sharing of placement and topology values —
// and the passes built on this package check those properties mechanically.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics, e.g. "unitflow".
	Name string
	// Doc is a one-paragraph description shown by `pandia-vet help`.
	Doc string
	// Run applies the pass to one package.
	Run func(*Pass) error
	// Restrict, when non-nil, limits which packages the multichecker driver
	// applies the pass to (matched against the package import path). The
	// analysistest harness ignores it so fixtures always run.
	Restrict func(pkgPath string) bool
}

// Diagnostic is one finding of a pass.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries the per-package inputs of one analyzer run, mirroring
// x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
	// Deps holds the module-local dependency packages (with syntax), keyed
	// by import path, so passes can read annotations declared in dependency
	// sources. May be nil; standard-library imports never appear.
	Deps map[string]*Package
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// LineComments maps every source line that carries a comment to the comment
// text, so passes can honour line-level suppression directives such as
// //nanguard:ok. Both the comment's own line and, for full-line comments,
// the following line are mapped, matching how directives are written either
// trailing the statement or on the line above it.
func LineComments(fset *token.FileSet, f *ast.File) map[int]string {
	out := make(map[int]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			pos := fset.Position(c.Pos())
			out[pos.Line] += c.Text
			out[pos.Line+1] += c.Text
		}
	}
	return out
}

// SortDiagnostics orders findings by position for stable output.
func SortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return ds[i].Message < ds[j].Message
	})
}

// RestrictTo builds a Restrict predicate matching any package whose import
// path contains one of the given fragments.
func RestrictTo(fragments ...string) func(string) bool {
	return func(pkgPath string) bool {
		for _, f := range fragments {
			if strings.Contains(pkgPath, f) {
				return true
			}
		}
		return false
	}
}

// Run applies a to pkg and returns the sorted findings.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var ds []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d Diagnostic) { ds = append(ds, d) },
		Deps:      pkg.Imports,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	SortDiagnostics(pkg.Fset, ds)
	return ds, nil
}
