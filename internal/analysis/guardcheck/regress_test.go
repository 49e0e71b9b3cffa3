package guardcheck_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pandia/internal/analysis"
	"pandia/internal/analysis/guardcheck"
)

// concurrencyPackages is the surface guardcheck is restricted to.
var concurrencyPackages = []string{
	"pandia/internal/scheduler",
	"pandia/internal/obs",
	"pandia/internal/eval",
	"pandia/internal/faults",
	"pandia/internal/scenario",
	"pandia/internal/core",
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// newLoader builds one loader for the module rooted at moduleDir. Sharing
// it across packages shares type-checked dependencies and the lock engine's
// per-package cache, exactly as the pandia-vet driver does.
func newLoader(t *testing.T, moduleDir string) *analysis.Loader {
	t.Helper()
	l, err := analysis.NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// runOn loads one package through the shared loader and runs guardcheck.
func runOn(t *testing.T, l *analysis.Loader, path string) ([]analysis.Diagnostic, *analysis.Package) {
	t.Helper()
	pkg, err := l.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(guardcheck.Analyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	return diags, pkg
}

// TestRealGuardedFieldsClean pins the annotated production structs as
// negative cases: every access to a //pandia:guardedby field in the
// scheduler, obs, eval, faults, and scenario packages is provably under its
// lock, so guardcheck must stay silent.
func TestRealGuardedFieldsClean(t *testing.T) {
	l := newLoader(t, moduleRoot(t))
	for _, path := range concurrencyPackages {
		diags, pkg := runOn(t, l, path)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			t.Errorf("unexpected diagnostic in %s: %s:%d: %s",
				path, filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
}

// copyModule copies the module's go.mod and every non-test Go file under
// internal/ (skipping analyzer fixture trees) into dst, preserving layout.
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dst, "go.mod"), []byte("module pandia\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(root, "internal")
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if info.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// seededEscape reintroduces the exact bug guardcheck caught in the real
// scheduler (and this PR fixed): a placement strategy implemented as a
// method value stored in a strategy table. The escape pins the method's
// entry lock set to ∅ — the analysis cannot assume callers hold s.mu — so
// its bare read of the guarded occupancy map must be reported. The fix in
// the real code snapshots the occupancy under the lock and passes it to a
// pure function; this fixture keeps the pre-fix shape from coming back.
const seededEscape = `package scheduler

import (
	"pandia/internal/placement"
	"pandia/internal/topology"
)

var regressionStrategies = []struct {
	name string
	fn   func([]topology.Context, int, topology.Machine) placement.Placement
}{}

func (s *Scheduler) regressionRegister() {
	regressionStrategies = append(regressionStrategies, struct {
		name string
		fn   func([]topology.Context, int, topology.Machine) placement.Placement
	}{"quiet-socket", s.regressionQuietSocket})
}

func (s *Scheduler) regressionQuietSocket(free []topology.Context, n int, m topology.Machine) placement.Placement {
	busy := make([]int, m.Sockets)
	for i, owner := range s.occupied {
		if owner != "" {
			busy[m.ContextAt(i).Socket]++
		}
	}
	if len(free) < n || len(busy) == 0 {
		return nil
	}
	return nil
}
`

// TestSeededMethodValueRegression injects the pre-fix strategy shape and
// requires guardcheck to flag the unguarded read of the occupancy map.
func TestSeededMethodValueRegression(t *testing.T) {
	root := moduleRoot(t)
	tmp := t.TempDir()
	copyModule(t, root, tmp)
	inj := filepath.Join(tmp, "internal", "scheduler", "zz_regression.go")
	if err := os.WriteFile(inj, []byte(seededEscape), 0o644); err != nil {
		t.Fatal(err)
	}

	diags, pkg := runOn(t, newLoader(t, tmp), "pandia/internal/scheduler")
	if len(diags) == 0 {
		t.Fatal("seeded method-value escape produced no guardcheck diagnostics")
	}
	found := false
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		t.Logf("diagnostic: %s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		if strings.Contains(d.Message, "guarded field scheduler.Scheduler.occupied is read in (*scheduler.Scheduler).regressionQuietSocket without holding (scheduler.Scheduler).mu") {
			found = true
			if filepath.Base(pos.Filename) != "zz_regression.go" {
				t.Errorf("diagnostic anchored at %s, want zz_regression.go", pos.Filename)
			}
		}
	}
	if !found {
		t.Error("no diagnostic names the bare read of Scheduler.occupied in the escaped method value")
	}
}
