package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pandia/internal/analysis"
	"pandia/internal/analysis/deadlockcheck"
	"pandia/internal/analysis/detflow"
	"pandia/internal/analysis/unitflow"
)

// seededBugs are one-line bugs injected into a copy of the module. Each
// pass must report its bug on the seeded line — the line carrying the
// "// seeded" marker — of the real production package.
var seededBugs = []struct {
	analyzer *analysis.Analyzer
	pkg      string // import path of the seeded package
	file     string // module-relative file receiving the seed
	old, new string // replace old by new once; old == "" writes new as the whole file
	want     string // substring of the expected message
}{
	{
		analyzer: deadlockcheck.Analyzer,
		pkg:      "pandia/internal/scheduler",
		file:     "internal/scheduler/introspect.go",
		old:      "\ts.mu.Lock()\n",
		new:      "\ts.mu.Lock(); s.mu.Lock() // seeded\n",
		want:     "(scheduler.Scheduler).mu is acquired again",
	},
	{
		analyzer: detflow.Analyzer,
		pkg:      "pandia/internal/core",
		file:     "internal/core/zz_seeded.go",
		new: "package core\n\nimport \"time\"\n\n" +
			"func seededStamp() int64 { return time.Now().UnixNano() } // seeded\n",
		want: "time.Now breaks run-to-run determinism",
	},
	{
		analyzer: unitflow.Analyzer,
		pkg:      "pandia/internal/counters",
		file:     "internal/counters/zz_seeded.go",
		new: "package counters\n\n" +
			"func seededMix(s Sample, linkPerSec float64) float64 {\n" +
			"\treturn s.DRAMBytes - linkPerSec // seeded\n}\n",
		want: "unit mismatch: s.DRAMBytes (bytes) - linkPerSec (rate(PerSec))",
	},
}

// TestSeededRegressions injects each bug into a fresh copy of the module
// and requires the pass to report it at the exact line.
func TestSeededRegressions(t *testing.T) {
	root := moduleRoot(t)
	for _, bug := range seededBugs {
		t.Run(bug.analyzer.Name, func(t *testing.T) {
			tmp := t.TempDir()
			copyInternal(t, root, tmp)
			path := filepath.Join(tmp, bug.file)
			src := bug.new
			if bug.old != "" {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(string(data), bug.old) {
					t.Fatalf("%s no longer contains %q", bug.file, bug.old)
				}
				src = strings.Replace(string(data), bug.old, bug.new, 1)
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			wantLine := 0
			for i, line := range strings.Split(src, "\n") {
				if strings.HasSuffix(line, "// seeded") {
					wantLine = i + 1
				}
			}

			l, err := analysis.NewLoader(tmp)
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := l.Load(bug.pkg)
			if err != nil {
				t.Fatal(err)
			}
			diags, err := analysis.Run(bug.analyzer, pkg)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				t.Logf("diagnostic: %s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
				if filepath.Base(pos.Filename) == filepath.Base(bug.file) && pos.Line == wantLine &&
					strings.Contains(d.Message, bug.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("no diagnostic containing %q at %s:%d", bug.want, bug.file, wantLine)
			}
		})
	}
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

// copyInternal copies go.mod's module line and every non-test Go file
// under internal/ (skipping analyzer fixture trees) into dst.
func copyInternal(t *testing.T, root, dst string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dst, "go.mod"), []byte("module pandia\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := filepath.Walk(filepath.Join(root, "internal"), func(path string, info os.FileInfo, err error) error {
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
