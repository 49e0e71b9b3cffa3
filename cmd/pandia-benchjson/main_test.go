package main

import (
	"strings"
	"testing"
)

func TestSplitProcSuffix(t *testing.T) {
	for _, tc := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkPredictOnce-2", "BenchmarkPredictOnce", 2},
		{"BenchmarkPredictOnce-16", "BenchmarkPredictOnce", 16},
		{"BenchmarkPredictOnce", "BenchmarkPredictOnce", 1},
		{"BenchmarkSweep/cap-400-8", "BenchmarkSweep/cap-400", 8},
		{"BenchmarkSweep/cold-x", "BenchmarkSweep/cold-x", 1},
	} {
		name, procs := splitProcSuffix(tc.in)
		if name != tc.name || procs != tc.procs {
			t.Errorf("splitProcSuffix(%q) = %q, %d; want %q, %d", tc.in, name, procs, tc.name, tc.procs)
		}
	}
}

func TestParseStampsGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input string
		procs int
	}{
		{"suffix", "BenchmarkA-4 10 100 ns/op\nBenchmarkB-4 10 200 ns/op\n", 4},
		{"no suffix", "BenchmarkA 10 100 ns/op\n", 1},
		{"mixed -cpu", "BenchmarkA 10 100 ns/op\nBenchmarkA-2 10 90 ns/op\n", 0},
	} {
		run, err := parse(strings.NewReader("goos: linux\ncpu: test\n" + tc.input + "PASS\n"))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if run.GOMAXPROCS != tc.procs {
			t.Errorf("%s: GOMAXPROCS = %d, want %d", tc.name, run.GOMAXPROCS, tc.procs)
		}
		if run.Benchmarks[0].Name != "BenchmarkA" {
			t.Errorf("%s: name %q kept its suffix", tc.name, run.Benchmarks[0].Name)
		}
	}
}

func TestStampNote(t *testing.T) {
	cur := &Run{Label: "gate", GOMAXPROCS: 2, NumCPU: 2, GoVersion: "go1.24.0"}
	for _, tc := range []struct {
		name string
		ref  Run
		want string // substring of the note; "" means no note
	}{
		{"same", Run{Label: "current", GOMAXPROCS: 2, NumCPU: 2, GoVersion: "go1.24.0"}, ""},
		{"missing", Run{Label: "current"}, `reference run "current" is unstamped, this run is GOMAXPROCS=2 NumCPU=2 go1.24.0`},
		{"procs", Run{Label: "current", GOMAXPROCS: 1, NumCPU: 2, GoVersion: "go1.24.0"}, "is GOMAXPROCS=1 NumCPU=2 go1.24.0, this run is GOMAXPROCS=2"},
		{"version", Run{Label: "current", GOMAXPROCS: 2, NumCPU: 2, GoVersion: "go1.23.1"}, "go1.23.1, this run"},
		{"cpus", Run{Label: "current", GOMAXPROCS: 2, NumCPU: 8, GoVersion: "go1.24.0"}, "NumCPU=8"},
	} {
		got := stampNote(&tc.ref, cur)
		switch {
		case tc.want == "" && got != "":
			t.Errorf("%s: unexpected note %q", tc.name, got)
		case tc.want != "" && (!strings.HasPrefix(got, "note: ") || !strings.Contains(got, tc.want)):
			t.Errorf("%s: note %q, want it to contain %q", tc.name, got, tc.want)
		}
	}
}
