// Command pandia-benchjson parses `go test -bench -benchmem` output from
// stdin and records it as a labelled run in a JSON file, so the perf
// trajectory of the core benchmarks is tracked across changes:
//
//	go test -run='^$' -bench=. -benchmem . | go run ./cmd/pandia-benchjson -label current -out BENCH_core.json
//
// Runs are keyed by label: recording an existing label replaces that run in
// place, so "baseline" stays pinned while "current" follows the tree. With
// -out "" the parsed run is printed and nothing is written (CI smoke mode).
//
// Each run carries a host stamp: GOMAXPROCS (parsed from the -N suffix go
// test appends to benchmark names), NumCPU and the Go version. In gate mode
// a missing or different stamp on the reference run is printed as a note;
// it does not change the verdict.
//
// Repeated lines of one benchmark (go test -count=N) collapse to the
// fastest: external load only inflates measurements, so min-of-N is the
// noise-robust estimator on shared hosts, applied identically when
// recording and when gating.
//
// With -gate <label>, nothing is recorded: the parsed run is compared
// against the labelled run in -out and the command fails when a benchmark
// regresses by more than -gate-tolerance in ns/op, or when a benchmark
// named in -zero-alloc reports any allocations. This is the observability
// overhead gate: the instrumented predictor hot path must stay
// allocation-free and within tolerance of its recorded cost.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"nsPerOp"`
	// BytesPerOp and AllocsPerOp are present with -benchmem.
	BytesPerOp  *float64 `json:"bytesPerOp,omitempty"`
	AllocsPerOp *float64 `json:"allocsPerOp,omitempty"`
	// Metrics holds custom b.ReportMetric values by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Run is one labelled recording of the benchmark suite.
type Run struct {
	Label string `json:"label"`
	Date  string `json:"date"`
	Goos  string `json:"goos,omitempty"`
	Cpu   string `json:"cpu,omitempty"`
	// GOMAXPROCS, NumCPU and GoVersion stamp the host configuration the
	// run was measured under. GOMAXPROCS is 0 when the run's lines
	// disagree (go test -cpu with several values).
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	NumCPU     int    `json:"numCPU,omitempty"`
	GoVersion  string `json:"goVersion,omitempty"`
	// Benchmarks is every benchmark parsed from the run, in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// File is the on-disk shape of BENCH_core.json.
type File struct {
	Runs []Run `json:"runs"`
}

func main() {
	label := flag.String("label", "current", "label to record the run under (an existing label is replaced)")
	out := flag.String("out", "BENCH_core.json", "JSON file to update; empty prints the run without writing")
	gate := flag.String("gate", "", "compare against this labelled run in -out instead of recording; fail on regression")
	gateTol := flag.Float64("gate-tolerance", 0.05, "allowed fractional ns/op regression in gate mode")
	zeroAlloc := flag.String("zero-alloc", "", "comma-separated benchmarks that must report 0 allocs/op in gate mode")
	flag.Parse()

	run, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandia-benchjson: %v\n", err)
		os.Exit(1)
	}
	collapseBest(run)
	run.NumCPU = runtime.NumCPU()
	run.GoVersion = runtime.Version()
	run.Label = *label
	run.Date = time.Now().UTC().Format("2006-01-02")
	if len(run.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "pandia-benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	for _, b := range run.Benchmarks {
		fmt.Printf("%-32s %12.0f ns/op", b.Name, b.NsPerOp)
		if b.AllocsPerOp != nil {
			fmt.Printf(" %10.0f allocs/op", *b.AllocsPerOp)
		}
		fmt.Println()
	}

	if *gate != "" {
		if err := runGate(run, *out, *gate, *gateTol, *zeroAlloc); err != nil {
			fmt.Fprintf(os.Stderr, "pandia-benchjson: gate FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("gate passed against %q (tolerance %.0f%%)\n", *gate, 100**gateTol)
		return
	}

	if *out == "" {
		return
	}
	var f File
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			fmt.Fprintf(os.Stderr, "pandia-benchjson: %s is not a bench file: %v\n", *out, err)
			os.Exit(1)
		}
	}
	replaced := false
	for i := range f.Runs {
		if f.Runs[i].Label == run.Label {
			f.Runs[i] = *run
			replaced = true
			break
		}
	}
	if !replaced {
		f.Runs = append(f.Runs, *run)
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandia-benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "pandia-benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("recorded %d benchmarks as %q in %s\n", len(run.Benchmarks), run.Label, *out)
}

// runGate compares the parsed run against the labelled reference in file.
// Every parsed benchmark also present in the reference must stay within
// tol fractional ns/op of it, and every benchmark named in zeroAlloc must
// report exactly 0 allocs/op. Parsed benchmarks absent from the reference
// pass the timing check (there is nothing to regress from) but not the
// zero-alloc one.
func runGate(run *Run, file, label string, tol float64, zeroAlloc string) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return fmt.Errorf("reading reference %s: %w", file, err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("%s is not a bench file: %w", file, err)
	}
	ref := make(map[string]Benchmark)
	var refRun *Run
	for i, r := range f.Runs {
		if r.Label == label {
			refRun = &f.Runs[i]
			for _, b := range r.Benchmarks {
				ref[b.Name] = b
			}
		}
	}
	if refRun == nil {
		return fmt.Errorf("no run labelled %q in %s", label, file)
	}
	if note := stampNote(refRun, run); note != "" {
		fmt.Println(note)
	}

	mustZero := make(map[string]bool)
	for _, name := range strings.Split(zeroAlloc, ",") {
		if name = strings.TrimSpace(name); name != "" {
			mustZero[name] = true
		}
	}

	var problems []string
	for _, b := range run.Benchmarks {
		if mustZero[b.Name] {
			delete(mustZero, b.Name)
			switch {
			case b.AllocsPerOp == nil:
				problems = append(problems, fmt.Sprintf("%s: no allocs/op reported (run with -benchmem)", b.Name))
			case *b.AllocsPerOp != 0:
				problems = append(problems, fmt.Sprintf("%s: %g allocs/op, must be 0", b.Name, *b.AllocsPerOp))
			}
		}
		r, ok := ref[b.Name]
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		growth := b.NsPerOp/r.NsPerOp - 1
		fmt.Printf("%-32s %+6.1f%% vs %s (%0.f ns/op)\n", b.Name, 100*growth, label, r.NsPerOp)
		if growth > tol {
			problems = append(problems, fmt.Sprintf("%s: %.0f ns/op is %.1f%% above the %q run's %.0f (tolerance %.0f%%)",
				b.Name, b.NsPerOp, 100*growth, label, r.NsPerOp, 100*tol))
		}
	}
	for name := range mustZero {
		problems = append(problems, fmt.Sprintf("%s: required zero-alloc benchmark missing from the run", name))
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}

// stampNote describes how the reference run's host stamp differs from the
// current run's, or returns "" when they match. A stamp is the run's
// GOMAXPROCS, NumCPU and Go version; a reference recorded before runs were
// stamped has none.
func stampNote(ref, cur *Run) string {
	if ref.GOMAXPROCS == cur.GOMAXPROCS && ref.NumCPU == cur.NumCPU && ref.GoVersion == cur.GoVersion {
		return ""
	}
	return fmt.Sprintf("note: reference run %q is %s, this run is %s; timings may not compare",
		ref.Label, stamp(ref), stamp(cur))
}

func stamp(r *Run) string {
	if r.GOMAXPROCS == 0 && r.NumCPU == 0 && r.GoVersion == "" {
		return "unstamped"
	}
	return fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d %s", r.GOMAXPROCS, r.NumCPU, r.GoVersion)
}

// parse reads `go test -bench` output and extracts benchmark lines plus the
// goos/cpu header fields and the run's GOMAXPROCS.
func parse(r io.Reader) (*Run, error) {
	run := &Run{}
	mixedProcs := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			run.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			run.Cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name, procs := splitProcSuffix(fields[0])
		switch {
		case len(run.Benchmarks) == 0:
			run.GOMAXPROCS = procs
		case procs != run.GOMAXPROCS:
			mixedProcs = true
		}
		b := Benchmark{Name: name, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				v := val
				b.BytesPerOp = &v
			case "allocs/op":
				v := val
				b.AllocsPerOp = &v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		run.Benchmarks = append(run.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if mixedProcs {
		run.GOMAXPROCS = 0
	}
	return run, nil
}

// collapseBest merges repeated lines of the same benchmark (go test
// -count=N) into one entry keeping the lowest ns/op. Under external load —
// shared CI hosts, single-CPU containers — interference only ever inflates a
// measurement, so the minimum over repeats is the most stable estimator of
// the true cost; recording and gating both collapse, so the comparison is
// min-vs-min and immune to load drift between the two runs.
func collapseBest(run *Run) {
	idx := make(map[string]int, len(run.Benchmarks))
	kept := run.Benchmarks[:0]
	for _, b := range run.Benchmarks {
		if i, ok := idx[b.Name]; ok {
			if b.NsPerOp < kept[i].NsPerOp {
				kept[i] = b
			}
			continue
		}
		idx[b.Name] = len(kept)
		kept = append(kept, b)
	}
	run.Benchmarks = kept
}

// splitProcSuffix drops the -GOMAXPROCS suffix Go appends to benchmark
// names on multi-CPU machines, so names are stable across hosts, and
// returns the GOMAXPROCS it named. Go appends no suffix at GOMAXPROCS=1.
func splitProcSuffix(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}
