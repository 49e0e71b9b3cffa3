package main

// The result record, its host stamp, and the compare subcommand that
// refuses to set results from differently configured hosts side by side.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// hostStamp is the configuration a result was measured under. Results are
// comparable only between equal stamps.
type hostStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

func stampHost() hostStamp {
	return hostStamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the processor model from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is one run's full result, as written by --out.
type record struct {
	Host      hostStamp `json:"host"`
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	// E2E holds the end-to-end metrics of the measured pass (with tracing
	// on, on a traced run); Layer the per-layer metrics of a traced run.
	E2E   map[string]float64 `json:"e2e"`
	Layer map[string]float64 `json:"layer,omitempty"`
	// Reference is the untraced reference pass of a traced run, and
	// Overhead the per-metric difference to it in percent.
	Reference    map[string]float64    `json:"reference,omitempty"`
	Overhead     map[string]float64    `json:"overhead_pct,omitempty"`
	SetupSamples []float64             `json:"setup_samples_s"`
	Digest       string                `json:"digest"`
	Tails        map[string]tail       `json:"tails"`
	Classes      map[string]classCount `json:"ops"`
	Notes        []string              `json:"notes,omitempty"`
	Decisions    []float64             `json:"decide_us,omitempty"`
	Failures     []string              `json:"failures,omitempty"`
}

func (r *record) save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// comparable reports why two records must not be compared, or "" when they
// may: the host stamps and the run configuration (workload, length,
// tracing) must match. Seeds may differ — comparing across seeds is how
// spread is measured.
func comparable(a, b *record) string {
	switch {
	case a.Host != b.Host:
		return fmt.Sprintf("host configurations differ: %+v vs %+v", a.Host, b.Host)
	case a.Workload != b.Workload:
		return fmt.Sprintf("workloads differ: %s vs %s", a.Workload, b.Workload)
	case a.Seconds != b.Seconds:
		return fmt.Sprintf("run lengths differ: %gs vs %gs", a.Seconds, b.Seconds)
	case a.Trace != b.Trace:
		return "one run is traced and the other is not"
	}
	return ""
}

// compareMain prints the end-to-end metrics of two --out records side by
// side, or refuses (exit 2) when their configurations differ.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <a.json> <b.json>")
		return 2
	}
	a, err := loadRecord(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	b, err := loadRecord(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if why := comparable(a, b); why != "" {
		fmt.Fprintf(stderr, "perfbench: refusing to compare: %s\n", why)
		return 2
	}
	fmt.Fprintf(stdout, "%s: seed %d vs seed %d\n", a.Workload, a.Seed, b.Seed)
	for _, d := range endToEnd {
		va, vb := a.E2E[d.Name], b.E2E[d.Name]
		fmt.Fprintf(stdout, "  %-18s %14.4f %14.4f  %+7.2f%%  (%s is better)\n", d.Name, va, vb, pct(vb-va, va), d.Better)
	}
	return 0
}
