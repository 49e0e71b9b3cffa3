// Command perfbench is the end-to-end benchmark of the Pandia decider: it
// drives the public APIs (pandia.System, scheduler.Scheduler with its HTTP
// mux, scenario.Run) from one process on seeded workloads, checks their
// outputs, and prints the end-to-end metrics — or, with --trace 1, the
// per-layer ledger and the tracing overhead. Run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload advise --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero when any
// output check or operation failed. `perfbench compare a.json b.json`
// compares two results written with --out, refusing results whose host
// configurations differ.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// env is one pass's configuration and shared instruments.
type env struct {
	workload string
	seed     int64
	seconds  float64
	root     string
	// lay collects per-layer samples; nil on an untraced pass, where no
	// instrument is installed.
	lay    *series
	ledger *opLedger
}

func (e *env) traced() bool { return e.lay != nil }

// layer records one per-layer sample on a traced pass.
func (e *env) layer(name string, v float64) {
	if e.lay != nil {
		e.lay.add(name, v)
	}
}

// passResult is what one measured pass reports.
type passResult struct {
	E2E   map[string]float64
	Layer map[string]float64
	// Digest hashes the pass's fixed block of decisions.
	Digest string
	// Tails holds the percentile rule's answer per timing series.
	Tails map[string]tail
	// Notes are extra report lines (per-workload detail).
	Notes []string
	// Decisions are the decision latencies in µs, in issue order, kept for
	// offline analysis of the --out record.
	Decisions []float64
}

// measurer is a set-up workload, ready to measure.
type measurer interface {
	measure(e *env) (*passResult, error)
}

type workloadDef struct {
	// Why is the workload's one-line rationale, as in BENCHMARK.json.
	Why   string
	setup func(e *env) (measurer, error)
}

var workloads = map[string]workloadDef{
	"advise": {Why: adviseWhy, setup: setupAdvise},
	"churn":  {Why: churnWhy, setup: setupChurn},
	"ops":    {Why: opsWhy, setup: setupOps},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: advise, churn or ops")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time per run")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics and the tracing overhead")
	root := fs.String("root", ".", "repository root (holds scenarios/)")
	out := fs.String("out", "", "also write the full result record as JSON to this file")
	samples := fs.Int("setup-samples", 3, "set-ups timed per run; the median is setup_s (extra ones run in child processes)")
	setupOnly := fs.Bool("setup-only", false, "time one set-up and print it (used for setup_s samples)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have advise, churn, ops)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if _, err := os.Stat(*root + "/scenarios"); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v (run from the repository root or pass --root)\n", err)
		return 2
	}
	e := &env{workload: *name, seed: *seed, seconds: *seconds, root: *root, ledger: newOpLedger()}
	if *setupOnly {
		t0 := time.Now()
		if _, err := def.setup(e); err != nil {
			fmt.Fprintf(stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "{\"setup_s\": %v}\n", time.Since(t0).Seconds())
		return 0
	}
	opts := runOpts{trace: *trace == 1, setupSamples: *samples, reference: true}
	rec, err := runWorkload(e, def, opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rec.report(stdout)
	if *out != "" {
		if err := rec.save(*out); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.summary())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

type runOpts struct {
	trace        bool
	setupSamples int
	reference    bool
}

// runWorkload times the set-up (extra samples in child processes), measures
// one pass, and on a traced run also measures the untraced reference pass
// the tracing overhead is taken against. A traced run splits its time
// evenly between the two passes.
func runWorkload(e *env, def workloadDef, o runOpts) (*record, error) {
	rec := &record{Host: stampHost(), Workload: e.workload, Seed: e.seed, Seconds: e.seconds, Trace: o.trace}
	if o.trace {
		e.seconds /= 2
		if o.reference {
			ref, err := childMetrics(e, "--trace", "0", "--seconds", fmtFloat(e.seconds), "--setup-samples", "1")
			if err != nil {
				return nil, fmt.Errorf("reference pass: %w", err)
			}
			rec.Reference = ref
		}
		e.lay = newSeries()
	} else {
		for i := 1; i < o.setupSamples; i++ {
			m, err := childMetrics(e, "--setup-only")
			if err != nil {
				return nil, fmt.Errorf("setup sample: %w", err)
			}
			rec.SetupSamples = append(rec.SetupSamples, m["setup_s"])
		}
	}
	t0 := time.Now()
	m, err := def.setup(e)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rec.SetupSamples = append(rec.SetupSamples, time.Since(t0).Seconds())
	res, err := m.measure(e)
	if err != nil {
		return nil, err
	}
	res.E2E["setup_s"] = median(rec.SetupSamples)
	rec.E2E = res.E2E
	rec.Layer = res.Layer
	rec.Digest = res.Digest
	rec.Tails = res.Tails
	rec.Notes = res.Notes
	rec.Decisions = res.Decisions
	rec.Classes = e.ledger.snapshot()
	rec.Attempted, rec.Failed = e.ledger.totals()
	rec.Failures = e.ledger.failures()
	rec.Correct = rec.Failed == 0
	if rec.Reference != nil {
		rec.Overhead = make(map[string]float64)
		for _, d := range endToEnd {
			if ref := rec.Reference[d.Name]; ref != 0 {
				rec.Overhead[d.Name] = 100 * (rec.E2E[d.Name] - ref) / ref
			}
		}
	}
	return rec, nil
}

// childMetrics runs this binary again on the same workload and seed with
// extra flags, waits for it, and returns the metric values of its last
// output line. The child must succeed within its own run budget.
func childMetrics(e *env, extra ...string) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	args := append([]string{"--workload", e.workload, "--seed", strconv.FormatInt(e.seed, 10),
		"--root", e.root}, extra...)
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := []byte(lines[len(lines)-1])
	var summary struct {
		SetupS  *float64 `json:"setup_s"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(last, &summary); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	out := make(map[string]float64)
	if summary.SetupS != nil {
		out["setup_s"] = *summary.SetupS
	}
	for k, v := range summary.Metrics {
		out[k] = v.Value
	}
	if len(out) == 0 {
		return nil, errors.New("child printed no metrics")
	}
	return out, nil
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// metricValue is one entry of the summary line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary is the last output line: the end-to-end metrics on an untraced
// run, the per-layer metrics on a traced one.
func (r *record) summary() summary {
	defs, vals := endToEnd, r.E2E
	if r.Trace {
		defs, vals = perLayer, r.Layer
	}
	s := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		s.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return s
}

// report prints the human-readable result ahead of the summary line.
func (r *record) report(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v  host: GOMAXPROCS=%d NumCPU=%d %s %s/%s cpu=%q\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, h.GOMAXPROCS, h.NumCPU, h.GoVersion, h.GOOS, h.GOARCH, h.CPUModel)
	fmt.Fprintf(w, "why: %s\n", workloads[r.Workload].Why)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-18s %14.4f %s\n", d.Name, r.E2E[d.Name], d.Unit)
	}
	for _, name := range sortedKeys(r.Tails) {
		t := r.Tails[name]
		valid := ""
		if !t.OK {
			valid = " (fewer than ten samples beyond the median)"
		}
		fmt.Fprintf(w, "  tail %-22s p%g = %.4g over n=%d%s\n", name, t.P, t.Value, t.N, valid)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  decision digest %s\n", r.Digest)
	for _, name := range sortedKeys(r.Classes) {
		c := r.Classes[name]
		fmt.Fprintf(w, "  ops %-12s attempted=%d failed=%d decided=%d\n", name, c.Attempted, c.Failed, c.Decided)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if !r.Trace {
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  layer %-32s %14.4f %-5s -> %s\n", d.Name, r.Layer[d.Name], d.Unit, d.Moves)
	}
	if r.Reference == nil {
		return
	}
	fmt.Fprintln(w, "  tracing overhead (traced pass vs untraced reference pass, same seed and length):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "    %-18s reference %12.4f traced %12.4f  %+7.2f%%\n",
			d.Name, r.Reference[d.Name], r.E2E[d.Name], r.Overhead[d.Name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
