// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed through the program's public calls, checks the
// outputs, and prints every metric BENCHMARK.json declares, by name and with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with --trace 1 a separate traced run prints the per-layer ledger and
// writes a Chrome trace_event file. README.md describes the workloads and
// which layer each metric belongs to.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"time"

	"distda/internal/exp"
)

// runBudget bounds one invocation so it exits within three minutes, hung
// simulations included.
const runBudget = 170 * time.Second

// setupReps is how many times a timed run measures set-up, half of them
// before the timed phase and half after it. setup_s is the median, so one
// slow start (a page-fault burst, a descheduled thread) or a passing state
// of the host at one moment of the run does not move it.
const setupReps = 24

type options struct {
	outdir   string
	workload string
	seed     int64
	seconds  int
	trace    bool
	probe    bool // set up, report "ready" and exit: one set-up measurement
}

// metricDecl is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// workloadSpec is one workload's fixed parameters from workloads.json.
type workloadSpec struct {
	Kind  string `json:"kind"` // "matrix" or "serve"
	Seed  int64  `json:"seed"` // used when --seed is not given
	Scale string `json:"scale"`

	// Matrix workloads.
	Selection exp.Selection `json:"selection"`
	Digest    string        `json:"digest"` // "sha256:<hex>" of the rendered selection

	// Serve workloads: an open-loop Poisson schedule of run jobs.
	RatePerS  float64 `json:"rate_per_s"`
	HotKeys   int     `json:"hot_keys"`   // size of the repeated hot set (0 = every key distinct)
	MissShare float64 `json:"miss_share"` // share of arrivals that take a fresh key

	LatencyLimitMS float64 `json:"latency_limit_ms"`
}

type specFile struct {
	Workloads map[string]workloadSpec `json:"workloads"`
}

// outcome is what a workload run reports: attempted operations, failed
// ones, the reasons, and the metric values by name.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	info      []string // readable lines printed before the metrics
	metrics   map[string]float64
	notes     map[string]string // per-metric detail such as "p98 of 500 samples"
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, notes: map[string]string{}}
}

// fail records one failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64, note string) {
	o.metrics[name] = v
	if note != "" {
		o.notes[name] = note
	}
}

// setQ records a quantile metric with its percentile and sample count.
func (o *outcome) setQ(name string, q quantile) {
	o.set(name, q.Value, q.note())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.outdir, "outdir", ".bench_build", "directory for trace_event files")
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 0, "workload seed (default: the workload's declared seed)")
	fs.IntVar(&o.seconds, "seconds", 30, "seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.BoolVar(&o.probe, "setup-probe", false, "set up the workload, print \"ready\" and exit (used to measure setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	o.trace = trace == 1

	bf, specs, err := loadDecls(".")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	spec, ok := specs.Workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if !seedSet {
		o.seed = spec.Seed
	}

	host := hostFacts()
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	if o.probe {
		release, err := setUp(ctx, o, spec)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		release()
		return 0
	}

	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "# host %s\n", hostJSON)
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %d trace %d\n", o.workload, o.seed, o.seconds, trace)

	var setupDurs []float64
	if !o.trace {
		if setupDurs, err = probeSetup(ctx, args, stderr, setupReps/2); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var res *outcome
	switch spec.Kind {
	case "matrix":
		res, err = runMatrix(ctx, spec, tr)
	case "serve":
		res, err = runServe(ctx, o, spec, tr)
	default:
		err = fmt.Errorf("workload %q has unknown kind %q", o.workload, spec.Kind)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !o.trace {
		after, err := probeSetup(ctx, args, stderr, setupReps-len(setupDurs))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		res.set("setup_s", median(append(setupDurs, after...)),
			fmt.Sprintf("median of %d process starts, until set-up is done", setupReps))
	}
	if tr != nil {
		path := filepath.Join(o.outdir, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.writeChrome(path, map[string]any{"host": host, "workload": o.workload, "seed": o.seed}); err != nil {
			fmt.Fprintln(stderr, "perfbench: trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# trace_event file %s (%d spans)\n", path, tr.len())
	}

	decls := bf.EndToEnd
	if o.trace {
		decls = bf.PerLayer
	}
	return emit(stdout, stderr, decls, res)
}

// emit prints the readable report and the final JSON line. Every declared
// metric must have been measured and nothing undeclared may be reported.
func emit(stdout, stderr io.Writer, decls []metricDecl, res *outcome) int {
	for _, line := range res.info {
		fmt.Fprintln(stdout, "#", line)
	}
	declared := map[string]bool{}
	metrics := map[string]map[string]any{}
	for _, d := range decls {
		declared[d.Name] = true
		v, ok := res.metrics[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s is declared but was not measured\n", d.Name)
			return 1
		}
		note := ""
		if n := res.notes[d.Name]; n != "" {
			note = "  (" + n + ")"
		}
		fmt.Fprintf(stdout, "# %-28s %14.6g %s%s\n", d.Name, v, d.Unit, note)
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	for name := range res.metrics {
		if !declared[name] {
			fmt.Fprintf(stderr, "perfbench: metric %s was measured but is not declared\n", name)
			return 1
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		fmt.Fprintf(stdout, "# process cpu: user %.2f s, sys %.2f s\n",
			time.Duration(ru.Utime.Nano()).Seconds(), time.Duration(ru.Stime.Nano()).Seconds())
	}
	fmt.Fprintf(stdout, "# %-28s %14.6g ratio  (%d failed of %d attempted)\n", "error_rate",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Fprintln(stdout, "# FAILED:", p)
	}
	correct := res.failed == 0 && res.attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// loadDecls reads BENCHMARK.json (metric names, units and bounds) and
// perfbench/workloads.json (each workload's fixed parameters).
func loadDecls(root string) (*benchmarkFile, *specFile, error) {
	var bf benchmarkFile
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &bf); err != nil {
		return nil, nil, err
	}
	var sf specFile
	if err := readJSON(filepath.Join(root, "perfbench", "workloads.json"), &sf); err != nil {
		return nil, nil, err
	}
	if err := checkDecls(&bf, &sf); err != nil {
		return nil, nil, err
	}
	return &bf, &sf, nil
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// checkDecls rejects malformed or inconsistent declarations: every metric
// name matches [A-Za-z0-9_.-] and is used once, and the workloads in
// BENCHMARK.json and workloads.json are the same set.
func checkDecls(bf *benchmarkFile, sf *specFile) error {
	seen := map[string]bool{}
	for _, list := range [][]metricDecl{bf.EndToEnd, bf.PerLayer} {
		for _, d := range list {
			if !metricName.MatchString(d.Name) {
				return fmt.Errorf("BENCHMARK.json: bad metric name %q", d.Name)
			}
			if seen[d.Name] {
				return fmt.Errorf("BENCHMARK.json: metric %q declared twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				return fmt.Errorf("BENCHMARK.json: metric %q: better must be lower or higher", d.Name)
			}
		}
	}
	if len(bf.Workloads) != len(sf.Workloads) {
		return errors.New("BENCHMARK.json and perfbench/workloads.json name different workloads")
	}
	for _, w := range bf.Workloads {
		if _, ok := sf.Workloads[w.Name]; !ok {
			return fmt.Errorf("workload %q has no entry in perfbench/workloads.json", w.Name)
		}
	}
	return nil
}

// hostFacts records what a measurement must be compared under: CPU count
// and model, GOMAXPROCS and the Go version.
func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setUp does one workload's set-up, everything a timed run does before its
// first timed call, and returns the func that releases it.
func setUp(ctx context.Context, o options, spec workloadSpec) (func(), error) {
	switch spec.Kind {
	case "matrix":
		_, err := newMatrixSetup(spec)
		return func() {}, err
	case "serve":
		st, err := newServeSetup(ctx, o.seed, spec, time.Duration(o.seconds)*time.Second)
		if err != nil {
			return nil, err
		}
		return st.close, nil
	}
	return nil, fmt.Errorf("workload %q has unknown kind %q", o.workload, spec.Kind)
}

// probeSetup starts this program n times in set-up-only mode with the run's
// own arguments. It returns each time from starting the process to its
// report that set-up is done, which covers the process start, the runtime's
// and the packages' initialisation, reading the declarations and the
// workload's set-up.
func probeSetup(ctx context.Context, args []string, stderr io.Writer, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, exe, append([]string{"--setup-probe"}, args...)...)
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0).Seconds()
		if err := cmd.Wait(); err != nil || rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up probe: read %q: %v", line, errors.Join(rerr, err))
		}
		durs = append(durs, d)
	}
	return durs, nil
}
