// Command surf-perf is the benchmark of the surf system: it generates a
// 1M-row density dataset from a seed, drives one of four workloads
// against the public surf, registry and server APIs, checks the
// answers, and prints every metric as "workload metric value unit",
// ending with one JSON line:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}
//
// Untraced runs report the end-to-end metrics; -trace 1 runs report
// the per-layer metrics from spans the harness records around its
// calls into each layer. See README.md for the workloads, metrics and
// how to compare two commits.
//
// Usage:
//
//	surf-perf -workload find-surrogate -seed 1 -seconds 16 -trace 0 [-out DIR] [-work DIR]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"time"

	surf "surf"
)

// workloads maps each workload name to the function that runs it, in
// report order.
var workloads = []struct {
	name string
	run  func(context.Context, *runner) error
}{
	{"find-surrogate", func(ctx context.Context, r *runner) error { return runFind(ctx, r, kindSurrogate) }},
	{"find-kde", func(ctx context.Context, r *runner) error { return runFind(ctx, r, kindKDE) }},
	{"http-mixed", runHTTPMixed},
	{"living-append", runLivingAppend},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for report.json and trace.json ("" = none)
	work     string // directory for generated files, removed afterwards
	sc       scale
}

// runner carries one workload run's state: its input, the tracer (nil
// when untraced) and everything measured.
type runner struct {
	cfg       config
	in        *input
	tr        *tracer
	metrics   metricSet // gated and report-only metrics
	attempted int
	failed    int
	failures  []string // failed correctness checks
	cal       [2]float64
	speed     *speedSampler
	// setup and window are the intervals the timed set-ups and the
	// measured requests ran in, for scaling their timings.
	setup, window [2]time.Time
}

// check records a failed correctness check; the run then reports
// correct=false and exits nonzero.
func (r *runner) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// report is the JSON document written to -out.
type report struct {
	Workload      string     `json:"workload"`
	Seed          uint64     `json:"seed"`
	Seconds       float64    `json:"seconds"`
	Trace         bool       `json:"trace"`
	GoVersion     string     `json:"go_version"`
	GOMAXPROCS    int        `json:"gomaxprocs"`
	NumCPU        int        `json:"nproc"`
	CalibrationMs [2]float64 `json:"calibration_ms"`
	Noisy         bool       `json:"noisy"`
	Correct       bool       `json:"correct"`
	Failures      []string   `json:"failures,omitempty"`
	Attempted     int        `json:"attempted"`
	Failed        int        `json:"failed"`
	Metrics       metricSet  `json:"metrics"`
	Extra         metricSet  `json:"extra"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 16, "measurement window per workload")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "directory for report.json and trace.json")
	flag.StringVar(&cfg.work, "work", "", "directory for generated files (default: system temp)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.sc = fullScale
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ok, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "surf-perf:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the configured workloads, printing each one's metrics
// and JSON line to w. It reports false when a check failed.
func run(ctx context.Context, cfg config, w io.Writer) (bool, error) {
	ok := true
	matched := false
	for _, wl := range workloads {
		if cfg.workload != "all" && cfg.workload != wl.name {
			continue
		}
		matched = true
		rep, err := runOne(ctx, cfg, wl.name, wl.run)
		if err != nil {
			return false, fmt.Errorf("%s: %w", wl.name, err)
		}
		extra := rep.Extra
		if cfg.trace {
			extra = metricSet{}
		}
		rep.Metrics.print(w, wl.name)
		extra.print(w, wl.name)
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "%s: %s\n", wl.name, f)
		}
		if rep.Noisy {
			fmt.Fprintf(os.Stderr, "%s: noisy run: calibration %.2f ms before, %.2f ms after\n",
				wl.name, rep.CalibrationMs[0], rep.CalibrationMs[1])
		}
		line, err := json.Marshal(struct {
			Correct   bool      `json:"correct"`
			Attempted int       `json:"attempted"`
			Failed    int       `json:"failed"`
			Metrics   metricSet `json:"metrics"`
		}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "%s\n", line)
		ok = ok && rep.Correct
	}
	if !matched {
		return false, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	return ok, nil
}

// runOne runs one workload with its own input and work directory.
func runOne(ctx context.Context, cfg config, name string, fn func(context.Context, *runner) error) (*report, error) {
	if cfg.work != "" {
		if err := os.MkdirAll(cfg.work, 0o755); err != nil {
			return nil, err
		}
	}
	work, err := os.MkdirTemp(cfg.work, "surf-perf-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.work = work
	in, err := newInput(cfg.seed, cfg.sc)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, in: in, metrics: metricSet{}, speed: startSampler()}
	if cfg.trace {
		r.tr = newTracer()
	}
	err = fn(ctx, r)
	r.speed.close()
	if err != nil {
		return nil, err
	}
	r.scaleToReference()
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	gated, err := r.metrics.pick(defs)
	if err != nil {
		return nil, err
	}
	extra := metricSet{}
	for k, v := range r.metrics {
		if _, ok := gated[k]; !ok {
			extra[k] = v
		}
	}
	if r.attempted > 0 {
		extra.set("error_rate", "ratio", float64(r.failed)/float64(r.attempted))
	}
	rep := &report{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CalibrationMs: r.cal,
		Noisy:         math.Abs(r.cal[1]-r.cal[0]) > noisyShare*r.cal[0],
		Correct:       len(r.failures) == 0 && r.failed == 0,
		Failures:      r.failures,
		Attempted:     r.attempted, Failed: r.failed,
		Metrics: gated, Extra: extra,
	}
	if r.failed > 0 {
		rep.Failures = append(rep.Failures, fmt.Sprintf("%d of %d requests failed", r.failed, r.attempted))
	}
	if cfg.out != "" {
		if err := writeReport(filepath.Join(cfg.out, name), rep, r.tr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func writeReport(dir string, rep *report, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "report.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return tr.write(filepath.Join(dir, "trace.json"))
}

// window tracks a measurement window: it ends once the configured
// seconds have passed and enough finds completed to back a p90.
type window struct {
	start   time.Time
	seconds float64
	minimum int
}

func (r *runner) newWindow() window {
	minimum := r.cfg.sc.MinFinds
	if r.cfg.trace {
		minimum = 1 // traced runs report no percentiles
	}
	return window{start: time.Now(), seconds: r.cfg.seconds, minimum: minimum}
}

func (w window) over(finds int) bool {
	return time.Since(w.start).Seconds() >= w.seconds && finds >= w.minimum
}

// windowEnd records the measured interval, which began at w's start
// and ends now, and returns its length.
func (r *runner) windowEnd(w window) time.Duration {
	r.window = [2]time.Time{w.start, time.Now()}
	return r.window[1].Sub(w.start)
}

// calibrate records the calibration loop's time before (i = 0) or
// after (i = 1) the measured part of a workload.
func (r *runner) calibrate(i int) { r.cal[i] = calibrate() }

// heapLiveMB returns the live heap after a full collection; callers
// drop their own references first and keep the system under test
// reachable past the call.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// latencySummary sets name_p50_ms and name_p90_ms from samples, failing
// the run when the sample cannot back the p90.
func (r *runner) latencySummary(name string, samples []float64) error {
	p50, err := percentile(samples, 50)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	p90, err := percentile(samples, 90)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.metrics.set(name+"_p50_ms", "ms", p50)
	r.metrics.set(name+"_p90_ms", "ms", p90)
	return nil
}

// probeCompliance sends the compliance probe list of a find kind
// through find, in order, and sets compliance to the mean
// ComplianceRate of the answers, which it returns with the queries.
// The list does not depend on the seed, so compliance reads the same in
// every run of the same code.
func (r *runner) probeCompliance(kind findKind, find func(surf.Query) (*surf.Result, error)) ([]surf.Query, []*surf.Result, error) {
	queries := make([]surf.Query, r.cfg.sc.Probes)
	answers := make([]*surf.Result, len(queries))
	sum := 0.0
	for i := range queries {
		queries[i] = r.in.probe(kind, uint64(i))
		res, err := find(queries[i])
		if err != nil {
			return nil, nil, fmt.Errorf("compliance probe %d: %w", i, err)
		}
		answers[i] = res
		sum += res.ComplianceRate
	}
	r.metrics.set("compliance", "ratio", sum/float64(len(queries)))
	return queries, answers, nil
}

// optionalPercentile sets a report-only percentile when the sample
// supports it.
func (r *runner) optionalPercentile(name string, samples []float64, q float64) {
	if v, err := percentile(samples, q); err == nil {
		r.metrics.set(name, "ms", v)
	}
}
