// Command surf-bench regenerates the paper's tables and figures
// (Section V) and writes them as aligned text to stdout and CSV files
// to a results directory. `surf-bench -list` prints the experiment
// index; each experiment is a function in internal/experiments whose
// doc comment names the paper figure or table it reproduces and the
// shape the paper reports. README "Development" shows how to run them.
//
// Usage:
//
//	surf-bench -exp all -scale small -out results
//	surf-bench -exp tab1 -scale full
//	surf-bench -list
//	surf-bench -json -out results -min-speedup 1.5
//	surf-bench -train-json -out results -min-speedup 1.3
//
// The -json mode skips the paper experiments and instead benchmarks
// the surrogate inference hot path: row-at-a-time walking versus each
// registered inference backend's compiled batch prediction (-kernel
// narrows the backend list), asserting every backend bit-identical to
// the walk and writing the per-backend trajectories to
// <out>/BENCH_inference.json.
// The -train-json mode benchmarks the training hot path (the parallel
// gbt pipeline at Workers=1 vs Workers=NumCPU), writing
// <out>/BENCH_training.json and asserting the two models are
// byte-identical. In either mode -min-speedup turns the measured
// speedup (batch-64 for inference, parallel-over-serial for training)
// into a hard gate for CI; both modes may be combined in one run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"surf/internal/cli"
	"surf/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (fig1..fig12, tab1, ablation) or 'all'")
		scale      = flag.String("scale", "small", "experiment scale: small (seconds) or full (minutes+)")
		out        = flag.String("out", "results", "directory for CSV outputs ('' disables)")
		list       = flag.Bool("list", false, "list experiments and exit")
		jsonBench  = flag.Bool("json", false, "run the inference benchmark and write BENCH_inference.json instead of experiments")
		trainBench = flag.Bool("train-json", false, "run the training benchmark and write BENCH_training.json instead of experiments")
		minSpeedup = flag.Float64("min-speedup", 0, "with -json/-train-json: fail unless the measured speedup reaches this factor (0 disables)")
		kernels    = flag.String("kernel", "", "with -json: comma-separated inference backends to measure (default: all registered)")
	)
	flag.Parse()
	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-9s %s\n", r.ID, r.Description)
		}
		return
	}
	if *jsonBench || *trainBench {
		if *jsonBench {
			if err := runInferenceBench(*out, *minSpeedup, *kernels); err != nil {
				cli.Exit("surf-bench", err)
			}
		}
		if *trainBench {
			if err := runTrainingBench(*out, *minSpeedup); err != nil {
				cli.Exit("surf-bench", err)
			}
		}
		return
	}
	ctx, stop := cli.SignalContext()
	defer stop()
	if err := runContext(ctx, *exp, *scale, *out); err != nil {
		cli.Exit("surf-bench", err)
	}
}

// runContext executes the selected experiments, checking for
// cancellation between runners (individual experiments run to
// completion).
func runContext(ctx context.Context, exp, scaleName, out string) error {
	var scale experiments.Scale
	switch scaleName {
	case "small":
		scale = experiments.Small
	case "full":
		scale = experiments.Full
	default:
		return fmt.Errorf("unknown -scale %q (want small or full)", scaleName)
	}

	var runners []experiments.Runner
	if exp == "all" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(exp, ",") {
			r, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			runners = append(runners, r)
		}
	}

	for _, r := range runners {
		if err := ctx.Err(); err != nil {
			return err
		}
		fmt.Printf("--- running %s (%s scale): %s\n", r.ID, scale, r.Description)
		start := time.Now()
		rep, err := r.Run(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Printf("--- %s finished in %s\n\n", r.ID, time.Since(start).Round(time.Millisecond))
		if err := rep.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if out != "" {
			if err := rep.SaveCSVs(out); err != nil {
				return fmt.Errorf("%s: save CSVs: %w", r.ID, err)
			}
		}
	}
	if out != "" {
		fmt.Printf("CSV series written to %s/\n", out)
	}
	return nil
}
