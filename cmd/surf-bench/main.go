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
//
// Inference and training speed are measured by cmd/surf-perf, the
// repository's benchmark, and by the Go benchmarks in internal/gbt.
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
		exp   = flag.String("exp", "all", "experiment id (fig1..fig12, tab1, ablation) or 'all'")
		scale = flag.String("scale", "small", "experiment scale: small (seconds) or full (minutes+)")
		out   = flag.String("out", "results", "directory for CSV outputs ('' disables)")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()
	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-9s %s\n", r.ID, r.Description)
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
