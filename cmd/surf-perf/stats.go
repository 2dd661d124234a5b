package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// minTailSamples is how many samples must lie beyond a reported
// percentile: a p90 needs at least 100 samples so that ten of them
// exceed it.
const minTailSamples = 10

// errFewSamples reports a percentile the sample cannot support.
var errFewSamples = errors.New("too few samples for percentile")

// percentile returns the nearest-rank q-th percentile (0 < q < 100) of
// samples. Failed operations enter the sample as +Inf, so they count
// as missing any latency limit. It refuses a percentile with fewer
// than minTailSamples samples beyond it.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q / 100 * float64(n)))
	if n == 0 || n-rank < minTailSamples {
		return 0, fmt.Errorf("%w: p%g of %d samples needs %d beyond it", errFewSamples, q, n, minTailSamples)
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return sorted[max(rank, 1)-1], nil
}

// median is the nearest-rank 50th percentile with no tail requirement,
// for small per-layer samples. It returns NaN for an empty sample.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return sorted[(len(sorted)-1)/2]
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sinceMs is the milliseconds elapsed since start.
func sinceMs(start time.Time) float64 { return ms(time.Since(start)) }

// regressed reports whether change is worse than parent by more than
// the metric's bound, a share of the parent's value.
func regressed(def metricDef, parent, change float64) bool {
	if def.Better == "lower" {
		return change > parent*(1+def.Bound)
	}
	return change < parent*(1-def.Bound)
}

// calibrate times a fixed pure-Go loop, the yardstick for machine
// speed: run before and after a workload, a difference above
// noisyShare flags the run as noisy. The median of three timings
// damps a single preemption.
func calibrate() float64 {
	var t [3]float64
	for i := range t {
		start := time.Now()
		calibrationSink = calibrationLoop(4_000_000)
		t[i] = ms(time.Since(start))
	}
	return median(t[:])
}

// noisyShare is the before/after calibration difference above which a
// run is flagged as noisy.
const noisyShare = 0.10

var calibrationSink uint64

// calibrationLoop mixes integer and floating-point work that neither
// allocates nor touches memory beyond registers.
func calibrationLoop(n int) uint64 {
	x, f := uint64(88172645463325252), 1.0
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = f*1.0000001 + float64(x&0xff)*1e-9
	}
	return x ^ math.Float64bits(f)
}
