package main

import (
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: for minutes at a time it
// runs everything 20–40% slower, so raw timings from runs a few minutes
// apart disagree by more than any useful bound. A host slowdown slows
// the calibration loop as much as the system, so the harness times a
// short loop on a thread of its own all through a run and scales each
// timing by how much slower than referenceMs the loop ran over the same
// interval. Timings are then in milliseconds at the reference speed;
// the raw values are printed as raw.<name>.

const (
	samplePeriod = 100 * time.Millisecond
	sampleIters  = 1_000_000
	// referenceMs is the reference speed: the loop's time on an
	// unloaded 2-vCPU Xeon VM.
	referenceMs = 2.5
)

// speedSampler records the calibration loop's time every samplePeriod
// until closed.
type speedSampler struct {
	mu   sync.Mutex
	at   []time.Time
	took []float64 // ms
	sink uint64
	stop chan struct{}
	done chan struct{}
}

// startSampler takes a first sample at once, then samples in the
// background on a locked OS thread, so the sample is not queued behind
// the system's goroutines.
func startSampler() *speedSampler {
	s := &speedSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *speedSampler) sample() {
	start := time.Now()
	s.sink += calibrationLoop(sampleIters)
	took := sinceMs(start)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.at = append(s.at, start)
	s.took = append(s.took, took)
}

// close stops the sampler and waits for it to end.
func (s *speedSampler) close() {
	close(s.stop)
	<-s.done
}

// factor is referenceMs over the loop's median time among the samples
// started in [from, to], or among all samples when none was: below 1
// when the host ran slower than the reference. A time scales by it, a
// rate by its inverse.
func (s *speedSampler) factor(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var in []float64
	for i, at := range s.at {
		if !at.Before(from) && !at.After(to) {
			in = append(in, s.took[i])
		}
	}
	if len(in) == 0 {
		in = s.took
	}
	return referenceMs / median(in)
}

// scaleToReference scales the end-to-end timings to the reference
// speed over the interval each was measured in, keeping each raw value
// as raw.<name>.
func (r *runner) scaleToReference() {
	setup := r.speed.factor(r.setup[0], r.setup[1])
	window := r.speed.factor(r.window[0], r.window[1])
	for _, m := range []struct {
		name   string
		factor float64
	}{
		{"setup_s", setup},
		{"find_p50_ms", window},
		{"find_p90_ms", window},
		{"throughput_qps", 1 / window},
	} {
		if v, ok := r.metrics[m.name]; ok {
			r.metrics["raw."+m.name] = v
			r.metrics.set(m.name, v.Unit, v.Value*m.factor)
		}
	}
	r.metrics.set("harness.speed_factor", "ratio", window)
}
