package experiments

import (
	"math"
	"testing"

	"surf/internal/geom"
	"surf/internal/gso"
)

// traceOf builds a swarm trace with the given mean-luciferin values.
func traceOf(luc ...float64) []gso.IterStats {
	tr := make([]gso.IterStats, len(luc))
	for i, v := range luc {
		tr[i] = gso.IterStats{Iteration: i, MeanLuciferin: v}
	}
	return tr
}

// ramp returns n values rising by step from start.
func ramp(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + step*float64(i)
	}
	return out
}

// plateauStop is the plateau rule as a swarm applied it while running:
// after each iteration it keeps the last window+1 means, drops the
// oldest once it holds more than window, and stops when the rest span
// less than eps. It returns the iterations the run would have executed.
func plateauStop(trace []gso.IterStats, window int, eps float64) int {
	var plateau []float64
	for t, it := range trace {
		plateau = append(plateau, it.MeanLuciferin)
		if len(plateau) > window {
			plateau = plateau[1:]
			lo, hi := plateau[0], plateau[0]
			for _, v := range plateau {
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
			if hi-lo < eps {
				return t + 1
			}
		}
	}
	return len(trace)
}

func TestConvergedAt(t *testing.T) {
	flatFrom19 := append(ramp(0, 1, 20), ramp(19, 0, 40)...)
	nanAt3 := ramp(5, 0, 60)
	nanAt3[3] = math.NaN()
	tests := []struct {
		name   string
		luc    []float64
		window int
		eps    float64
		want   int
	}{
		{"constant", ramp(5, 0, 50), 15, 1e-4, 16},
		{"rising never converges", ramp(0, 1e-3, 50), 15, 1e-4, 50},
		{"rising below eps", ramp(0, 1e-6, 50), 15, 1e-4, 16},
		{"flat from 19", flatFrom19, 15, 1e-4, 34},
		{"span equal to eps does not converge", []float64{0, 1e-4, 0, 1e-4, 0}, 2, 1e-4, 5},
		{"NaN in window", nanAt3, 15, 1e-4, 19},
		{"trace no longer than window", ramp(5, 0, 15), 15, 1e-4, 15},
		{"window 1", []float64{1, 2, 2, 3}, 1, 1e-4, 2},
		{"empty trace", nil, 15, 1e-4, 0},
	}
	for _, tt := range tests {
		tr := traceOf(tt.luc...)
		if got := convergedAt(tr, tt.window, tt.eps); got != tt.want {
			t.Errorf("%s: convergedAt = %d, want %d", tt.name, got, tt.want)
		}
		if got := plateauStop(tr, tt.window, tt.eps); got != tt.want {
			t.Errorf("%s: plateauStop = %d, want %d", tt.name, got, tt.want)
		}
	}
}

// TestConvergedAtSwarm reads a real swarm's trace: with a constant
// objective the mean luciferin settles at γ·J/ρ well before the
// budget, and convergedAt agrees with the running plateau rule.
func TestConvergedAtSwarm(t *testing.T) {
	obj := gso.ObjectiveFunc(func(pos []float64) (float64, bool) { return 1, true })
	p := gso.DefaultParams()
	p.MaxIters = 500
	res, err := gso.Run(p, geom.Unit(2), obj, gso.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		window int
		eps    float64
	}{{10, 1e-9}, {convergeWindow, convergeEps}} {
		n := convergedAt(res.Trace, c.window, c.eps)
		if n >= p.MaxIters {
			t.Errorf("window %d, eps %g: no plateau in %d iterations", c.window, c.eps, p.MaxIters)
		}
		if want := plateauStop(res.Trace, c.window, c.eps); n != want {
			t.Errorf("window %d, eps %g: convergedAt = %d, the running rule stops at %d", c.window, c.eps, n, want)
		}
	}
}
