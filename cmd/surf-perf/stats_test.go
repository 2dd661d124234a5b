package main

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	surf "surf"
)

// ramp returns the samples 1, 2, ..., n.
func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestPercentile(t *testing.T) {
	inf := math.Inf(1)
	withFailures := append(ramp(95), repeat(inf, 5)...)
	tests := []struct {
		name    string
		samples []float64
		q       float64
		want    float64
		wantErr bool
	}{
		{"median of 100", ramp(100), 50, 50, false},
		{"p90 of 100 is nearest rank", ramp(100), 90, 90, false},
		{"p90 of 200", ramp(200), 90, 180, false},
		{"unsorted input", []float64{30, 10, 20, 50, 40, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200}, 50, 100, false},
		{"failures count as +Inf", withFailures, 90, 90, false},
		{"failures beyond the percentile reach it", append(ramp(88), repeat(inf, 12)...), 90, inf, false},
		{"p90 refused below 100 samples", ramp(99), 90, 0, true},
		{"median refused below 20 samples", ramp(19), 50, 0, true},
		{"median of 20", ramp(20), 50, 10, false},
		{"empty sample", nil, 50, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := percentile(tt.samples, tt.q)
			if tt.wantErr {
				if !errors.Is(err, errFewSamples) {
					t.Fatalf("percentile(%d samples, %g) error %v, want errFewSamples", len(tt.samples), tt.q, err)
				}
				return
			}
			if err != nil || got != tt.want {
				t.Fatalf("percentile(%d samples, %g) = %g, %v; want %g", len(tt.samples), tt.q, got, err, tt.want)
			}
		})
	}
}

func TestOpenLoopTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	o := openLoop{start: start, rate: 4}
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	tests := []struct {
		name         string
		k            int
		sent, done   time.Time
		latency, lag float64
	}{
		{"on time", 0, at(0), at(120), 120, 0},
		{"due at 250 ms", 1, at(250), at(300), 50, 0},
		{"sent late after a stall", 2, at(700), at(750), 250, 200},
		{"latency includes the wait", 4, at(1900), at(2000), 1000, 900},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			lat, late := o.times(tt.k, tt.sent, tt.done)
			if lat != tt.latency || late != tt.lag {
				t.Fatalf("times(%d) = %g ms latency, %g ms late; want %g, %g", tt.k, lat, late, tt.latency, tt.lag)
			}
		})
	}
}

func TestSpeedFactor(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(s int) time.Time { return start.Add(time.Duration(s) * time.Second) }
	s := &speedSampler{
		at:   []time.Time{at(0), at(1), at(2), at(3), at(4)},
		took: []float64{2.5, 5, 5, 10, 2.5},
	}
	tests := []struct {
		name     string
		from, to time.Time
		want     float64
	}{
		{"reference speed", at(0), at(0), 1},
		{"half speed over the interval", at(1), at(2), 0.5},
		{"median of the interval", at(1), at(3), 0.5},
		{"no sample in the interval uses all", at(10), at(11), 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := s.factor(tt.from, tt.to); got != tt.want {
				t.Fatalf("factor = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestRequestListsDeterministic(t *testing.T) {
	a, err := newInput(3, toyScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInput(3, toyScale)
	if err != nil {
		t.Fatal(err)
	}
	other, err := newInput(4, toyScale)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		list func(in *input) any
	}{
		{"surrogate finds", func(in *input) any { return finds(in, kindSurrogate, streamMeasure) }},
		{"kde finds", func(in *input) any { return finds(in, kindKDE, streamMeasure) }},
		{"true-function warm-up", func(in *input) any { return finds(in, kindTrue, streamWarm) }},
		{"mixed requests", func(in *input) any {
			l := in.newMixedList()
			var ops []mixedOp
			for i := 0; i < 50; i++ {
				ops = append(ops, l.take())
			}
			return ops
		}},
		{"append batches", func(in *input) any { return [][][]float64{in.appendBatch(0), in.appendBatch(7)} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !reflect.DeepEqual(tt.list(a), tt.list(b)) {
				t.Fatal("one seed produced two different lists")
			}
			if reflect.DeepEqual(tt.list(a), tt.list(other)) {
				t.Fatal("two seeds produced the same list")
			}
		})
	}
	seeds := map[uint64]bool{}
	for _, q := range finds(a, kindSurrogate, streamMeasure) {
		seeds[q.Seed] = true
	}
	for _, q := range finds(a, kindSurrogate, streamWarm) {
		seeds[q.Seed] = true
	}
	if len(seeds) != 2*listLen {
		t.Fatalf("%d distinct swarm seeds among %d queries; lists must never share a cache entry", len(seeds), 2*listLen)
	}
	for _, kind := range []findKind{kindSurrogate, kindKDE, kindTrue} {
		pa, po := make([]surf.Query, listLen), make([]surf.Query, listLen)
		for i := range pa {
			pa[i], po[i] = a.probe(kind, uint64(i)), other.probe(kind, uint64(i))
			if seeds[pa[i].Seed] {
				t.Fatalf("probe %d shares a swarm seed with a measured query", i)
			}
		}
		if !reflect.DeepEqual(pa, po) {
			t.Fatalf("kind %d: the compliance probe list depends on the seed", kind)
		}
	}
}

const listLen = 40

func finds(in *input, kind findKind, stream uint64) []surf.Query {
	out := make([]surf.Query, listLen)
	for i := range out {
		out[i] = in.find(kind, stream, uint64(i))
	}
	return out
}

func TestRegressed(t *testing.T) {
	lower := metricDef{Name: "find_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.10}
	tests := []struct {
		name           string
		def            metricDef
		parent, change float64
		want           bool
	}{
		{"faster", lower, 100, 80, false},
		{"slower within bound", lower, 100, 109.9, false},
		{"slower past bound", lower, 100, 110.1, true},
		{"more throughput", higher, 50, 60, false},
		{"less throughput within bound", higher, 50, 45.5, false},
		{"less throughput past bound", higher, 50, 44.9, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := regressed(tt.def, tt.parent, tt.change); got != tt.want {
				t.Fatalf("regressed(%s, %g, %g) = %v, want %v", tt.def.Name, tt.parent, tt.change, got, tt.want)
			}
		})
	}
}
