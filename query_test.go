package surf

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestSwarmSizeBounds: Glowworms and Iterations above maxSwarm are
// rejected with ErrBadQuery on every entry point, before any swarm
// state is allocated — a swarm of 2^40 worms would otherwise end the
// process with an out-of-memory fatal error — while the cap itself
// passes validation.
func TestSwarmSizeBounds(t *testing.T) {
	eng := trainedEngine(t)
	tests := []struct {
		name                  string
		glowworms, iterations int
		ok                    bool
	}{
		{"glowworms at cap", maxSwarm, 0, true},
		{"iterations at cap", 0, maxSwarm, true},
		{"both at cap", maxSwarm, maxSwarm, true},
		{"glowworms over cap", maxSwarm + 1, 0, false},
		{"glowworms 2^40", 1 << 40, 0, false},
		{"glowworms max int", math.MaxInt, 0, false},
		{"iterations over cap", 0, maxSwarm + 1, false},
		{"iterations 2^40", 0, 1 << 40, false},
		{"iterations max int", 0, math.MaxInt, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q := Query{Threshold: 1, Above: true, Glowworms: tt.glowworms, Iterations: tt.iterations}
			tq := TopKQuery{K: 2, Largest: true, Glowworms: tt.glowworms, Iterations: tt.iterations}
			if tt.ok {
				// Accepted values are checked at the gate only: running
				// a 10,000-worm swarm is not what this test is about.
				if err := q.validate(); err != nil {
					t.Errorf("Query: %v", err)
				}
				if err := tq.validate(); err != nil {
					t.Errorf("TopKQuery: %v", err)
				}
				return
			}
			ctx := context.Background()
			if _, err := eng.Find(q); !errors.Is(err, ErrBadQuery) {
				t.Errorf("Find err = %v, want ErrBadQuery", err)
			}
			if _, err := eng.Stream(ctx, q); !errors.Is(err, ErrBadQuery) {
				t.Errorf("Stream err = %v, want ErrBadQuery", err)
			}
			for r := range eng.FindMany(ctx, []Query{q}) {
				if !errors.Is(r.Err, ErrBadQuery) {
					t.Errorf("FindMany err = %v, want ErrBadQuery", r.Err)
				}
			}
			if _, err := eng.FindTopK(tq); !errors.Is(err, ErrBadQuery) {
				t.Errorf("FindTopK err = %v, want ErrBadQuery", err)
			}
			if _, err := eng.StreamTopK(ctx, tq); !errors.Is(err, ErrBadQuery) {
				t.Errorf("StreamTopK err = %v, want ErrBadQuery", err)
			}
		})
	}
}
