package core

import (
	"testing"

	"surf/internal/geom"
	"surf/internal/gso"
)

// swarmAt builds a fake converged swarm with particles at the given
// (x, l) pairs, all valid unless listed in invalid.
func swarmAt(points [][2]float64, invalid map[int]bool) *gso.Result {
	res := &gso.Result{}
	for i, p := range points {
		res.Positions = append(res.Positions, []float64{p[0], p[1]})
		res.Valid = append(res.Valid, !invalid[i])
	}
	return res
}

func TestClusterRegionsGroupsNearbyParticles(t *testing.T) {
	// Two groups of tiny boxes: around x=0.2 and x=0.8.
	pts := [][2]float64{
		{0.18, 0.01}, {0.20, 0.01}, {0.22, 0.01},
		{0.78, 0.01}, {0.80, 0.01}, {0.82, 0.01},
	}
	swarm := swarmAt(pts, nil)
	regions := ClusterRegions(swarm, geom.Unit(1), 0.05)
	if len(regions) != 2 {
		t.Fatalf("got %d clusters, want 2: %v", len(regions), regions)
	}
	// Each cluster's extent covers its member spread (x ± l).
	for _, r := range regions {
		if r.Side(0) < 0.05 || r.Side(0) > 0.15 {
			t.Errorf("cluster extent %v outside expected range", r)
		}
	}
}

func TestClusterRegionsSingleLinkChain(t *testing.T) {
	// A chain of particles spaced below eps merges into one cluster
	// spanning the full band — how the swarm recovers a region's
	// extent from collapsed particles.
	var pts [][2]float64
	for i := 0; i <= 15; i++ {
		pts = append(pts, [2]float64{0.3 + 0.02*float64(i), 0.01})
	}
	swarm := swarmAt(pts, nil)
	regions := ClusterRegions(swarm, geom.Unit(1), 0.05)
	if len(regions) != 1 {
		t.Fatalf("got %d clusters, want 1", len(regions))
	}
	if regions[0].Min[0] > 0.30 || regions[0].Max[0] < 0.60 {
		t.Errorf("cluster %v does not span the particle band", regions[0])
	}
}

func TestClusterRegionsIgnoresInvalid(t *testing.T) {
	pts := [][2]float64{{0.2, 0.01}, {0.5, 0.01}, {0.8, 0.01}}
	swarm := swarmAt(pts, map[int]bool{1: true})
	regions := ClusterRegions(swarm, geom.Unit(1), 0.05)
	if len(regions) != 2 {
		t.Fatalf("got %d clusters, want 2 (invalid particle excluded)", len(regions))
	}
	for _, r := range regions {
		c := r.Center()
		if c[0] > 0.4 && c[0] < 0.6 {
			t.Errorf("invalid particle leaked into clusters: %v", r)
		}
	}
}

func TestClusterRegionsEmptySwarm(t *testing.T) {
	swarm := swarmAt([][2]float64{{0.5, 0.1}}, map[int]bool{0: true})
	if got := ClusterRegions(swarm, geom.Unit(1), 0.05); got != nil {
		t.Errorf("all-invalid swarm should yield nil, got %v", got)
	}
}

func TestClusterRegionsSortedByVolume(t *testing.T) {
	var pts [][2]float64
	// Big cluster: wide spread.
	for x := 0.1; x <= 0.4; x += 0.02 {
		pts = append(pts, [2]float64{x, 0.01})
	}
	// Small cluster: single particle.
	pts = append(pts, [2]float64{0.9, 0.01})
	swarm := swarmAt(pts, nil)
	regions := ClusterRegions(swarm, geom.Unit(1), 0.05)
	if len(regions) != 2 {
		t.Fatalf("got %d clusters, want 2", len(regions))
	}
	if regions[0].Volume() < regions[1].Volume() {
		t.Error("clusters not sorted largest-first")
	}
}

func TestClusterRegionsDefaultEps(t *testing.T) {
	pts := [][2]float64{{0.2, 0.01}, {0.23, 0.01}}
	swarm := swarmAt(pts, nil)
	// eps <= 0 falls back to 0.05, which merges these.
	regions := ClusterRegions(swarm, geom.Unit(1), 0)
	if len(regions) != 1 {
		t.Fatalf("got %d clusters, want 1 under default eps", len(regions))
	}
}

func TestClusterRegionsClipsToDomain(t *testing.T) {
	pts := [][2]float64{{0.02, 0.1}} // box [−0.08, 0.12] pokes out
	swarm := swarmAt(pts, nil)
	regions := ClusterRegions(swarm, geom.Unit(1), 0.05)
	if len(regions) != 1 {
		t.Fatal("expected one cluster")
	}
	if regions[0].Min[0] < 0 {
		t.Errorf("cluster %v escapes the domain", regions[0])
	}
}

// TestClusterRegionsOrdersTiesByFirstMember: clusters come out largest
// first, and clusters of equal volume in the order of their first
// valid particle, on every call. Centers and half-sides are dyadic, so
// equal sides give exactly equal volumes.
func TestClusterRegionsOrdersTiesByFirstMember(t *testing.T) {
	box := func(lo, hi float64) geom.Rect { return geom.Rect{Min: []float64{lo}, Max: []float64{hi}} }
	var singletons [][2]float64
	var singletonBoxes []geom.Rect
	for i := range 40 {
		x := float64(2*i+1) / 128
		singletons = append(singletons, [2]float64{x, 1.0 / 512})
		singletonBoxes = append(singletonBoxes, box(x-1.0/512, x+1.0/512))
	}
	tests := []struct {
		name    string
		points  [][2]float64
		invalid map[int]bool
		eps     float64
		want    []geom.Rect
	}{
		{
			name:   "equal singletons",
			points: singletons,
			eps:    0.01,
			want:   singletonBoxes,
		},
		{
			name:   "larger first, ties by first member",
			points: [][2]float64{{0.125, 1.0 / 64}, {0.375, 1.0 / 16}, {0.625, 1.0 / 64}, {0.875, 1.0 / 16}},
			eps:    0.05,
			want: []geom.Rect{
				box(0.375-1.0/16, 0.375+1.0/16), box(0.875-1.0/16, 0.875+1.0/16),
				box(0.125-1.0/64, 0.125+1.0/64), box(0.625-1.0/64, 0.625+1.0/64),
			},
		},
		{
			name:    "linked members merge, invalid skipped",
			points:  [][2]float64{{0.625, 1.0 / 32}, {0.75, 1.0 / 32}, {0.25, 1.0 / 32}, {0.28125, 1.0 / 32}, {0.875, 1.0 / 32}},
			invalid: map[int]bool{1: true},
			eps:     0.05,
			want: []geom.Rect{
				box(0.21875, 0.3125),
				box(0.625-1.0/32, 0.625+1.0/32), box(0.875-1.0/32, 0.875+1.0/32),
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			swarm := swarmAt(tt.points, tt.invalid)
			for call := range 20 {
				got := ClusterRegions(swarm, geom.Unit(1), tt.eps)
				if len(got) != len(tt.want) {
					t.Fatalf("call %d: %d clusters, want %d", call, len(got), len(tt.want))
				}
				for i, w := range tt.want {
					if got[i].Min[0] != w.Min[0] || got[i].Max[0] != w.Max[0] {
						t.Fatalf("call %d: cluster %d = %v, want %v", call, i, got[i], w)
					}
				}
			}
		})
	}
}
