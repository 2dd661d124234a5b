package gso

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"surf/internal/geom"
)

// scanCase is one differential scenario: an objective, a parameter
// and option set, bounds and starting positions, run at every swarm
// size and dimensionality of TestRankedScanMatchesReference.
type scanCase struct {
	name   string
	obj    func(pos []float64) (float64, bool)
	params func(p *Params)
	opts   func(n, L int) Options
	bounds func(n int) geom.Rect
	start  func(n, L int) [][]float64
}

// tiedFn quantizes sphereFn so many worms share a luciferin level.
func tiedFn(pos []float64) (float64, bool) {
	v, ok := sphereFn(pos)
	return math.Floor(v*4) / 4, ok
}

// infNaNFn reports +Inf, −Inf and NaN as valid fitness in three slabs
// of the first coordinate, so luciferin reaches ±Inf and, once a worm
// crosses from one infinite slab to the other, NaN.
func infNaNFn(pos []float64) (float64, bool) {
	switch x := pos[0]; {
	case x < 0.2:
		return math.Inf(1), true
	case x > 0.8:
		return math.Inf(-1), true
	case x > 0.45 && x < 0.55:
		return math.NaN(), true
	}
	return sphereFn(pos)
}

// rampFn rises along the first coordinate only.
func rampFn(pos []float64) (float64, bool) { return pos[0], true }

// exactRadiusStarts places worms in triples along the first axis: an
// anchor, a worm exactly r from it, and one a ulp beyond or short of
// r, so the first iterations test pairs on the radius itself.
func exactRadiusStarts(n, L int, r float64) [][]float64 {
	pos := make([][]float64, L)
	for i := range pos {
		anchor := float64(i/3) / 64
		p := make([]float64, n)
		switch i % 3 {
		case 0:
			p[0] = anchor
		case 1:
			p[0] = anchor + r
		default:
			dir := math.Inf(1 - 2*(i/3%2))
			p[0] = math.Nextafter(anchor+r, dir)
		}
		pos[i] = p
	}
	return pos
}

func unitBounds(n int) geom.Rect { return geom.Unit(n) }

// cubeBounds returns [lo, hi]^n.
func cubeBounds(lo, hi float64) func(n int) geom.Rect {
	return func(n int) geom.Rect {
		b := geom.Rect{Min: make([]float64, n), Max: make([]float64, n)}
		for j := range b.Min {
			b.Min[j], b.Max[j] = lo, hi
		}
		return b
	}
}

var scanCases = []scanCase{
	{name: "smooth", obj: sphereFn},
	{name: "ties", obj: tiedFn},
	{name: "inf-nan", obj: infNaNFn},
	{
		// A radius wide enough to see the whole swarm collapses to 0
		// after one crowded step: β(n_t − |N|) < −2 once a worm has
		// more than 30 brighter neighbours.
		name: "radius-zero", obj: sphereFn,
		params: func(p *Params) { p.InitRadius = 2 },
	},
	{
		// The sensor range, the diagonal of a 1e-160 cube, keeps r
		// near 1e-160, so r² is subnormal.
		name: "radius-sq-subnormal", obj: sphereFn,
		params: func(p *Params) { p.InitRadius = 1e-160 },
		bounds: cubeBounds(0, 1e-160),
	},
	{
		// In a 1e-170 cube r² underflows to 0 while r does not.
		name: "radius-sq-underflow", obj: sphereFn,
		params: func(p *Params) { p.InitRadius = 1e-170 },
		bounds: cubeBounds(0, 1e-170),
	},
	{
		// r² and most squared distances overflow to +Inf.
		name: "radius-sq-overflow", obj: rampFn,
		params: func(p *Params) { p.InitRadius = 1e200 },
		bounds: cubeBounds(-1e200, 1e200),
	},
	{
		name: "exact-radius-dyadic", obj: rampFn,
		params: func(p *Params) { p.InitRadius = 0.25 },
		start:  func(n, L int) [][]float64 { return exactRadiusStarts(n, L, 0.25) },
	},
	{
		name: "exact-radius-decimal", obj: rampFn,
		params: func(p *Params) { p.InitRadius = 0.1 },
		start:  func(n, L int) [][]float64 { return exactRadiusStarts(n, L, 0.1) },
	},
	{
		name: "invalid-walk", obj: sphereFn,
		opts: func(n, L int) Options { return Options{InvalidWalk: 1} },
	},
	{
		// A weight of 0 drops brighter neighbours from the roulette.
		name: "zero-weight", obj: sphereFn,
		opts: func(n, L int) Options {
			return Options{InvalidWalk: 1, Weight: func(pos []float64) float64 {
				if pos[0] < 0.5 {
					return 0
				}
				return 1 + pos[0]
			}}
		},
	},
}

// TestRankedScanMatchesReference: RunContext with the ranked scan
// returns exactly the Result of the original all-pairs loop — every
// position, fitness, validity flag, luciferin level and trace entry,
// and every position the observer sees at each iteration, bit for
// bit — across luciferin ties, ±Inf and NaN luciferin, degenerate
// radii, pairs on the radius, the invalid walk and zero selection
// weights, for n = 1…6 and swarms on either side of a 64-worm bitset
// word.
func TestRankedScanMatchesReference(t *testing.T) {
	for _, c := range scanCases {
		for n := 1; n <= 6; n++ {
			for _, L := range []int{2, 63, 64, 65, 200} {
				t.Run(fmt.Sprintf("%s/n=%d/L=%d", c.name, n, L), func(t *testing.T) {
					p := DefaultParams()
					p.Glowworms, p.MaxIters, p.Seed = L, 20, uint64(7*n+L)
					if c.params != nil {
						c.params(&p)
					}
					bounds := unitBounds(n)
					if c.bounds != nil {
						bounds = c.bounds(n)
					}
					opts := Options{}
					if c.opts != nil {
						opts = c.opts(n, L)
					}
					var start [][]float64
					if c.start != nil {
						start = c.start(n, L)
					}
					gotOpts, wantOpts := opts, opts
					gotTrail, wantTrail := recordTrail(&gotOpts), recordTrail(&wantOpts)
					got, err := run(context.Background(), p, bounds, ObjectiveFunc(c.obj), gotOpts, start)
					if err != nil {
						t.Fatal(err)
					}
					want, err := runReference(context.Background(), p, bounds, ObjectiveFunc(c.obj), wantOpts, start)
					if err != nil {
						t.Fatal(err)
					}
					if diff := diffResults(got, want); diff != "" {
						t.Fatal(diff)
					}
					if diff := diffTrails(*gotTrail, *wantTrail, L); diff != "" {
						t.Fatal(diff)
					}
					if diff := diffEvaluations(got, want); diff != "" {
						t.Fatal(diff)
					}
				})
			}
		}
	}
}

// diffResults describes the first bit-level difference between two
// Results, or returns "". It leaves out Evaluations, which counts
// work done rather than an answer: see diffEvaluations.
func diffResults(got, want *Result) string {
	if got.Iterations != want.Iterations {
		return fmt.Sprintf("%d iterations, want %d", got.Iterations, want.Iterations)
	}
	if !slices.Equal(got.Valid, want.Valid) {
		return fmt.Sprintf("valid %v, want %v", got.Valid, want.Valid)
	}
	for _, f := range []struct {
		name      string
		got, want []float64
	}{
		{"fitness", got.Fitness, want.Fitness},
		{"luciferin", got.Luciferin, want.Luciferin},
	} {
		if !sameBits(f.got, f.want) {
			return fmt.Sprintf("%s %v, want %v", f.name, f.got, f.want)
		}
	}
	for i := range want.Positions {
		if !sameBits(got.Positions[i], want.Positions[i]) {
			return fmt.Sprintf("position %d = %v, want %v", i, got.Positions[i], want.Positions[i])
		}
	}
	if len(got.Trace) != len(want.Trace) {
		return fmt.Sprintf("%d trace entries, want %d", len(got.Trace), len(want.Trace))
	}
	for k, g := range got.Trace {
		w := want.Trace[k]
		if g.Iteration != w.Iteration || g.Moved != w.Moved ||
			!sameBits([]float64{g.MeanFitness, g.MeanLuciferin, g.ValidFrac},
				[]float64{w.MeanFitness, w.MeanLuciferin, w.ValidFrac}) {
			return fmt.Sprintf("trace %d = %+v, want %+v", k, g, w)
		}
	}
	return ""
}

// recordTrail makes opts.Observer append a copy of every worm's
// position at the end of each iteration, in worm order, to the
// returned trail.
func recordTrail(opts *Options) *[][]float64 {
	var trail [][]float64
	opts.Observer = func(_ IterStats, v SwarmView) {
		for _, p := range v.Positions {
			trail = append(trail, slices.Clone(p))
		}
	}
	return &trail
}

// diffTrails describes the first bit-level difference between two
// trails of an L-worm swarm, or returns "".
func diffTrails(got, want [][]float64, L int) string {
	if len(got) != len(want) {
		return fmt.Sprintf("trail of %d positions, want %d", len(got), len(want))
	}
	for k := range want {
		if !sameBits(got[k], want[k]) {
			return fmt.Sprintf("worm %d after iteration %d at %v, want %v", k%L, k/L, got[k], want[k])
		}
	}
	return ""
}

// evaluationsMade is the evaluation count of a run that scores every
// worm once and then only the worms that moved: L + Σ_{t<T−1} Moved_t.
// The last iteration's moves are never evaluated.
func evaluationsMade(res *Result) int {
	n := len(res.Positions)
	for _, it := range res.Trace[:max(0, len(res.Trace)-1)] {
		n += it.Moved
	}
	return n
}

// diffEvaluations checks the two evaluation counts of a run and of the
// reference that re-evaluates every worm: evaluations made by got, and
// L per iteration by want.
func diffEvaluations(got, want *Result) string {
	L := len(want.Positions)
	if e := evaluationsMade(got); got.Evaluations != e {
		return fmt.Sprintf("%d evaluations, want L + moved = %d", got.Evaluations, e)
	}
	if want.Evaluations != L*want.Iterations {
		return fmt.Sprintf("reference made %d evaluations, want L·T = %d", want.Evaluations, L*want.Iterations)
	}
	return ""
}

// sameBits compares bit patterns, with every NaN equal: Go leaves a
// NaN result's payload unspecified, and it follows the operand order
// the compiler picks for a commutative operation.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
	})
}

// TestDistBand: the squared-distance band brackets r² for normal r²,
// is exact at r = 0 and covers everything when r² is not normal.
func TestDistBand(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		r        float64
		lo, hi   float64
		bracketR bool
	}{
		{r: 0, lo: 0, hi: 0},
		{r: math.Copysign(0, -1), lo: 0, hi: 0},
		{r: 0.25, bracketR: true},
		{r: 0.1, bracketR: true},
		{r: 0x1p-511, bracketR: true},
		{r: 1e-160, lo: -inf, hi: inf},
		{r: 1e-170, lo: -inf, hi: inf},
		{r: 5e-324, lo: -inf, hi: inf},
		{r: 1e200, lo: -inf, hi: inf},
		{r: inf, lo: -inf, hi: inf},
		{r: math.NaN(), lo: -inf, hi: inf},
	} {
		lo, hi := distBand(c.r)
		if c.bracketR {
			if r2 := c.r * c.r; !(lo < r2 && r2 < hi) {
				t.Errorf("distBand(%g) = (%g, %g] does not bracket r² %g", c.r, lo, hi, r2)
			}
			continue
		}
		if lo != c.lo || hi != c.hi {
			t.Errorf("distBand(%g) = (%g, %g], want (%g, %g]", c.r, lo, hi, c.lo, c.hi)
		}
	}
}

// Fuzz decoding draws positions, luciferin and radii from pools
// rigged with the scan's edge cases: ties, signed zero, ±Inf, NaN,
// subnormal and overflowing squares, and values on, a ulp inside and
// a ulp outside the pool radii. Exhausted input reads as zero.
var (
	scanFuzzValues = []float64{
		0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1, 0.1, 0.2, 0.3,
		math.Nextafter(0.25, 0), math.Nextafter(0.25, 1), math.Nextafter(0.1, 0), math.Nextafter(0.1, 1),
		math.Copysign(0, -1), 1e-160, 5e-324, 1e200, -1e200, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	scanFuzzRadii = []float64{
		0, 0.25, 0.1, 0.125, 0.5, 1, math.Nextafter(0.25, 0), math.Nextafter(0.25, 1),
		1e-160, 1e-170, 5e-324, 1e200, math.Inf(1),
	}
)

// FuzzNeighborScan: rankedScan.within and neighbors find exactly what
// the original all-pairs loop does over the phase's start positions —
// the same neighbours in the same order, with the same weights and the
// same sum — for every worm, with consecutive scans filling one of two
// bitsets, whose bits a scan must clear before it marks its own, and
// every worm strictly brighter than another, or NaN, ranks before the
// cut. After the scans each worm
// moves, and a second phase perturbs the luciferin and prepares the
// same scan again, so the ranking carried over from the first phase is
// repaired rather than built from scratch, and the rows are rewritten.
func FuzzNeighborScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := &scanFeed{data: data}
		L := 2 + int(feed.next())%70
		n := 1 + int(feed.next())%6
		weighted := feed.next()&1 == 1
		pos := make([][]float64, L)
		luc := make([]float64, L)
		radius := make([]float64, L)
		var weight []float64
		if weighted {
			weight = make([]float64, L)
		}
		for i := range pos {
			pos[i] = make([]float64, n)
			for d := range pos[i] {
				pos[i][d] = feed.value(scanFuzzValues)
			}
			luc[i] = feed.value(scanFuzzValues)
			radius[i] = feed.value(scanFuzzRadii)
			if weighted {
				weight[i] = feed.value(scanFuzzValues)
			}
		}
		scan := newRankedScan(L, n)
		words := [2][]uint64{make([]uint64, (L+63)/64), make([]uint64, (L+63)/64)}
		var gotNb, wantNb []int
		var gotW, wantW []float64
		for phase := 0; phase < 2; phase++ {
			if phase == 1 {
				for i := range luc {
					switch feed.next() % 4 {
					case 1:
						luc[i] = feed.value(scanFuzzValues)
					case 2:
						luc[i] = luc[(i+1)%L] // a tie with the next worm
					case 3:
						luc[i] = -luc[i]
					}
				}
			}
			scan.prepare(luc, pos)
			for i := range luc {
				for j := range luc {
					if j != i && !(luc[j] <= luc[i]) && !scan.candidate(j) {
						t.Fatalf("phase %d: worm %d is a candidate of worm %d but ranks %d, at or past the cut %d",
							phase, j, i, scan.rank[j], scan.cut)
					}
				}
			}
			next := make([][]float64, L)
			for i := range pos {
				gotNb, gotW = gotNb[:0], gotW[:0]
				var gotT, wantT float64
				for j, wj := range neighbors(scan.within(i, radius[i], words[i%2]), i, luc, weight) {
					gotNb, gotW = append(gotNb, j), append(gotW, wj)
					gotT += wj
				}
				wantNb, wantW, wantT = referenceNeighbors(i, pos, luc, weight, radius[i], wantNb[:0], wantW[:0])
				if !slices.Equal(gotNb, wantNb) || !sameBits(gotW, wantW) || !sameBits([]float64{gotT}, []float64{wantT}) {
					t.Fatalf("phase %d, worm %d: neighbours %v weights %v sum %v, want %v %v %v",
						phase, i, gotNb, gotW, gotT, wantNb, wantW, wantT)
				}
				// Move the worm onto its last neighbour, or a pool value.
				next[i] = slices.Clone(pos[i])
				if len(wantNb) > 0 {
					copy(next[i], pos[wantNb[len(wantNb)-1]])
				} else {
					next[i][0] = feed.value(scanFuzzValues)
				}
			}
			pos = next
		}
	})
}

// freshRanking ranks luc from scratch with the comparator the ranking
// is defined by — NaN first, then descending luciferin, ties by worm
// index — and derives each rank's candidate prefix from luciferin
// comparisons, and the cut as the longest prefix.
func freshRanking(luc []float64) (order, prefix []int32, cut int32) {
	L := int32(len(luc))
	order = make([]int32, L)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		la, lb := luc[a], luc[b]
		if an, bn := la != la, lb != lb; an != bn {
			if an {
				return -1
			}
			return 1
		}
		switch {
		case la > lb:
			return -1
		case la < lb:
			return 1
		}
		return cmp.Compare(a, b)
	})
	prefix = make([]int32, L)
	for k, i := range order {
		switch {
		case math.IsNaN(luc[i]):
			prefix[k] = L
		case k > 0 && luc[order[k-1]] == luc[i]:
			prefix[k] = prefix[k-1]
		default:
			prefix[k] = int32(k)
		}
	}
	return order, prefix, slices.Max(prefix)
}

// TestCarriedRanking: preparing a scan ranked on prev with next gives
// the ranking, candidate prefixes, cut and pair count a fresh sort of
// next does.
func TestCarriedRanking(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	tests := []struct {
		name       string
		prev, next []float64
	}{
		{"first ranking", nil, []float64{0.5, 2, 1, 2, 0}},
		{"unchanged", []float64{3, 2, 1}, []float64{3, 2, 1}},
		{"reversed", []float64{1, 2, 3, 4, 5, 6, 7, 8}, []float64{8, 7, 6, 5, 4, 3, 2, 1}},
		{"small drift", []float64{1, 2, 3, 4, 5}, []float64{1.1, 1.9, 3.2, 3.1, 5}},
		{"all equal", []float64{5, 4, 3, 2, 1}, []float64{1, 1, 1, 1, 1}},
		{"equal to distinct", []float64{1, 1, 1, 1}, []float64{1, 4, 2, 3}},
		{"nan mix", []float64{1, 2, 3, 4, 5}, []float64{2, nan, -1, nan, 7}},
		{"nan leaves", []float64{nan, 1, nan, 2}, []float64{3, 1, 2, nan}},
		{"all nan", []float64{1, 2, 3}, []float64{nan, nan, nan}},
		{"signed zeros tie", []float64{1, 2, 3, 4}, []float64{0, negZero, 0, negZero}},
		{"signed zeros among values", []float64{negZero, 0, 1, -1}, []float64{-1, 0, negZero, 1}},
		{"infinities", []float64{1, 2, 3, 4, 5}, []float64{-inf, inf, 0, inf, -inf}},
		{"everything", []float64{nan, inf, -inf, 0, negZero, 1}, []float64{negZero, -inf, nan, inf, 0, -inf}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			L := len(tt.next)
			pos := make([][]float64, L)
			for i := range pos {
				pos[i] = []float64{float64(i)}
			}
			s := newRankedScan(L, 1)
			if tt.prev != nil {
				s.prepare(tt.prev, pos)
			}
			s.prepare(tt.next, pos)
			order, prefix, cut := freshRanking(tt.next)
			if !slices.Equal(s.order, order) || !slices.Equal(s.prefix, prefix) || s.cut != cut {
				t.Errorf("carried ranking %v prefixes %v cut %d, fresh %v %v %d", s.order, s.prefix, s.cut, order, prefix, cut)
			}
			var pairs int
			for _, m := range prefix {
				pairs += int(m)
			}
			if s.pairs != pairs {
				t.Errorf("%d pairs, want the prefixes' sum %d", s.pairs, pairs)
			}
			for k, i := range order {
				if s.rank[i] != int32(k) || s.rows[k] != pos[i][0] {
					t.Errorf("worm %d: rank %d row %v, want %d %v", i, s.rank[i], s.rows[k], k, pos[i][0])
				}
			}
		})
	}
}

// scanFeed streams fuzz bytes, yielding 0 once exhausted.
type scanFeed struct {
	data []byte
	pos  int
}

func (f *scanFeed) next() byte {
	if f.pos >= len(f.data) {
		return 0
	}
	b := f.data[f.pos]
	f.pos++
	return b
}

func (f *scanFeed) value(pool []float64) float64 { return pool[int(f.next())%len(pool)] }

// BenchmarkSwarmMove times whole runs at the paper's default budget
// (L = 200, T = 100) on a cheap analytic objective, so the movement
// phase dominates; n = 4 is the [x, l] space of a 2-D filter, run on
// one worker and on two, where the phase's scan shards.
func BenchmarkSwarmMove(b *testing.B) {
	bench := func(b *testing.B, n, workers int) {
		p := DefaultParams()
		p.Glowworms, p.MaxIters, p.Workers = 200, 100, workers
		bounds := geom.Unit(n)
		b.ReportAllocs()
		for range b.N {
			if _, err := Run(p, bounds, ObjectiveFunc(sphereFn), Options{InvalidWalk: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, n := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n != 4 {
				bench(b, n, 1)
				return
			}
			for _, w := range []int{1, 2} {
				b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) { bench(b, n, w) })
			}
		})
	}
}
