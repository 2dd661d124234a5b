package gso

import (
	"math"
	"math/bits"
)

// rankedScan finds each worm's neighbour set for the movement phase:
// the worms j ≠ i with !(ℓ_j ≤ ℓ_i) whose distance to i is at most the
// decision radius r_i.
//
// Luciferin is fixed for the whole phase, so the swarm is ranked once
// per iteration, brightest first. A worm's candidates are then a prefix
// of the ranking: every NaN-luciferin worm (ranked first) and every
// strictly brighter one. A NaN-luciferin worm compares false against
// everything, so its prefix is the whole swarm. Positions are kept in
// rank order too, so a scan streams through one flat array; a worm's
// row is rewritten whenever it moves, so later worms see moved
// positions exactly as an all-pairs scan over the live positions does.
//
// Luciferin drifts little from one iteration to the next, so each
// ranking starts from the previous one and is repaired by an insertion
// sort on one integer key per worm (see rankKey), which is close to
// linear on a nearly sorted order.
//
// The scan marks neighbours in a bitset over worm indices and the
// walk of that bitset emits them in ascending index, which is the
// order the roulette selection and its weight sum depend on.
type rankedScan struct {
	n      int
	order  []int32   // worm indices by rank: NaN first, then descending luciferin, ties by index
	keys   []uint64  // keys[k] is rankKey of worm order[k]'s luciferin
	rank   []int32   // rank[i] is worm i's index in order
	prefix []int32   // ranks [0, prefix[k]) are the candidates of rank k
	rows   []float64 // positions in rank order, n coordinates per row
	words  []uint64  // neighbour bitset over worm indices
}

func newRankedScan(worms, dims int) *rankedScan {
	s := &rankedScan{
		n:      dims,
		order:  make([]int32, worms),
		keys:   make([]uint64, worms),
		rank:   make([]int32, worms),
		prefix: make([]int32, worms),
		rows:   make([]float64, worms*dims),
		words:  make([]uint64, (worms+63)/64),
	}
	for i := range s.order {
		s.order[i] = int32(i)
	}
	return s
}

// rankKey maps luciferin to a key whose ascending order is the
// ranking's: NaN first as 0, then the other values in descending
// order, −0 and +0 tying as they compare equal. Flipping the sign bit
// of a non-negative float and every bit of a negative one orders the
// bits as the floats; the complement reverses that order and leaves
// every non-NaN key above 0.
func rankKey(v float64) uint64 {
	if v != v {
		return 0
	}
	if v == 0 {
		v = 0 // −0 ties with +0
	}
	b := math.Float64bits(v)
	if b>>63 == 0 {
		return ^(b | 1<<63)
	}
	return b
}

// prepare ranks the swarm by luc and copies pos into rank order. It
// must run after the luciferin update and before the first scan of a
// movement phase. The ranking is (key, worm index) ascending — NaN
// first, then descending luciferin, ties by index — reached by an
// insertion sort of the previous ranking.
func (s *rankedScan) prepare(luc []float64, pos [][]float64) {
	order, keys := s.order, s.keys
	for k, i := range order {
		keys[k] = rankKey(luc[i])
	}
	for k := 1; k < len(order); k++ {
		i, key := order[k], keys[k]
		q := k
		for ; q > 0 && (keys[q-1] > key || keys[q-1] == key && order[q-1] > i); q-- {
			order[q], keys[q] = order[q-1], keys[q-1]
		}
		order[q], keys[q] = i, key
	}
	L := int32(len(order))
	for k := int32(0); k < L; {
		if keys[k] == 0 {
			s.prefix[k] = L // NaN
			k++
			continue
		}
		// Ranks [k, end) tie with rank k; ranks [0, k) are brighter.
		end := k + 1
		for end < L && keys[end] == keys[k] {
			end++
		}
		for q := k; q < end; q++ {
			s.prefix[q] = k
		}
		k = end
	}
	for k, i := range order {
		s.rank[i] = int32(k)
		copy(s.rows[k*s.n:(k+1)*s.n], pos[i])
	}
}

// moved records worm i's new position.
func (s *rankedScan) moved(i int, p []float64) {
	k := int(s.rank[i])
	copy(s.rows[k*s.n:(k+1)*s.n], p)
}

// within returns the bitset of worm i's candidates at distance at
// most r. The distance is compared as a squared sum, accumulated in
// dimension order as dist does; only pairs in the narrow band where
// rounding could flip the comparison, or every pair when r² is not a
// normal float, take dist's Sqrt. A NaN squared distance compares as
// inside, as Sqrt(NaN) > r is false.
func (s *rankedScan) within(i int, r float64) []uint64 {
	clear(s.words)
	k := int(s.rank[i])
	n := s.n
	p := s.rows[k*n : (k+1)*n]
	lo, hi := distBand(r)
	m := int(s.prefix[k])
	if n == 4 {
		// The [x, l] space of a 2-D filter, with the point in registers.
		p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
		rows := s.rows[:4*m]
		for q, j := range s.order[:m] {
			row := rows[4*q : 4*q+4 : 4*q+4]
			d0, d1, d2, d3 := p0-row[0], p1-row[1], p2-row[2], p3-row[3]
			ss := d0 * d0
			ss += d1 * d1
			ss += d2 * d2
			ss += d3 * d3
			s.words[j>>6] |= b2u(inside(ss, lo, hi, r)) << (j & 63)
		}
	} else {
		rows := s.rows[:n*m]
		for q, j := range s.order[:m] {
			row := rows[n*q : n*q+n]
			var ss float64
			for d, v := range p {
				dd := v - row[d]
				ss += dd * dd
			}
			s.words[j>>6] |= b2u(inside(ss, lo, hi, r)) << (j & 63)
		}
	}
	// A NaN-luciferin worm's prefix includes itself.
	s.words[i>>6] &^= 1 << (i & 63)
	return s.words
}

// neighbors returns worm i's neighbours in ascending index with their
// roulette weights (ℓ_j − ℓ_i)·weight_j and the weights' sum, appending
// to nb and w; weight nil means unit weights. Pairs whose weight is
// not positive are dropped.
func (s *rankedScan) neighbors(i int, r float64, luc, weight []float64, nb []int, w []float64) ([]int, []float64, float64) {
	var total float64
	for wi, word := range s.within(i, r) {
		for ; word != 0; word &= word - 1 {
			j := wi<<6 | bits.TrailingZeros64(word)
			wj := luc[j] - luc[i]
			if weight != nil {
				wj *= weight[j]
			}
			if wj <= 0 {
				continue
			}
			nb = append(nb, j)
			w = append(w, wj)
			total += wj
		}
	}
	return nb, w, total
}

// inside reports !(Sqrt(ss) > r) for the squared distance ss, given
// distBand(r).
func inside(ss, lo, hi, r float64) bool {
	out := ss > hi
	if ss > lo && !out {
		out = math.Sqrt(ss) > r
	}
	return !out
}

// distBand returns the squared-distance band (lo, hi] outside which
// comparing a squared distance s² against r² decides dist > r without
// a Sqrt: s² ≤ lo is inside and s² > hi outside. The 2⁻⁴⁶ relative
// margin dwarfs the rounding of r², of the bounds and of a correctly
// rounded Sqrt (2⁻⁵³ each), so no decision outside the band can
// differ from Sqrt(s²) > r. For r = 0 the test is exactly s² > 0. When
// r² is not a normal float the band is everything, so every pair takes
// the Sqrt.
func distBand(r float64) (lo, hi float64) {
	const minNormal = 0x1p-1022
	switch r2 := r * r; {
	case r == 0:
		return 0, 0
	case r2 >= minNormal && r2 <= math.MaxFloat64:
		return r2 * (1 - 0x1p-46), r2 * (1 + 0x1p-46)
	}
	return math.Inf(-1), math.Inf(1)
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a
// flag set, without a branch.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}
