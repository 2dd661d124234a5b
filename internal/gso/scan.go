package gso

import (
	"iter"
	"math"
	"math/bits"
)

// rankedScan finds each worm's neighbour set for the movement phase:
// the worms j ≠ i with !(ℓ_j ≤ ℓ_i) whose distance to i is at most the
// decision radius r_i.
//
// Luciferin and positions are fixed for the whole phase: every worm
// moves from the phase's start positions. So the swarm is ranked once
// per iteration, brightest first. A worm's candidates are then a prefix
// of the ranking: every NaN-luciferin worm (ranked first) and every
// strictly brighter one. A NaN-luciferin worm compares false against
// everything, so its prefix is the whole swarm. The start positions
// are copied into rank order too, so a scan streams through one flat
// array; the rows are frozen for the phase and rewritten only by the
// next prepare.
//
// Luciferin drifts little from one iteration to the next, so each
// ranking starts from the previous one and is repaired by an insertion
// sort on one integer key per worm (see rankKey), which is close to
// linear on a nearly sorted order.
//
// Nothing in a scan writes to the ranked state, so scans of different
// worms may run concurrently. Each scan marks neighbours in a bitset
// over worm indices that its caller passes in, and the walk of that
// bitset emits them in ascending index, which is the order the
// roulette selection and its weight sum depend on.
//
// The union of all candidate prefixes is the rank prefix [0, cut): a
// worm ranked at or past the cut, in the dimmest tie group, is no
// worm's candidate for the whole phase, so no roulette reads its
// selection weight.
type rankedScan struct {
	n      int
	order  []int32   // worm indices by rank: NaN first, then descending luciferin, ties by index
	keys   []uint64  // keys[k] is rankKey of worm order[k]'s luciferin
	rank   []int32   // rank[i] is worm i's index in order
	prefix []int32   // ranks [0, prefix[k]) are the candidates of rank k
	cut    int32     // the largest prefix: ranks [cut, L) are nobody's candidates
	pairs  int       // Σ prefix: the pairs the phase's scans test
	rows   []float64 // start-of-phase positions in rank order, n coordinates per row
}

func newRankedScan(worms, dims int) *rankedScan {
	s := &rankedScan{
		n:      dims,
		order:  make([]int32, worms),
		keys:   make([]uint64, worms),
		rank:   make([]int32, worms),
		prefix: make([]int32, worms),
		rows:   make([]float64, worms*dims),
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

// prepare ranks the swarm by luc, sets the candidate prefixes, the cut
// and the pair count, and copies pos into rank order. It must run after
// the luciferin update and before the first scan of a movement phase.
// The ranking is (key, worm index) ascending — NaN first, then
// descending luciferin, ties by index — reached by an insertion sort of
// the previous ranking. The cut is the first rank of the dimmest tie group, or L
// when any luciferin is NaN.
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
	s.pairs = 0
	for k := int32(0); k < L; {
		if keys[k] == 0 {
			s.prefix[k] = L // NaN
			s.pairs += int(L)
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
		s.pairs += int(k) * int(end-k)
		k = end
	}
	// No prefix passes the dimmest group's start, the last rank's
	// prefix, except a NaN worm's, which is the whole swarm.
	s.cut = s.prefix[L-1]
	if keys[0] == 0 {
		s.cut = L
	}
	for k, i := range order {
		s.rank[i] = int32(k)
		copy(s.rows[k*s.n:(k+1)*s.n], pos[i])
	}
}

// candidate reports whether worm i is in some worm's candidate prefix
// this phase, i.e. ranks before the cut.
func (s *rankedScan) candidate(i int) bool { return s.rank[i] < s.cut }

// within fills words, a bitset over worm indices, with worm i's
// candidates at distance at most r, and returns it. The distance is
// compared as a squared sum, accumulated in dimension order as dist
// does; only pairs in the narrow band where rounding could flip the
// comparison, or every pair when r² is not a normal float, take dist's
// Sqrt. A NaN squared distance compares as
// inside, as Sqrt(NaN) > r is false.
func (s *rankedScan) within(i int, r float64, words []uint64) []uint64 {
	clear(words)
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
			words[j>>6] |= b2u(inside(ss, lo, hi, r)) << (j & 63)
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
			words[j>>6] |= b2u(inside(ss, lo, hi, r)) << (j & 63)
		}
	}
	// A NaN-luciferin worm's prefix includes itself.
	words[i>>6] &^= 1 << (i & 63)
	return words
}

// neighbors yields worm i's neighbours, the worms set in words, its
// bitset from within, in ascending index, with their roulette weights
// (ℓ_j − ℓ_i)·weight_j; weight nil means unit weights. Pairs whose
// weight is not positive are skipped.
func neighbors(words []uint64, i int, luc, weight []float64) iter.Seq2[int, float64] {
	return func(yield func(int, float64) bool) {
		for wi, word := range words {
			for ; word != 0; word &= word - 1 {
				j := wi<<6 | bits.TrailingZeros64(word)
				wj := luc[j] - luc[i]
				if weight != nil {
					wj *= weight[j]
				}
				if wj <= 0 {
					continue
				}
				if !yield(j, wj) {
					return
				}
			}
		}
	}
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

// minShardPairs is the fewest pair tests a shard of the movement
// phase's scan takes. Handing a shard to a goroutine on another CPU
// costs about as much as a few thousand pair tests: on a 2-vCPU x86-64
// host, sharding a 100-worm swarm's scan (at most 4,950 pairs) made
// runs slower, and sharding a 200-worm swarm's (at most 19,900) made
// them faster.
const minShardPairs = 4096

// mover holds the movement phase's state beside the ranked scan: every
// worm's neighbour bitset and roulette weight sum, which scanAll fills
// on the workers.
//
// Worm i's bitset is row i of one array, written only by the worker
// that scans worm i. A worker's worms are contiguous, so two workers
// can meet on a cache line only at a shard boundary, at opposite ends
// of their shards. A bitset per worker, reused worm after worm, would
// need padding to its own cache lines: on a 2-vCPU x86-64 host, two
// workers' 32-byte bitsets packed back to back shared a line that both
// wrote at every pair test, and within's self time doubled.
type mover struct {
	*rankedScan
	workers int
	nw      int       // bitset words per worm
	words   []uint64  // worm i's neighbours at words[i*nw : (i+1)*nw]
	total   []float64 // worm i's roulette weight sum, 0 without neighbours
}

func newMover(workers, worms, dims int) *mover {
	nw := (worms + 63) / 64
	return &mover{
		rankedScan: newRankedScan(worms, dims),
		workers:    workers,
		nw:         nw,
		words:      make([]uint64, worms*nw),
		total:      make([]float64, worms),
	}
}

// row is worm i's neighbour bitset.
func (m *mover) row(i int) []uint64 { return m.words[i*m.nw : (i+1)*m.nw : (i+1)*m.nw] }

// scanAll finds every worm's neighbours and roulette weight sum from
// the phase's frozen ranking and start positions, and adapts each
// radius from the number of neighbours:
// r_i ← min{r_s, max{0, r_i + β(n_t − |N_i|)}}. The worms are split
// into contiguous shards, one per worker, but no more shards than the
// phase has minShardPairs pair tests for. Each worm's scan reads only
// frozen state and writes only worm i's entries, so the result does
// not depend on the sharding.
func (m *mover) scanAll(radius, luc, weight []float64, sensor float64) {
	workers := max(1, min(m.workers, m.pairs/minShardPairs))
	sharded(len(m.total), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var count int
			var total float64
			for _, wj := range neighbors(m.within(i, radius[i], m.row(i)), i, luc, weight) {
				count++
				total += wj
			}
			m.total[i] = total
			radius[i] = math.Min(sensor, math.Max(0, radius[i]+beta*(desiredNeighbors-float64(count))))
		}
	})
}

// roulette returns the neighbour of worm i that a roulette over the
// weights scanAll summed selects for pick, drawn from [0, total): the
// first whose cumulative weight reaches pick, or the last when pick
// passes them all.
func (m *mover) roulette(i int, pick float64, luc, weight []float64) int {
	sel := -1
	var cum float64
	for j, wj := range neighbors(m.row(i), i, luc, weight) {
		sel = j
		cum += wj
		if pick <= cum {
			break
		}
	}
	return sel
}
