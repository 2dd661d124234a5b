package core

import (
	"math"

	"surf/internal/geom"
	"surf/internal/gso"
)

// Progressive region delivery. The final extraction (extractRegions)
// only runs once the swarm has converged; interactive callers want
// incumbent regions the moment a cluster of worms settles on one.
// incumbentTracker implements that: every emitEvery iterations it
// reduces the live swarm to candidate regions with the same greedy
// best-first IoU clustering the final extraction uses (greedyCluster,
// shared so the two cannot diverge), and a candidate that survives
// stableChecks consecutive sweeps — its cluster has stopped drifting
// — is delivered through OnRegion. Deliveries are incumbents, not
// final answers: the converged-swarm extraction at the end of the run
// remains authoritative, and a cluster that later dissolves is simply
// never re-confirmed.
type incumbentTracker struct {
	finder  *Finder
	cfg     FinderConfig
	emit    func(Region)
	pending []pendingCand
	emitted []geom.Rect
}

// pendingCand is a candidate region observed in the latest sweep with
// the number of consecutive sweeps it has persisted.
type pendingCand struct {
	clusteredCand
	streak int
}

// sweep reduces the current swarm view to candidate regions and
// advances the persistence streaks. Fitness values come from the
// iteration's own evaluation (no re-evaluation cost); positions have
// drifted at most one movement step since, which the stability
// requirement absorbs.
func (tr *incumbentTracker) sweep(view gso.SwarmView) {
	var cands []swarmCand
	for i, fit := range view.Fitness {
		if !view.Valid[i] || math.IsNaN(fit) {
			continue
		}
		cands = append(cands, swarmCand{vec: view.Positions[i], fit: fit})
	}
	clustered := greedyCluster(cands, tr.finder.domain, tr.cfg.MaxRegions)

	// Advance streaks against the previous sweep and drop candidates
	// overlapping an already-delivered region.
	var kept []pendingCand
	for _, c := range clustered {
		if tr.overlapsEmitted(c.rect) {
			continue
		}
		streak := 1
		for _, prev := range tr.pending {
			if prev.rect.IoU(c.rect) >= dedupeIoU {
				streak = prev.streak + 1
				break
			}
		}
		if streak >= stableChecks {
			tr.emitted = append(tr.emitted, c.rect)
			tr.emit(Region{
				Rect:     c.rect,
				Score:    c.score,
				Estimate: tr.finder.estimates([][]float64{c.vec})[0],
				Worms:    c.worms,
			})
			continue
		}
		// vec aliases the optimizer's live position buffers; copy what
		// outlives the callback. The clipped rect is already a fresh
		// allocation.
		c.vec = append([]float64(nil), c.vec...)
		kept = append(kept, pendingCand{clusteredCand: c, streak: streak})
	}
	tr.pending = kept
}

func (tr *incumbentTracker) overlapsEmitted(rect geom.Rect) bool {
	for _, e := range tr.emitted {
		if e.IoU(rect) >= dedupeIoU {
			return true
		}
	}
	return false
}
