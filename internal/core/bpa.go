package core

import (
	"topk/internal/access"
	"topk/internal/bestpos"
	"topk/internal/rank"
)

// BPA is the Best Position Algorithm (Section 4.1):
//
//  1. Sorted access in parallel to all m lists. For every item seen under
//     sorted access, random access to the other lists fetches both the
//     local score AND the position of the item there. All seen positions
//     are recorded per list.
//  2. The best position bpi of list i is the greatest seen position such
//     that every position in [1, bpi] is seen.
//  3. The stopping threshold is the best positions overall score
//     λ = f(s1(bp1), ..., sm(bpm)). When the answer set Y holds k items
//     with overall score >= λ, sorted access stops.
//
// Because bpi >= the current sorted-access depth, λ <= δ at every round,
// which is why BPA never stops later than TA (Lemma 1) while often
// stopping much earlier — up to (m-1) times (Lemma 3).
//
// Accounting follows Lemma 2 and the Section 5.1 worked example exactly:
// every sorted access triggers (m-1) random accesses, even when the item
// was already seen (over Figure 2 the paper counts 21 sorted and 42
// random accesses for BPA). Options.Memoize skips the redundant random
// accesses for already-seen items — the algorithm's step 1 "maintains"
// the seen scores and positions, so nothing needs re-fetching. Memoized
// BPA stops at exactly the same position with the same answers; only the
// random-access count drops. The paper's measured uniform-database gains
// of (m+6)/8 over TA are only reachable with memoization, while its
// Lemma 2 and Figure 2 example describe the non-memoized accounting; we
// reproduce both (TestFigure2MemoizedBPA).
func BPA(pr *access.Probe, opts Options) (*Result, error) {
	db := pr.DB()
	if err := opts.validate(db); err != nil {
		return nil, err
	}
	m, n := db.M(), db.N()
	f := opts.Scoring

	theta := opts.theta()
	y := rank.NewSet(opts.K)
	locals := make([]float64, m)
	bpScores := make([]float64, m)
	trackers := make([]bestpos.Tracker, m)
	for i := range trackers {
		trackers[i] = bestpos.New(opts.Tracker, n)
	}
	var seen []bool
	if opts.Memoize {
		seen = make([]bool, n)
	}

	res := &Result{Algorithm: AlgBPA}
	for pos := 1; pos <= n; pos++ {
		if err := opts.Interrupted(); err != nil {
			return nil, err
		}
		for i := 0; i < m; i++ {
			e := pr.Sorted(i, pos)
			trackers[i].MarkSeen(pos)
			if opts.Memoize && seen[e.Item] {
				continue // scores and positions already maintained
			}
			locals[i] = e.Score
			for j := 0; j < m; j++ {
				if j == i {
					continue
				}
				s, q := pr.Random(j, e.Item)
				locals[j] = s
				trackers[j].MarkSeen(q)
			}
			y.Add(e.Item, f.Combine(locals))
			if opts.Memoize {
				seen[e.Item] = true
			}
		}

		// λ from the best positions. Every tracker has Best() >= pos >= 1
		// because position pos of each list was just seen under sorted
		// access. The score at a best position was necessarily seen
		// (sorted, random, or direct), so reading it is not a new access.
		for i := 0; i < m; i++ {
			bpScores[i] = db.List(i).At(trackers[i].Best()).Score
		}
		lambda := f.Combine(bpScores)
		res.Threshold = lambda
		res.StopPosition = pos
		res.Rounds = pos
		stopped := y.AtLeast(lambda / theta)
		if opts.Observer != nil {
			bps := make([]int, m)
			for i := range trackers {
				bps[i] = trackers[i].Best()
			}
			observe(opts.Observer, pos, pos, lambda, y, bps, stopped)
		}
		if stopped {
			break
		}
	}

	res.BestPositions = make([]int, m)
	for i := range trackers {
		res.BestPositions[i] = trackers[i].Best()
	}
	res.Items = y.Slice()
	res.Counts = pr.Counts()
	return res, nil
}
