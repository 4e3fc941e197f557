package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"topk/internal/access"
	"topk/internal/bestpos"
	"topk/internal/list"
	"topk/internal/rank"
	"topk/internal/score"
)

// randomDB builds a small random database. Scores are small integers so
// ties occur often, exercising the deterministic tie-breaking. gaussian
// flips roughly a third of the databases to signed scores.
func randomDB(rng *rand.Rand, n, m int) *list.Database {
	cols := make([][]float64, m)
	signed := rng.Intn(3) == 0
	for i := range cols {
		col := make([]float64, n)
		for d := range col {
			col[d] = float64(rng.Intn(25))
			if signed {
				col[d] -= 12
			}
		}
		cols[i] = col
	}
	db, err := list.FromColumns(cols)
	if err != nil {
		panic(err)
	}
	return db
}

// randomScoring picks one of the monotone scoring functions.
func randomScoring(rng *rand.Rand, m int) score.Func {
	switch rng.Intn(4) {
	case 0:
		return score.Sum{}
	case 1:
		return score.Min{}
	case 2:
		return score.Max{}
	default:
		w := make([]float64, m)
		for i := range w {
			w[i] = float64(rng.Intn(4)) // zero weights allowed: still monotone
		}
		ws, err := score.NewWeightedSum(w)
		if err != nil {
			panic(err)
		}
		return ws
	}
}

// assertSameAnswers verifies that got is a correct top-k answer relative
// to the oracle: identical score multiset, and identical items above the
// k-th score (at the k-th score boundary, any tied item is a valid
// answer, so item identity is only enforced above it).
func assertSameAnswers(t *testing.T, alg Algorithm, got, oracle []rank.ScoredItem) bool {
	t.Helper()
	if len(got) != len(oracle) {
		t.Errorf("%v: got %d answers, want %d", alg, len(got), len(oracle))
		return false
	}
	kth := oracle[len(oracle)-1].Score
	for i := range oracle {
		if got[i].Score != oracle[i].Score {
			t.Errorf("%v: answer %d score = %v, want %v", alg, i, got[i].Score, oracle[i].Score)
			return false
		}
		if oracle[i].Score > kth && got[i].Item != oracle[i].Item {
			t.Errorf("%v: answer %d item = %d, want %d (score %v above k-th %v)",
				alg, i, got[i].Item, oracle[i].Item, oracle[i].Score, kth)
			return false
		}
	}
	return true
}

// TestPropertyAllAlgorithmsMatchOracle is the master correctness
// property: on random databases, every algorithm returns the oracle's
// top-k scores (Theorems 1 and 6 for BPA/BPA2; classic results for
// FA/TA).
func TestPropertyAllAlgorithmsMatchOracle(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%40
		m := 1 + int(mRaw)%6
		k := 1 + int(kRaw)%n
		db := randomDB(rng, n, m)
		f := randomScoring(rng, m)
		oracle, err := Oracle(db, k, f)
		if err != nil {
			t.Logf("oracle: %v", err)
			return false
		}
		ok := true
		for _, alg := range Algorithms() {
			res, err := Run(alg, db, Options{K: k, Scoring: f})
			if err != nil {
				t.Logf("%v: %v", alg, err)
				return false
			}
			ok = assertSameAnswers(t, alg, res.Items, oracle) && ok
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLemma1And2 checks Lemma 1 (BPA does no more sorted accesses
// than TA), Lemma 2 (same for random accesses), and Theorem 2 (BPA's
// execution cost never exceeds TA's).
func TestPropertyLemma1And2(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%40
		m := 1 + int(mRaw)%6
		k := 1 + int(kRaw)%n
		db := randomDB(rng, n, m)
		f := randomScoring(rng, m)
		opts := Options{K: k, Scoring: f}

		ta, err := TA(access.NewProbe(db), opts)
		if err != nil {
			return false
		}
		bpa, err := BPA(access.NewProbe(db), opts)
		if err != nil {
			return false
		}
		if bpa.Counts.Sorted > ta.Counts.Sorted {
			t.Logf("Lemma 1 violated: BPA sorted %d > TA sorted %d", bpa.Counts.Sorted, ta.Counts.Sorted)
			return false
		}
		if bpa.Counts.Random > ta.Counts.Random {
			t.Logf("Lemma 2 violated: BPA random %d > TA random %d", bpa.Counts.Random, ta.Counts.Random)
			return false
		}
		model := access.DefaultCostModel(n)
		if bpa.Cost(model) > ta.Cost(model) {
			t.Logf("Theorem 2 violated: BPA cost %v > TA cost %v", bpa.Cost(model), ta.Cost(model))
			return false
		}
		// Lemma 2's internal relation: #random = #sorted * (m-1) for both.
		if ta.Counts.Random != ta.Counts.Sorted*int64(m-1) {
			t.Logf("TA random/sorted relation violated: %v", ta.Counts)
			return false
		}
		if bpa.Counts.Random != bpa.Counts.Sorted*int64(m-1) {
			t.Logf("BPA random/sorted relation violated: %v", bpa.Counts)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTheorem5And7 checks Theorem 5 (BPA2 accesses every position
// at most once) and Theorem 7 (BPA2 does no more accesses than BPA), for
// every best-position tracker implementation.
func TestPropertyTheorem5And7(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw, kRaw uint8, trRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%40
		m := 1 + int(mRaw)%6
		k := 1 + int(kRaw)%n
		kinds := bestpos.Kinds()
		tracker := kinds[int(trRaw)%len(kinds)]
		db := randomDB(rng, n, m)
		f := randomScoring(rng, m)
		opts := Options{K: k, Scoring: f, Tracker: tracker}

		bpa, err := BPA(access.NewProbe(db), opts)
		if err != nil {
			return false
		}
		pr := access.NewAuditedProbe(db)
		bpa2, err := BPA2(pr, opts)
		if err != nil {
			return false
		}
		if err := pr.AssertSingleAccess(); err != nil {
			t.Logf("Theorem 5 violated (tracker %v): %v", tracker, err)
			return false
		}
		if bpa2.Counts.Total() > bpa.Counts.Total() {
			t.Logf("Theorem 7 violated: BPA2 %d > BPA %d accesses",
				bpa2.Counts.Total(), bpa.Counts.Total())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBPA2RoundsBound checks the provable core of the Section 5.1
// comparison: after round r BPA2 has seen every position in [1, r] of
// every list (each round advances every best position by at least one),
// so its seen-position set dominates BPA's at the same round and it must
// stop within BPA's stopping position. Note the paper's stronger informal
// claim — that both stop at exactly the same best positions — holds for
// the Figure 2 example (asserted in TestFigure2BPAvsBPA2) but not for
// every database: BPA2's deeper probes can cascade and overshoot BPA's
// final best positions; TestRegressionBPA2Overshoot pins a counterexample.
func TestPropertyBPA2RoundsBound(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%40
		m := 1 + int(mRaw)%6
		k := 1 + int(kRaw)%n
		db := randomDB(rng, n, m)
		f := randomScoring(rng, m)
		opts := Options{K: k, Scoring: f}

		bpa, err := BPA(access.NewProbe(db), opts)
		if err != nil {
			return false
		}
		bpa2, err := BPA2(access.NewProbe(db), opts)
		if err != nil {
			return false
		}
		if bpa2.Rounds > bpa.StopPosition {
			t.Logf("BPA2 took %d rounds, more than BPA's stop position %d (seed=%d n=%d m=%d k=%d)",
				bpa2.Rounds, bpa.StopPosition, seed, n, m, k)
			return false
		}
		// Each BPA2 round advances every list's best position by >= 1.
		for i, bp := range bpa2.BestPositions {
			if bp < bpa2.Rounds {
				t.Logf("list %d best position %d < rounds %d", i, bp, bpa2.Rounds)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMemoization checks the memoized variants of TA and BPA:
// memoization must not change the answers or the stopping position, and
// can only reduce random accesses (sorted accesses are identical).
func TestPropertyMemoization(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw, kRaw uint8, useBPA bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%40
		m := 1 + int(mRaw)%6
		k := 1 + int(kRaw)%n
		db := randomDB(rng, n, m)
		f := randomScoring(rng, m)
		run := TA
		if useBPA {
			run = BPA
		}

		plain, err := run(access.NewProbe(db), Options{K: k, Scoring: f})
		if err != nil {
			return false
		}
		memo, err := run(access.NewProbe(db), Options{K: k, Scoring: f, Memoize: true})
		if err != nil {
			return false
		}
		if plain.StopPosition != memo.StopPosition {
			t.Logf("memoized stops at %d, plain at %d (bpa=%v)", memo.StopPosition, plain.StopPosition, useBPA)
			return false
		}
		if memo.Counts.Sorted != plain.Counts.Sorted {
			t.Logf("memoization changed sorted accesses: %v != %v", memo.Counts.Sorted, plain.Counts.Sorted)
			return false
		}
		if memo.Counts.Random > plain.Counts.Random {
			t.Logf("memoized did more random accesses: %v > %v", memo.Counts.Random, plain.Counts.Random)
			return false
		}
		if len(plain.Items) != len(memo.Items) {
			return false
		}
		for i := range plain.Items {
			if plain.Items[i].Score != memo.Items[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyThresholdBounds checks the inequality chain behind Lemma 1:
// at stop time the final λ of BPA is no larger than the δ TA stopped
// with... not in general comparable at different positions, but both
// thresholds must lower-bound nothing ABOVE the k-th answer: every
// returned answer has score >= final threshold.
func TestPropertyThresholdBounds(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%39
		m := 1 + int(mRaw)%6
		k := 1 + int(kRaw)%n
		db := randomDB(rng, n, m)
		f := randomScoring(rng, m)
		for _, alg := range []Algorithm{AlgTA, AlgBPA, AlgBPA2} {
			res, err := Run(alg, db, Options{K: k, Scoring: f})
			if err != nil {
				return false
			}
			for _, it := range res.Items {
				if it.Score < res.Threshold && !math.IsInf(res.Threshold, 0) {
					t.Logf("%v returned item below final threshold: %v < %v", alg, it.Score, res.Threshold)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
