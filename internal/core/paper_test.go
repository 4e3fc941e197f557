package core

import (
	"testing"

	"topk/internal/access"
	"topk/internal/bestpos"
	"topk/internal/rank"
	"topk/internal/score"
)

// paperOpts is the query of Examples 1-3: k=3, f = sum of local scores.
func paperOpts() Options {
	return Options{K: 3, Scoring: score.Sum{}}
}

// wantTop3Fig1 is the answer over Figure 1: d8=71, then d3=70 and d5=70
// (tie broken by item ID under the library's deterministic ordering).
var wantTop3Fig1 = []rank.ScoredItem{
	{Item: d(8), Score: 71},
	{Item: d(3), Score: 70},
	{Item: d(5), Score: 70},
}

func assertItems(t *testing.T, got, want []rank.ScoredItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d items, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("item %d: got {d%d %v}, want {d%d %v}",
				i, got[i].Item+1, got[i].Score, want[i].Item+1, want[i].Score)
		}
	}
}

// TestExample1FA reproduces Example 1: over Figure 1, FA cannot stop
// before position 7 and stops at position 8, where 5 items (d1, d3, d5,
// d6, d8) have been seen in all lists.
func TestExample1FA(t *testing.T) {
	db := figure1DB(t)
	res, err := FA(access.NewProbe(db), paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.StopPosition != 8 {
		t.Errorf("FA stop position = %d, want 8", res.StopPosition)
	}
	assertItems(t, res.Items, wantTop3Fig1)
	if got := res.Counts.Sorted; got != 8*3 {
		t.Errorf("FA sorted accesses = %d, want 24", got)
	}
	// Phase 2 random accesses: d2 misses L1, d4 misses L2, d7 misses L3,
	// d9 misses L3, d13 misses L1 and L2 -> 6 random accesses.
	if got := res.Counts.Random; got != 6 {
		t.Errorf("FA random accesses = %d, want 6", got)
	}
}

// TestExample2TA reproduces Example 2: over Figure 1, TA stops at
// position 6 with threshold 63, having done 18 sorted and 36 random
// accesses (a total of 9 useless sorted accesses versus the position-3
// ideal).
func TestExample2TA(t *testing.T) {
	db := figure1DB(t)
	res, err := TA(access.NewProbe(db), paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.StopPosition != 6 {
		t.Errorf("TA stop position = %d, want 6", res.StopPosition)
	}
	if res.Threshold != 63 {
		t.Errorf("TA final threshold = %v, want 63", res.Threshold)
	}
	assertItems(t, res.Items, wantTop3Fig1)
	if got := res.Counts.Sorted; got != 18 {
		t.Errorf("TA sorted accesses = %d, want 18 (6 positions x 3 lists)", got)
	}
	if got := res.Counts.Random; got != 36 {
		t.Errorf("TA random accesses = %d, want 36 (18 x (m-1))", got)
	}
}

// TestExample3BPA reproduces Example 3: over Figure 1, BPA stops at
// position 3 — exactly the first position at which the top-k answers are
// all seen — with best positions bp1=9, bp2=9, bp3=6 and λ = 11+13+19 = 43.
func TestExample3BPA(t *testing.T) {
	db := figure1DB(t)
	for _, kind := range bestpos.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			opts := paperOpts()
			opts.Tracker = kind
			res, err := BPA(access.NewProbe(db), opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.StopPosition != 3 {
				t.Errorf("BPA stop position = %d, want 3", res.StopPosition)
			}
			if res.Threshold != 43 {
				t.Errorf("BPA final λ = %v, want 43", res.Threshold)
			}
			wantBP := []int{9, 9, 6}
			for i, bp := range res.BestPositions {
				if bp != wantBP[i] {
					t.Errorf("best position of list %d = %d, want %d", i+1, bp, wantBP[i])
				}
			}
			assertItems(t, res.Items, wantTop3Fig1)
			// Section 4.2: "With BPA, the number of sorted accesses and
			// random accesses is 3*3=9 and 9*2=18, respectively."
			if got := res.Counts.Sorted; got != 9 {
				t.Errorf("BPA sorted accesses = %d, want 9", got)
			}
			if got := res.Counts.Random; got != 18 {
				t.Errorf("BPA random accesses = %d, want 18", got)
			}
		})
	}
}

// TestExample3Lambdas replays BPA over Figure 1 position by position and
// checks the λ sequence the paper walks through: 88 at position 1, 84 at
// position 2, 43 at position 3.
func TestExample3Lambdas(t *testing.T) {
	db := figure1DB(t)
	// Run BPA to each position bound by restricting k so it cannot stop
	// early... instead we re-derive λ from the result of full runs: the
	// final λ is asserted in TestExample3BPA; here we check the earlier
	// thresholds via the tracker-level reasoning: P1={1,4,9} after
	// position 1 gives bp1=1, etc. This is a direct tracker test.
	type roundSpec struct {
		marks  [3][]int // positions marked per list during the round
		wantBP [3]int
	}
	rounds := []roundSpec{
		{marks: [3][]int{{1, 4, 9}, {1, 6, 8}, {1, 5, 8}}, wantBP: [3]int{1, 1, 1}},
		{marks: [3][]int{{2, 7, 8}, {2, 4, 9}, {2, 4, 6}}, wantBP: [3]int{2, 2, 2}},
		{marks: [3][]int{{3, 5, 6}, {3, 5, 7}, {3, 9, 10}}, wantBP: [3]int{9, 9, 6}},
	}
	trackers := [3]bestpos.Tracker{}
	for i := range trackers {
		trackers[i] = bestpos.NewBitArray(db.N())
	}
	wantLambda := []float64{88, 84, 43}
	for r, spec := range rounds {
		for i, ps := range spec.marks {
			for _, p := range ps {
				trackers[i].MarkSeen(p)
			}
		}
		lambda := 0.0
		for i := range trackers {
			if got := trackers[i].Best(); got != spec.wantBP[i] {
				t.Fatalf("round %d: bp%d = %d, want %d", r+1, i+1, got, spec.wantBP[i])
			}
			lambda += db.List(i).At(trackers[i].Best()).Score
		}
		if lambda != wantLambda[r] {
			t.Errorf("round %d: λ = %v, want %v", r+1, lambda, wantLambda[r])
		}
	}
}

// TestFigure2BPAvsBPA2 reproduces the Section 5.1 example: over Figure 2,
// BPA stops at position 7 for a total of 63 accesses, while BPA2 reaches
// the same answer with direct accesses to positions 1, 2, 3 and 7 only —
// 36 accesses, about half.
func TestFigure2BPAvsBPA2(t *testing.T) {
	db := figure2DB(t)
	opts := paperOpts()

	bpa, err := BPA(access.NewProbe(db), opts)
	if err != nil {
		t.Fatal(err)
	}
	if bpa.StopPosition != 7 {
		t.Errorf("BPA stop position = %d, want 7", bpa.StopPosition)
	}
	if got := bpa.Counts.Total(); got != 63 {
		t.Errorf("BPA total accesses = %d, want 63 (21 sorted + 42 random)", got)
	}

	pr := access.NewAuditedProbe(db)
	bpa2, err := BPA2(pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := bpa2.Counts.Total(); got != 36 {
		t.Errorf("BPA2 total accesses = %d, want 36 (12 direct + 24 random)", got)
	}
	if got := bpa2.Counts.Direct; got != 12 {
		t.Errorf("BPA2 direct accesses = %d, want 12", got)
	}
	if bpa2.Rounds != 4 {
		t.Errorf("BPA2 rounds = %d, want 4 (positions 1, 2, 3, 7)", bpa2.Rounds)
	}
	if err := pr.AssertSingleAccess(); err != nil {
		t.Errorf("BPA2 violated Theorem 5: %v", err)
	}

	// Both find the same top-3 of Figure 2: d3=70, d4=68, d6=66.
	want := []rank.ScoredItem{
		{Item: d(3), Score: 70},
		{Item: d(4), Score: 68},
		{Item: d(6), Score: 66},
	}
	assertItems(t, bpa.Items, want)
	assertItems(t, bpa2.Items, want)
}

// TestFigure2MemoizedBPA pins why the paper's measured BPA gains need
// memoization, on the paper's own example: over Figure 2, literal BPA does
// 21 sorted + 42 random accesses (the paper's numbers), while memoized
// BPA — same stop position 7, same answers — does only 24 random
// accesses: rounds 4-6 re-scan items d3/d5/d4, d7/d9/d2, d8/d1/d6 whose
// scores are already maintained, so only rounds 1-3 and 7 pay randoms.
func TestFigure2MemoizedBPA(t *testing.T) {
	db := figure2DB(t)
	opts := paperOpts()
	opts.Memoize = true
	res, err := BPA(access.NewProbe(db), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopPosition != 7 {
		t.Errorf("memoized BPA stop = %d, want 7", res.StopPosition)
	}
	if res.Counts.Sorted != 21 {
		t.Errorf("memoized BPA sorted = %d, want 21", res.Counts.Sorted)
	}
	if res.Counts.Random != 24 {
		t.Errorf("memoized BPA random = %d, want 24 (4 productive rounds x 3 items x 2 lists)", res.Counts.Random)
	}
	// Over Figure 1 the first three rounds see nine distinct items, so
	// memoization changes nothing: 9 sorted, 18 random, stop at 3.
	db1 := figure1DB(t)
	res1, err := BPA(access.NewProbe(db1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Counts.Sorted != 9 || res1.Counts.Random != 18 || res1.StopPosition != 3 {
		t.Errorf("memoized BPA over Figure 1: %v stop=%d, want 9/18 stop 3", res1.Counts, res1.StopPosition)
	}
}

// TestFigure2BPA2DirectPositions pins the paper's narration of the
// Section 5.1 example exactly: "If we apply BPA2, it does direct access
// to positions 1, 2, 3 and 7 in all lists". The probe's access trace
// shows precisely those direct probes, in round order, on every list.
func TestFigure2BPA2DirectPositions(t *testing.T) {
	db := figure2DB(t)
	pr := access.NewProbe(db)
	pr.EnableTrace()
	if _, err := BPA2(pr, paperOpts()); err != nil {
		t.Fatal(err)
	}
	wantPerList := []int{1, 2, 3, 7}
	got := map[int][]int{}
	for _, rec := range pr.Trace() {
		if rec.Mode == access.DirectAccess {
			got[rec.List] = append(got[rec.List], rec.Pos)
		}
	}
	for i := 0; i < db.M(); i++ {
		if len(got[i]) != len(wantPerList) {
			t.Fatalf("list %d direct positions = %v, want %v", i, got[i], wantPerList)
		}
		for j, p := range wantPerList {
			if got[i][j] != p {
				t.Errorf("list %d direct access %d at position %d, want %d", i, j+1, got[i][j], p)
			}
		}
	}
}

// TestFigure1AllAlgorithmsAgree checks that every algorithm returns the
// same answers over the Figure 1 database, and that the stopping-position
// ordering of the paper holds: BPA (3) < TA (6) < FA (8).
func TestFigure1AllAlgorithmsAgree(t *testing.T) {
	db := figure1DB(t)
	want, err := Oracle(db, 3, score.Sum{})
	if err != nil {
		t.Fatal(err)
	}
	assertItems(t, want, wantTop3Fig1)

	stops := map[Algorithm]int{}
	for _, alg := range Algorithms() {
		res, err := Run(alg, db, paperOpts())
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		assertItems(t, res.Items, want)
		stops[alg] = res.StopPosition
	}
	if !(stops[AlgBPA] < stops[AlgTA] && stops[AlgTA] < stops[AlgFA]) {
		t.Errorf("stop positions BPA=%d TA=%d FA=%d, want BPA < TA < FA",
			stops[AlgBPA], stops[AlgTA], stops[AlgFA])
	}
}
