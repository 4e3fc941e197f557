package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"topk/internal/access"
	"topk/internal/list"
	"topk/internal/score"
)

func TestAlgorithmStrings(t *testing.T) {
	cases := map[Algorithm]string{
		AlgNaive:      "Naive",
		AlgFA:         "FA",
		AlgTA:         "TA",
		AlgBPA:        "BPA",
		AlgBPA2:       "BPA2",
		Algorithm(42): "Algorithm(42)",
	}
	for alg, want := range cases {
		if got := alg.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", alg, got, want)
		}
	}
	if len(Algorithms()) != 5 {
		t.Errorf("Algorithms() = %v", Algorithms())
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	db := figure1DB(t)
	if _, err := Run(Algorithm(99), db, paperOpts()); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestOptionsValidation(t *testing.T) {
	db := figure1DB(t)
	cases := []struct {
		name string
		opts Options
	}{
		{"k too small", Options{K: 0, Scoring: score.Sum{}}},
		{"k too large", Options{K: db.N() + 1, Scoring: score.Sum{}}},
		{"nil scoring", Options{K: 1}},
	}
	for _, alg := range Algorithms() {
		for _, c := range cases {
			if _, err := Run(alg, db, c.opts); err == nil {
				t.Errorf("%v accepted %s", alg, c.name)
			}
		}
		if _, err := Run(alg, nil, paperOpts()); err == nil {
			t.Errorf("%v accepted nil database", alg)
		}
	}
}

func TestOracleValidation(t *testing.T) {
	db := figure1DB(t)
	if _, err := Oracle(nil, 1, score.Sum{}); err == nil {
		t.Error("nil db accepted")
	}
	if _, err := Oracle(db, 1, nil); err == nil {
		t.Error("nil scoring accepted")
	}
	if _, err := Oracle(db, 0, score.Sum{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Oracle(db, db.N()+1, score.Sum{}); err == nil {
		t.Error("k>n accepted")
	}
}

func TestFARejectsTooManyLists(t *testing.T) {
	cols := make([][]float64, faMaxLists+1)
	for i := range cols {
		cols[i] = []float64{1, 0}
	}
	db, err := list.FromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	_, err = FA(access.NewProbe(db), Options{K: 1, Scoring: score.Sum{}})
	if err == nil || !strings.Contains(err.Error(), "at most") {
		t.Fatalf("FA with %d lists: %v", faMaxLists+1, err)
	}
}

// TestKEqualsN forces the algorithms to return everything; all must
// terminate and agree with the oracle.
func TestKEqualsN(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := randomDB(rng, 12, 3)
	oracle, err := Oracle(db, 12, score.Sum{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		res, err := Run(alg, db, Options{K: 12, Scoring: score.Sum{}})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		assertSameAnswers(t, alg, res.Items, oracle)
	}
}

// TestSingleList (m=1): sorted access alone is enough; the threshold is
// the last seen score, so TA/BPA stop exactly at position k.
func TestSingleList(t *testing.T) {
	db, err := list.FromColumns([][]float64{{5, 9, 1, 7, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgTA, AlgBPA} {
		res, err := Run(alg, db, Options{K: 2, Scoring: score.Sum{}})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.StopPosition != 2 {
			t.Errorf("%v stop position = %d, want 2", alg, res.StopPosition)
		}
		if res.Counts.Random != 0 {
			t.Errorf("%v did %d random accesses with m=1", alg, res.Counts.Random)
		}
		if res.Items[0].Item != 1 || res.Items[0].Score != 9 {
			t.Errorf("%v top = %+v", alg, res.Items[0])
		}
	}
}

// TestSingleItem (n=1, k=1): the degenerate smallest instance.
func TestSingleItem(t *testing.T) {
	db, err := list.FromColumns([][]float64{{3}, {4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		res, err := Run(alg, db, Options{K: 1, Scoring: score.Sum{}})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Items) != 1 || res.Items[0].Score != 7 {
			t.Errorf("%v items = %v", alg, res.Items)
		}
	}
}

// TestAllTiedScores: every item identical; any k items are correct and
// all algorithms must stop at the first opportunity without error.
func TestAllTiedScores(t *testing.T) {
	cols := [][]float64{{2, 2, 2, 2}, {5, 5, 5, 5}}
	db, err := list.FromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		res, err := Run(alg, db, Options{K: 2, Scoring: score.Sum{}})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for _, it := range res.Items {
			if it.Score != 7 {
				t.Errorf("%v returned score %v, want 7", alg, it.Score)
			}
		}
	}
}

// TestRegressionBPA2Overshoot pins the counterexample to the paper's
// "same best positions" claim found by TestPropertyBPA2RoundsBound:
// BPA and BPA2 legitimately end with different best positions here, but
// all the paper's provable guarantees must hold.
func TestRegressionBPA2Overshoot(t *testing.T) {
	rng := rand.New(rand.NewSource(9094815724843001616))
	n, m, k := 22, 3, 19
	db := randomDB(rng, n, m)
	f := randomScoring(rng, m)
	opts := Options{K: k, Scoring: f}

	bpa, err := BPA(access.NewProbe(db), opts)
	if err != nil {
		t.Fatal(err)
	}
	pr := access.NewAuditedProbe(db)
	bpa2, err := BPA2(pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range bpa.BestPositions {
		if bpa.BestPositions[i] != bpa2.BestPositions[i] {
			same = false
		}
	}
	if same {
		t.Log("instance no longer distinguishes stop states (generator changed?)")
	}
	if bpa2.Counts.Total() > bpa.Counts.Total() {
		t.Errorf("Theorem 7 violated: %d > %d", bpa2.Counts.Total(), bpa.Counts.Total())
	}
	if err := pr.AssertSingleAccess(); err != nil {
		t.Errorf("Theorem 5 violated: %v", err)
	}
	oracle, err := Oracle(db, k, f)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, AlgBPA, bpa.Items, oracle)
	assertSameAnswers(t, AlgBPA2, bpa2.Items, oracle)
}

// TestConcurrentQueries checks that a Database is safe for concurrent
// read-only queries (run with -race).
func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	db := randomDB(rng, 60, 4)
	oracle, err := Oracle(db, 5, score.Sum{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		alg := Algorithms()[g%len(Algorithms())]
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := Run(alg, db, Options{K: 5, Scoring: score.Sum{}})
				if err != nil {
					errs <- err
					return
				}
				for j := range oracle {
					if res.Items[j].Score != oracle[j].Score {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestResultCost sanity-checks the cost computation against a hand
// computation.
func TestResultCost(t *testing.T) {
	res := &Result{Counts: access.Counts{Sorted: 10, Random: 5, Direct: 2}}
	model := access.CostModel{SortedCost: 1, RandomCost: 10, DirectCost: 20}
	if got := res.Cost(model); got != 10+50+40 {
		t.Errorf("Cost = %v, want 100", got)
	}
}
