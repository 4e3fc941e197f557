package topk

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func smallDB(t *testing.T) *Database {
	t.Helper()
	db, err := FromColumns([][]float64{
		{0.9, 0.3, 0.6, 0.1},
		{0.2, 0.8, 0.7, 0.1},
		{0.5, 0.5, 0.9, 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFromColumns(t *testing.T) {
	db := smallDB(t)
	if db.M() != 3 || db.N() != 4 {
		t.Fatalf("M=%d N=%d, want 3, 4", db.M(), db.N())
	}
	if got := db.LocalScore(1, 1); got != 0.8 {
		t.Errorf("LocalScore(1,1) = %v, want 0.8", got)
	}
	if got := db.PositionOf(0, 0); got != 1 {
		t.Errorf("PositionOf(0,0) = %v, want 1", got)
	}
	if db.NameOf(2) != "item2" {
		t.Errorf("NameOf(2) = %q, want synthesized name", db.NameOf(2))
	}
	if _, ok := db.IDOf("anything"); ok {
		t.Error("IDOf should miss without a dictionary")
	}
}

func TestFromColumnsErrors(t *testing.T) {
	if _, err := FromColumns(nil); err == nil {
		t.Error("nil columns accepted")
	}
	if _, err := FromColumns([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged columns accepted")
	}
}

func TestTopKDefaultsToBPA2AndSum(t *testing.T) {
	db := smallDB(t)
	res, err := db.Exec(context.Background(), Query{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != BPA2 {
		t.Errorf("default algorithm = %v, want BPA2", res.Algorithm)
	}
	// Overall sums: item0=1.6, item1=1.6, item2=2.2, item3=0.3.
	if res.Items[0].Item != 2 || math.Abs(res.Items[0].Score-2.2) > 1e-12 {
		t.Errorf("top answer = %+v, want item 2 score 2.2", res.Items[0])
	}
	// Tie between items 0 and 1 at 1.6: ascending ID wins.
	if res.Items[1].Item != 0 {
		t.Errorf("second answer = %+v, want item 0 (tie-break)", res.Items[1])
	}
	if res.Stats.TotalAccesses() == 0 || res.Stats.Cost <= 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	if res.Stats.Duration <= 0 {
		t.Error("duration not measured")
	}
}

func TestTopKAllAlgorithmsAgree(t *testing.T) {
	db := smallDB(t)
	want, err := db.Oracle(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		res, err := db.Exec(context.Background(), Query{K: 3, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for i := range want {
			if res.Items[i].Score != want[i].Score {
				t.Errorf("%v answer %d = %+v, want score %v", alg, i, res.Items[i], want[i].Score)
			}
		}
	}
}

func TestTopKValidation(t *testing.T) {
	db := smallDB(t)
	for _, k := range []int{0, -1, 5} {
		if _, err := db.Exec(context.Background(), Query{K: k}); err == nil {
			t.Errorf("K=%d accepted", k)
		}
	}
	if _, err := db.Exec(context.Background(), Query{K: 1, Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

type badScoring struct{}

func (badScoring) Combine(xs []float64) float64 { return -xs[0] }
func (badScoring) Name() string                 { return "bad" }

func TestCheckMonotoneRejectsBadScoring(t *testing.T) {
	db := smallDB(t)
	if _, err := db.Exec(context.Background(), Query{K: 1, Scoring: badScoring{}, CheckMonotone: true}); err == nil {
		t.Error("non-monotone scoring accepted with CheckMonotone")
	}
	// Without the check it runs (and may return garbage) — documented.
	if _, err := db.Exec(context.Background(), Query{K: 1, Scoring: badScoring{}}); err != nil {
		t.Errorf("unexpected error without check: %v", err)
	}
	// A monotone function passes the check.
	if _, err := db.Exec(context.Background(), Query{K: 1, Scoring: Sum(), CheckMonotone: true}); err != nil {
		t.Errorf("Sum rejected by monotonicity check: %v", err)
	}
}

func TestScoringHelpers(t *testing.T) {
	db := smallDB(t)
	for _, s := range []Scoring{Sum(), Avg(), Min(), Max()} {
		if _, err := db.Exec(context.Background(), Query{K: 2, Scoring: s}); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
	w, err := WeightedSum([]float64{1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(context.Background(), Query{K: 1, Scoring: w})
	if err != nil {
		t.Fatal(err)
	}
	// weighted: item0: .9+1.0=1.9, item1: .3+1.0=1.3, item2: .6+1.8=2.4.
	if res.Items[0].Item != 2 {
		t.Errorf("weighted top = %+v, want item 2", res.Items[0])
	}
	if _, err := WeightedSum([]float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestTrackers(t *testing.T) {
	db := smallDB(t)
	for _, tr := range []Tracker{BitArrayTracker, BPlusTreeTracker} {
		res, err := db.Exec(context.Background(), Query{K: 2, Algorithm: BPA, Tracker: tr})
		if err != nil {
			t.Fatalf("tracker %d: %v", tr, err)
		}
		if len(res.Stats.BestPositions) != db.M() {
			t.Errorf("tracker %d: best positions %v", tr, res.Stats.BestPositions)
		}
	}
}

func TestFromNamedScores(t *testing.T) {
	db, err := FromNamedScores([]map[string]float64{
		{"alpha": 3, "beta": 2, "gamma": 1},
		{"alpha": 1, "beta": 5}, // gamma missing -> 0
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if db.N() != 3 || db.M() != 2 {
		t.Fatalf("N=%d M=%d", db.N(), db.M())
	}
	id, ok := db.IDOf("beta")
	if !ok {
		t.Fatal("beta not in dictionary")
	}
	if db.NameOf(id) != "beta" {
		t.Errorf("NameOf(IDOf(beta)) = %q", db.NameOf(id))
	}
	res, err := db.Exec(context.Background(), Query{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[0].Name != "beta" { // beta: 2+5=7 beats alpha: 3+1=4
		t.Errorf("top answer = %+v, want beta", res.Items[0])
	}
	// gamma got the missing default in list 2.
	gid, _ := db.IDOf("gamma")
	if got := db.LocalScore(1, gid); got != 0 {
		t.Errorf("gamma in list 2 = %v, want 0", got)
	}
}

func TestFromNamedScoresErrors(t *testing.T) {
	if _, err := FromNamedScores(nil, 0); err == nil {
		t.Error("no lists accepted")
	}
	if _, err := FromNamedScores([]map[string]float64{{}}, 0); err == nil {
		t.Error("empty lists accepted")
	}
}

func TestGenerate(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: 100, M: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if db.N() != 100 || db.M() != 4 {
		t.Fatalf("N=%d M=%d", db.N(), db.M())
	}
	if _, err := Generate(GenSpec{Kind: GenCorrelated, N: 100, M: 4, Alpha: 2, Seed: 3}); err == nil {
		t.Error("bad alpha accepted")
	}
	if _, err := Generate(GenSpec{Kind: GenCorrelated, N: 50, M: 2, Alpha: 0.1, Seed: 1}); err != nil {
		t.Errorf("correlated: %v", err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("garbage")); err == nil {
		t.Error("garbage accepted by Load")
	}
	if _, err := LoadFile("/definitely/not/here"); err == nil {
		t.Error("missing file accepted by LoadFile")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\nx,y\n")); err == nil {
		t.Error("non-numeric CSV accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := smallDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != db.N() || got.M() != db.M() {
		t.Error("dimensions changed")
	}
	path := filepath.Join(t.TempDir(), "db.topk")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := smallDB(t)
	var buf bytes.Buffer
	if err := db.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != db.N() || got.M() != db.M() {
		t.Error("dimensions changed")
	}
}

func TestExecDistributedMatchesOracle(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: 200, M: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Oracle(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Protocols() {
		res, err := db.ExecDistributed(context.Background(), Query{K: 5}, p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Protocol != p {
			t.Errorf("protocol = %v, want %v", res.Protocol, p)
		}
		for i := range want {
			if res.Items[i].Score != want[i].Score {
				t.Errorf("%v answer %d score %v, want %v", p, i, res.Items[i].Score, want[i].Score)
			}
		}
		if res.Stats.Net.Messages == 0 || res.Stats.Net.TotalAccesses == 0 {
			t.Errorf("%v: stats empty: %+v", p, res.Stats)
		}
	}
}

func TestExecDistributedValidation(t *testing.T) {
	db := smallDB(t)
	if _, err := db.ExecDistributed(context.Background(), Query{K: 0}, DistBPA2); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := db.ExecDistributed(context.Background(), Query{K: 1}, Protocol(42)); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := db.ExecDistributed(context.Background(), Query{K: 1, Scoring: Min()}, TPUT); err == nil {
		t.Error("TPUT with Min accepted")
	}
}

func TestApproximationThroughFacade(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: 2000, M: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := db.Exec(context.Background(), Query{K: 10, Algorithm: TA})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := db.Exec(context.Background(), Query{K: 10, Algorithm: TA, Approximation: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if approx.Stats.TotalAccesses() > exact.Stats.TotalAccesses() {
		t.Errorf("θ=1.5 did more accesses: %d > %d",
			approx.Stats.TotalAccesses(), exact.Stats.TotalAccesses())
	}
	// θ guarantee relative to the exact answers: θ * every approximate
	// score >= the exact k-th score.
	kth := exact.Items[len(exact.Items)-1].Score
	for _, it := range approx.Items {
		if 1.5*it.Score < kth-1e-9 {
			t.Errorf("approximate item %v violates θ bound against exact k-th %v", it, kth)
		}
	}
	if _, err := db.Exec(context.Background(), Query{K: 10, Approximation: 0.9}); err == nil {
		t.Error("θ < 1 accepted")
	}
}

func TestStrings(t *testing.T) {
	if BPA2.String() != "BPA2" || Naive.String() != "Naive" || Algorithm(77).String() == "" {
		t.Error("algorithm strings")
	}
	if DistBPA2.String() != "dist-bpa2" || Protocol(77).String() == "" {
		t.Error("protocol strings")
	}
}

// TestPropertyFacadeMatchesOracle drives the public API end to end on
// random databases.
func TestPropertyFacadeMatchesOracle(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%40
		m := 1 + int(mRaw)%5
		k := 1 + int(kRaw)%n
		cols := make([][]float64, m)
		for i := range cols {
			col := make([]float64, n)
			for d := range col {
				col[d] = float64(rng.Intn(30))
			}
			cols[i] = col
		}
		db, err := FromColumns(cols)
		if err != nil {
			return false
		}
		want, err := db.Oracle(k, nil)
		if err != nil {
			return false
		}
		for _, alg := range Algorithms() {
			res, err := db.Exec(context.Background(), Query{K: k, Algorithm: alg})
			if err != nil {
				return false
			}
			for i := range want {
				if res.Items[i].Score != want[i].Score {
					t.Logf("%v: %v != %v (seed=%d)", alg, res.Items[i], want[i], seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
