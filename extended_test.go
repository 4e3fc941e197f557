package topk

import (
	"context"
	"strings"
	"testing"
)

func ballotDB(t *testing.T) *Database {
	t.Helper()
	db, err := FromColumns([][]float64{
		{30, 11, 26, 28, 17},
		{21, 28, 14, 13, 24},
		{14, 24, 30, 25, 29},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExtendedAlgorithmsFacade(t *testing.T) {
	ext := ExtendedAlgorithms()
	if len(ext) != 7 || ext[5] != NRA || ext[6] != CA {
		t.Fatalf("ExtendedAlgorithms() = %v", ext)
	}
	if NRA.String() != "NRA" || CA.String() != "CA" {
		t.Errorf("names: %q %q", NRA.String(), CA.String())
	}
}

// TestNRACASetCorrectness: NRA/CA through the facade return the same
// item set as the exact default, with valid lower-bound scores.
func TestNRACASetCorrectness(t *testing.T) {
	db := ballotDB(t)
	exact, err := db.Exec(context.Background(), Query{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{NRA, CA} {
		res, err := db.Exec(context.Background(), Query{K: 3, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Algorithm != alg {
			t.Errorf("Algorithm = %v, want %v", res.Algorithm, alg)
		}
		got := map[Item]bool{}
		for _, it := range res.Items {
			got[it.Item] = true
		}
		for _, it := range exact.Items {
			if !got[it.Item] {
				t.Errorf("%v: missing item %d (%s); got %+v", alg, it.Item, it.Name, res.Items)
			}
		}
		if alg == NRA && res.Stats.RandomAccesses != 0 {
			t.Errorf("NRA did %d random accesses", res.Stats.RandomAccesses)
		}
	}
}

func TestNRAFloorsThroughFacade(t *testing.T) {
	db := ballotDB(t)
	if _, err := db.Exec(context.Background(), Query{K: 1, Algorithm: NRA, Floors: []float64{0, 0}}); err == nil ||
		!strings.Contains(err.Error(), "floors") {
		t.Errorf("wrong-arity floors not rejected: %v", err)
	}
	res, err := db.Exec(context.Background(), Query{K: 1, Algorithm: NRA, Floors: []float64{0, 0, 0}})
	if err != nil {
		t.Fatalf("sound floors rejected: %v", err)
	}
	if len(res.Items) != 1 {
		t.Fatalf("Items = %+v", res.Items)
	}
}

func TestCAPeriodThroughFacade(t *testing.T) {
	db := ballotDB(t)
	if _, err := db.Exec(context.Background(), Query{K: 1, Algorithm: CA, CAPeriod: -2}); err == nil {
		t.Error("negative CA period accepted")
	}
	res, err := db.Exec(context.Background(), Query{K: 2, Algorithm: CA, CAPeriod: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 {
		t.Fatalf("Items = %+v", res.Items)
	}
}

// TestParallelQuery: Parallel runs give identical answers and counts.
func TestParallelQuery(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: 500, M: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{TA, BPA, BPA2} {
		seq, err := db.Exec(context.Background(), Query{K: 10, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		par, err := db.Exec(context.Background(), Query{K: 10, Algorithm: alg, Parallel: true})
		if err != nil {
			t.Fatalf("%v parallel: %v", alg, err)
		}
		if par.Stats.TotalAccesses() != seq.Stats.TotalAccesses() {
			t.Errorf("%v: parallel %d accesses != sequential %d",
				alg, par.Stats.TotalAccesses(), seq.Stats.TotalAccesses())
		}
		if len(par.Items) != len(seq.Items) {
			t.Fatalf("%v: item counts differ", alg)
		}
		for i := range par.Items {
			if par.Items[i] != seq.Items[i] {
				t.Errorf("%v: item %d %+v != %+v", alg, i, par.Items[i], seq.Items[i])
			}
		}
	}
	// Unsupported parallel combinations fail loudly.
	if _, err := db.Exec(context.Background(), Query{K: 1, Algorithm: FA, Parallel: true}); err == nil {
		t.Error("parallel FA accepted")
	}
	if _, err := db.Exec(context.Background(), Query{K: 1, Algorithm: NRA, Parallel: true}); err == nil {
		t.Error("parallel NRA accepted")
	}
}

func TestIntervalTrackerThroughFacade(t *testing.T) {
	db := ballotDB(t)
	for _, alg := range []Algorithm{BPA, BPA2} {
		def, err := db.Exec(context.Background(), Query{K: 3, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		iv, err := db.Exec(context.Background(), Query{K: 3, Algorithm: alg, Tracker: IntervalTracker})
		if err != nil {
			t.Fatal(err)
		}
		if iv.Stats.TotalAccesses() != def.Stats.TotalAccesses() {
			t.Errorf("%v: interval tracker changed accounting: %d != %d",
				alg, iv.Stats.TotalAccesses(), def.Stats.TotalAccesses())
		}
		for i := range def.Items {
			if iv.Items[i] != def.Items[i] {
				t.Errorf("%v: interval tracker changed answers", alg)
			}
		}
	}
}

func TestMonitorFacade(t *testing.T) {
	mon, err := NewMonitor(MonitorConfig{Sources: 2, K: 2, WindowBuckets: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Observe(0, "/a", 10); err != nil {
		t.Fatal(err)
	}
	if err := mon.Observe(1, "/b", 20); err != nil {
		t.Fatal(err)
	}
	snap, err := mon.TopK()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Query != 1 || snap.Universe != 2 || len(snap.Items) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Items[0].Key != "/b" || snap.Items[0].Score != 20 {
		t.Errorf("rank 1 = %+v, want /b 20", snap.Items[0])
	}
	if len(snap.Changes) != 2 || snap.Changes[0].Kind != ChangeEntered {
		t.Errorf("Changes = %+v", snap.Changes)
	}
	if snap.Accesses == 0 {
		t.Error("no accesses recorded")
	}

	// Expire /a and /b, add /c; the old keys must Leave.
	mon.Advance()
	mon.Advance()
	if err := mon.Observe(0, "/c", 1); err != nil {
		t.Fatal(err)
	}
	snap, err = mon.TopK()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Universe != 1 || snap.Items[0].Key != "/c" {
		t.Fatalf("after expiry: %+v", snap)
	}
	var left int
	for _, c := range snap.Changes {
		if c.Kind == ChangeLeft {
			left++
		}
	}
	if left != 2 {
		t.Errorf("Changes = %+v, want two departures", snap.Changes)
	}
}

func TestMonitorFacadeValidation(t *testing.T) {
	if _, err := NewMonitor(MonitorConfig{Sources: 0, K: 1}); err == nil {
		t.Error("0 sources accepted")
	}
	if _, err := NewMonitor(MonitorConfig{Sources: 1, K: 1, Algorithm: NRA}); err == nil {
		t.Error("NRA monitor accepted")
	}
	if _, err := NewMonitor(MonitorConfig{Sources: 1, K: 1, Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestMonitorChangeKindString(t *testing.T) {
	cases := map[MonitorChangeKind]string{
		ChangeEntered:         "entered",
		ChangeLeft:            "left",
		ChangeMoved:           "moved",
		MonitorChangeKind(42): "MonitorChangeKind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

// TestInexactFlagSurfaced: a database engineered so NRA stops before
// resolving its answer reports Inexact through the facade.
func TestInexactFlagSurfaced(t *testing.T) {
	// List 1 separates item 0 by a mile; in list 2 item 0 sorts last, so
	// NRA stops (round 2: W(0) = 100+4 = 104 beats every bound) having
	// seen item 0 only in list 1.
	db, err := FromColumns([][]float64{
		{100, 1, 1},
		{4, 5, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(context.Background(), Query{K: 1, Algorithm: NRA})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0].Item != 0 {
		t.Fatalf("Items = %+v", res.Items)
	}
	if !res.Inexact {
		t.Error("Inexact not surfaced through the facade")
	}
	// The exact algorithms never set it.
	exact, err := db.Exec(context.Background(), Query{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Inexact {
		t.Error("BPA2 result marked inexact")
	}
}

// TestRestrictedAccessFacade: Query.Sortable routes TA/BPA to their
// restricted-access variants and refuses the rest.
func TestRestrictedAccessFacade(t *testing.T) {
	db := ballotDB(t)
	exact, err := db.Exec(context.Background(), Query{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{TA, BPA} {
		res, err := db.Exec(context.Background(), Query{K: 3, Algorithm: alg, Sortable: []bool{true, false, true}})
		if err != nil {
			t.Fatalf("%v restricted: %v", alg, err)
		}
		for i := range exact.Items {
			if res.Items[i].Score != exact.Items[i].Score {
				t.Errorf("%v restricted: rank %d score %v, want %v",
					alg, i+1, res.Items[i].Score, exact.Items[i].Score)
			}
		}
	}
	if _, err := db.Exec(context.Background(), Query{K: 1, Algorithm: BPA2, Sortable: []bool{true, false, true}}); err == nil {
		t.Error("restricted BPA2 accepted")
	}
	if _, err := db.Exec(context.Background(), Query{K: 1, Algorithm: TA, Sortable: []bool{false, false, false}}); err == nil {
		t.Error("no-sortable-lists query accepted")
	}
	if _, err := db.Exec(context.Background(), Query{K: 1, Algorithm: TA, Sortable: []bool{true, false, true}, Parallel: true}); err == nil {
		t.Error("restricted parallel query accepted")
	}
	if _, err := db.Exec(context.Background(), Query{K: 1, Algorithm: TA, Sortable: []bool{true, false, true}, Ceilings: []float64{0, 0, 0}}); err == nil {
		t.Error("unsound ceilings accepted")
	}
}

// TestExplainExtendedAlgorithms: the round-by-round walkthrough works for
// the Fagin-framework baselines too (their observer reports δ-style
// rounds), and the restricted variants reject Explain gracefully... they
// do not: Explain routes through TopK's observer, so restricted runs
// trace like any other. Assert both paths produce rounds.
func TestExplainExtendedAlgorithms(t *testing.T) {
	db := ballotDB(t)
	for _, alg := range []Algorithm{NRA, CA} {
		var buf strings.Builder
		res, err := db.Explain(Query{K: 2, Algorithm: alg}, &buf)
		if err != nil {
			t.Fatalf("%v explain: %v", alg, err)
		}
		if len(res.Items) != 2 {
			t.Fatalf("%v: items = %+v", alg, res.Items)
		}
		if !strings.Contains(strings.ToLower(buf.String()), "round") {
			t.Errorf("%v explain produced no rounds:\n%s", alg, buf.String())
		}
	}
}
