package topk

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// paperFig1DB rebuilds the paper's Figure 1 database through the public
// API (items renumbered to dense IDs via columns: column d holds item
// d+1's local scores... here we simply transpose the known score matrix).
func paperFig1DB(t *testing.T) *Database {
	t.Helper()
	// localScores[i][d] = local score of item d (paper's d(d+1)) in list i.
	columns := [][]float64{
		{30, 11, 26, 28, 17, 14, 25, 23, 27, 9, 10, 8, 7, 6},
		{21, 28, 14, 13, 24, 27, 25, 20, 23, 11, 10, 9, 8, 12},
		{14, 24, 30, 25, 29, 19, 11, 28, 12, 10, 9, 8, 15, 7},
	}
	db, err := FromColumns(columns)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExplainTA(t *testing.T) {
	db := paperFig1DB(t)
	var buf bytes.Buffer
	res, err := db.Explain(Query{K: 3, Algorithm: TA}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StopPosition != 6 {
		t.Errorf("stop position = %d, want 6", res.Stats.StopPosition)
	}
	out := buf.String()
	// One row per position 1..6, thresholds from Figure 1b, STOP at 63.
	for _, want := range []string{"88", "84", "80", "75", "72", "63", "STOP"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != 2+6 { // title + header + 6 rounds
		t.Errorf("trace has %d lines, want 8:\n%s", lines, out)
	}
}

func TestExplainBPA(t *testing.T) {
	db := paperFig1DB(t)
	var buf bytes.Buffer
	res, err := db.Explain(Query{K: 3, Algorithm: BPA}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StopPosition != 3 {
		t.Errorf("stop position = %d, want 3", res.Stats.StopPosition)
	}
	if !strings.Contains(buf.String(), "9,9,6") {
		t.Errorf("trace missing best positions 9,9,6:\n%s", buf.String())
	}
}

func TestExplainNaiveIsEmpty(t *testing.T) {
	db := paperFig1DB(t)
	var buf bytes.Buffer
	if _, err := db.Explain(Query{K: 3, Algorithm: Naive}, &buf); err != nil {
		t.Fatal(err)
	}
	// Title and header only; Naive reports no rounds.
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("naive trace has %d lines, want 2:\n%s", got, buf.String())
	}
}

func TestExplainPropagatesErrors(t *testing.T) {
	db := paperFig1DB(t)
	var buf bytes.Buffer
	if _, err := db.Explain(Query{K: 0}, &buf); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestWithOnRound(t *testing.T) {
	db := paperFig1DB(t)
	var rounds []Round
	q := Query{K: 3, Algorithm: BPA2}.WithOnRound(func(r Round) {
		rounds = append(rounds, r)
	})
	if _, err := db.Exec(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 {
		t.Fatal("no rounds observed")
	}
	last := rounds[len(rounds)-1]
	if !last.Stopped || !last.YFull {
		t.Errorf("last round = %+v, want stopped and full", last)
	}
	if len(last.BestPositions) != db.M() {
		t.Errorf("best positions = %v", last.BestPositions)
	}
	for i, r := range rounds {
		if r.Round != i+1 {
			t.Errorf("round %d numbered %d", i+1, r.Round)
		}
	}
}

func TestWithOnRoundDoesNotMutateOriginal(t *testing.T) {
	db := paperFig1DB(t)
	q := Query{K: 3}
	_ = q.WithOnRound(func(Round) {})
	if q.onRoundObserver != nil {
		t.Error("WithOnRound mutated the receiver")
	}
	// The original query still runs without observation.
	if _, err := db.Exec(context.Background(), q); err != nil {
		t.Fatal(err)
	}
}
