package exp

import (
	"bytes"
	"testing"
)

// TestRenderGolden pins the exact text format of the table renderer,
// which topk-bench prints, so accidental format drift is caught.
func TestRenderGolden(t *testing.T) {
	tbl := &Table{
		ID: "figX", Figure: "Figure X", Title: "golden", Metric: "execution cost",
		XLabel:  "m",
		Columns: []string{"TA", "BPA", "BPA2"},
		Rows: []Row{
			{Label: "2", Values: map[string]float64{"TA": 100, "BPA": 50, "BPA2": 25}},
			{Label: "4", Values: map[string]float64{"TA": 1000, "BPA": 250, "BPA2": 125.5}},
		},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	// Note the value-formatting rules: integers print bare, values >= 100
	// round to whole numbers (125.5 -> 126), small values keep three
	// decimals. Gains always use the raw values.
	want := `# figX [Figure X] — golden (execution cost)
m  TA    BPA  BPA2
-  ----  ---  ----
2  100   50   25
4  1000  250  126
mean gain TA/BPA     = 3.00x
mean gain TA/BPA2    = 5.98x
`
	if got := buf.String(); got != want {
		t.Errorf("render drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRenderCSVGolden pins the CSV form.
func TestRenderCSVGolden(t *testing.T) {
	tbl := &Table{
		ID: "figX", XLabel: "k",
		Columns: []string{"A", "B"},
		Rows: []Row{
			{Label: "10", Values: map[string]float64{"A": 1.5}}, // B missing
			{Label: "20", Values: map[string]float64{"A": 2, "B": 3}},
		},
	}
	var buf bytes.Buffer
	if err := tbl.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "k,A,B\n10,1.5,\n20,2,3\n"
	if got := buf.String(); got != want {
		t.Errorf("csv drifted.\ngot:\n%q\nwant:\n%q", got, want)
	}
}

// TestRenderMissingValuesDash: absent cells render as "-".
func TestRenderMissingValuesDash(t *testing.T) {
	tbl := &Table{
		ID: "x", XLabel: "m",
		Columns: []string{"A", "B"},
		Rows:    []Row{{Label: "1", Values: map[string]float64{"A": 7}}},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("-")) {
		t.Errorf("missing cell not rendered as dash:\n%s", buf.String())
	}
}

// TestSortedColumnsPicksUpExtras: values present in rows but not declared
// in Columns still render (sorted, after the declared ones).
func TestSortedColumnsPicksUpExtras(t *testing.T) {
	tbl := &Table{
		Columns: []string{"B", "B"},
		Rows: []Row{
			{Label: "1", Values: map[string]float64{"B": 1, "Z": 2, "A": 3}},
		},
	}
	cols := tbl.sortedColumns()
	if len(cols) != 3 || cols[0] != "B" || cols[1] != "A" || cols[2] != "Z" {
		t.Errorf("sortedColumns = %v", cols)
	}
}

func TestGainOverEdgeCases(t *testing.T) {
	tbl := &Table{Rows: []Row{
		{Label: "1", Values: map[string]float64{"TA": 10}},            // no BPA
		{Label: "2", Values: map[string]float64{"TA": 10, "BPA": 0}},  // zero divisor skipped
		{Label: "3", Values: map[string]float64{"TA": 30, "BPA": 10}}, // counts
	}}
	if g := tbl.gainOver("BPA"); g != 3 {
		t.Errorf("gainOver = %v, want 3", g)
	}
	if g := tbl.gainOver("missing"); g != 0 {
		t.Errorf("gainOver(missing) = %v, want 0", g)
	}
}
