package exp

import (
	"bytes"
	"strings"
	"testing"
)

// quickCfg shrinks every experiment enough for CI while keeping the
// qualitative shape (BPA and BPA2 beating TA on independent databases).
func quickCfg() Config {
	return Config{Scale: 0.01, Trials: 1, Seed: 42}
}

func TestRegistryComplete(t *testing.T) {
	// Every figure of the paper's evaluation must be registered, plus the
	// worked examples, Table 1, the trackers, tamemo and fagin ablations,
	// and the dist and dht extensions.
	want := []string{
		"table1", "example1", "example2",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17",
		"trackers", "tamemo", "dist", "dht",
		"fagin",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("fig3")
	if !ok || e.ID != "fig3" || e.Figure != "Figure 3" {
		t.Fatalf("ByID(fig3) = %+v, %v", e, ok)
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) found something")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.N != 100_000 || c.K != 20 || c.M != 8 || c.Trials != 3 || c.Scale != 1 || c.Seed != 1 {
		t.Errorf("defaults = %+v", c)
	}
	if got := (Config{Scale: 0.001}).withDefaults().scaled(100_000); got != 200 {
		t.Errorf("scaled floor = %d, want 200", got)
	}
}

// TestAllExperimentsRun executes every registered experiment at tiny
// scale and sanity-checks the resulting tables.
func TestAllExperimentsRun(t *testing.T) {
	cfg := quickCfg()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table ID %q, want %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, r := range tbl.Rows {
				if len(r.Values) == 0 {
					t.Errorf("row %q has no values", r.Label)
				}
				for c, v := range r.Values {
					if v < 0 {
						t.Errorf("row %q column %q negative: %v", r.Label, c, v)
					}
				}
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				t.Fatalf("render: %v", err)
			}
			if !strings.Contains(buf.String(), tbl.XLabel) {
				t.Error("rendered table missing x label")
			}
			buf.Reset()
			if err := tbl.RenderCSV(&buf); err != nil {
				t.Fatalf("render csv: %v", err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			if len(lines) != len(tbl.Rows)+1 {
				t.Errorf("csv has %d lines, want %d", len(lines), len(tbl.Rows)+1)
			}
		})
	}
}

// TestUniformGains runs the Figure 3 experiment at reduced scale and
// checks the paper's qualitative claim: BPA and BPA2 beat TA on execution
// cost over uniform databases, and the gains grow with m.
func TestUniformGains(t *testing.T) {
	cfg := Config{Scale: 0.02, Trials: 2, Seed: 7}
	e, ok := ByID("fig3")
	if !ok {
		t.Fatal("fig3 missing")
	}
	tbl, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkRow := func(label string) (ta, bpa, bpa2 float64) {
		taV, ok1 := tbl.Get(label, "TA")
		bpaV, ok2 := tbl.Get(label, "BPA")
		bpa2V, ok3 := tbl.Get(label, "BPA2")
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("row %s incomplete", label)
		}
		return taV, bpaV, bpa2V
	}
	// m=8 (the default and the paper's featured point).
	ta, bpa, bpa2 := checkRow("8")
	if !(bpa < ta) {
		t.Errorf("m=8: BPA cost %v not below TA %v", bpa, ta)
	}
	if !(bpa2 < bpa) {
		t.Errorf("m=8: BPA2 cost %v not below BPA %v", bpa2, bpa)
	}
	// Gains at m=18 exceed gains at m=4 (Section 6.2.4: "as m increases,
	// the performance gains ... increase significantly").
	ta4, _, bpa2at4 := checkRow("4")
	ta18, _, bpa2at18 := checkRow("18")
	if ta18/bpa2at18 <= ta4/bpa2at4 {
		t.Errorf("BPA2 gain does not grow with m: m=4 %.2fx, m=18 %.2fx",
			ta4/bpa2at4, ta18/bpa2at18)
	}
}

// TestExample1Table cross-checks the example1 experiment against the
// paper's walked-through numbers.
func TestExample1Table(t *testing.T) {
	e, _ := ByID("example1")
	tbl, err := e.Run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		alg    string
		column string
		want   float64
	}{
		{"TA", "stop position", 6},
		{"TA", "sorted", 18},
		{"TA", "random", 36},
		{"BPA", "stop position", 3},
		{"BPA", "sorted", 9},
		{"BPA", "random", 18},
		{"FA", "stop position", 8},
	}
	for _, c := range cases {
		got, ok := tbl.Get(c.alg, c.column)
		if !ok || got != c.want {
			t.Errorf("%s %s = %v (ok=%v), want %v", c.alg, c.column, got, ok, c.want)
		}
	}
}

// TestExample2Table cross-checks the example2 experiment (Figure 2):
// BPA does 63 accesses, BPA2 does 36.
func TestExample2Table(t *testing.T) {
	e, _ := ByID("example2")
	tbl, err := e.Run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tbl.Get("BPA", "total accesses"); got != 63 {
		t.Errorf("BPA total = %v, want 63", got)
	}
	if got, _ := tbl.Get("BPA2", "total accesses"); got != 36 {
		t.Errorf("BPA2 total = %v, want 36", got)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		42:      "42",
		1234567: "1234567",
		3.14159: "3.142",
		123.456: "123",
		0.5:     "0.500",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestTableGet(t *testing.T) {
	tbl := &Table{Rows: []Row{{Label: "a", Values: map[string]float64{"x": 1}}}}
	if v, ok := tbl.Get("a", "x"); !ok || v != 1 {
		t.Error("Get(a,x)")
	}
	if _, ok := tbl.Get("a", "y"); ok {
		t.Error("Get(a,y) should miss")
	}
	if _, ok := tbl.Get("b", "x"); ok {
		t.Error("Get(b,x) should miss")
	}
}
