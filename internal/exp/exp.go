// Package exp defines and runs the experiments of the paper's performance
// evaluation (Section 6). Every figure of the paper has a registered
// experiment that regenerates its data series; additional experiments
// cover the paper's worked examples, the ablations (trackers, tamemo,
// fagin) and the distributed extensions (dist, dht).
//
// Experiments are sized by a Config whose zero value reproduces the
// paper's defaults (Table 1: n=100,000, k=20, m=8, Sum scoring, three
// trials averaged). Config.Scale shrinks the database sizes uniformly for
// quick runs and CI.
package exp

import (
	"fmt"
	"sort"
	"time"

	"topk/internal/access"
	"topk/internal/bestpos"
	"topk/internal/core"
	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/score"
)

// Config sizes an experiment run. Zero fields take the paper's defaults.
type Config struct {
	// N is the number of items per list (Table 1 default: 100,000).
	N int
	// K is the number of answers (default 20).
	K int
	// M is the number of lists where it is not the sweep variable
	// (default 8).
	M int
	// Trials is the number of random databases averaged per point
	// (default 3).
	Trials int
	// Seed is the base RNG seed (default 1).
	Seed int64
	// Scale multiplies every database size, allowing quick runs
	// (default 1.0; e.g. 0.01 runs the n=100,000 experiments at n=1,000).
	Scale float64
	// Tracker selects the best-position structure (default: bit array,
	// as in the paper's evaluation).
	Tracker bestpos.Kind
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 100_000
	}
	if c.K <= 0 {
		c.K = 20
	}
	if c.M <= 0 {
		c.M = 8
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// scaled applies the scale factor to a database size, keeping at least
// enough items for the largest k sweep (k=100) plus headroom.
func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 200 {
		v = 200
	}
	return v
}

// Row is one line of an experiment table: a label (the sweep value) and
// one value per column.
type Row struct {
	Label  string
	Values map[string]float64
}

// Table is the output of one experiment: column order plus rows. It
// mirrors one figure of the paper.
type Table struct {
	// ID is the registry key (e.g. "fig3").
	ID string
	// Title describes the experiment, e.g. the paper caption.
	Title string
	// Figure names the paper artifact being reproduced ("Figure 3").
	Figure string
	// XLabel names the sweep variable ("m", "k", "n", ...).
	XLabel string
	// Metric names the measured quantity ("execution cost", ...).
	Metric string
	// Columns is the column order for rendering.
	Columns []string
	// Rows holds the measured series.
	Rows []Row
}

// Get returns the value at (label, column); ok is false when absent.
func (t *Table) Get(label, column string) (float64, bool) {
	for _, r := range t.Rows {
		if r.Label == label {
			v, ok := r.Values[column]
			return v, ok
		}
	}
	return 0, false
}

// Experiment is a registered, runnable reproduction unit.
type Experiment struct {
	// ID is the stable registry key used by cmd/topk-bench -exp.
	ID string
	// Title is a one-line description.
	Title string
	// Figure names the paper table/figure it regenerates, if any.
	Figure string
	// Run executes the experiment.
	Run func(cfg Config) (*Table, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Registry returns all experiments in registration (paper) order.
func Registry() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID finds an experiment by its registry key.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all registry keys in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// --- measurement helpers ----------------------------------------------

// metric selects what a sweep measures.
type metric uint8

const (
	metricCost metric = iota // execution cost: as*cs + (ar+ad)*cr
	metricAccesses
	metricTimeMS
)

func (mt metric) String() string {
	switch mt {
	case metricCost:
		return "execution cost"
	case metricAccesses:
		return "number of accesses"
	case metricTimeMS:
		return "response time (ms)"
	default:
		return fmt.Sprintf("metric(%d)", uint8(mt))
	}
}

// series is one measured line of a figure: an algorithm plus options.
type series struct {
	name    string
	alg     core.Algorithm
	memoize bool
}

// comparedSeries is the evaluation lineup. The paper's figures plot TA,
// BPA and BPA2; we additionally plot the memoized BPA ("BPA-mem"),
// because the paper's measured uniform-database gains are only
// reproducible with memoization while its formal accounting (Lemma 2) is
// non-memoized; TestFigure2MemoizedBPA pins both on Figure 2.
func comparedSeries() []series {
	return []series{
		{name: "TA", alg: core.AlgTA},
		{name: "BPA", alg: core.AlgBPA},
		{name: "BPA-mem", alg: core.AlgBPA, memoize: true},
		{name: "BPA2", alg: core.AlgBPA2},
	}
}

// measure runs one series over db and extracts the metric.
func measure(s series, db *list.Database, opts core.Options, mt metric) (float64, error) {
	opts.Memoize = s.memoize
	start := time.Now()
	res, err := core.Run(s.alg, db, opts)
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	switch mt {
	case metricCost:
		return res.Cost(access.DefaultCostModel(db.N())), nil
	case metricAccesses:
		return float64(res.Counts.Total()), nil
	case metricTimeMS:
		return float64(elapsed.Microseconds()) / 1000.0, nil
	default:
		return 0, fmt.Errorf("exp: unknown metric %d", mt)
	}
}

// sweepSpec drives a generic parameter sweep producing one table.
type sweepSpec struct {
	id, title, figure string
	xLabel            string
	metric            metric
	// points lists the sweep values in order.
	points []int
	// makeSpec builds the generator spec for a sweep value and trial seed.
	makeSpec func(cfg Config, x int, seed int64) gen.Spec
	// k returns the query size for a sweep value.
	k func(cfg Config, x int) int
}

// runSweep generates Trials databases per point and averages the metric
// per series.
func runSweep(s sweepSpec, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	lineup := comparedSeries()
	tbl := &Table{
		ID:     s.id,
		Title:  s.title,
		Figure: s.figure,
		XLabel: s.xLabel,
		Metric: s.metric.String(),
	}
	for _, sr := range lineup {
		tbl.Columns = append(tbl.Columns, sr.name)
	}
	for pi, x := range s.points {
		row := Row{Label: fmt.Sprintf("%d", x), Values: map[string]float64{}}
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := cfg.Seed + int64(pi)*1009 + int64(trial)*9176
			db, err := gen.Generate(s.makeSpec(cfg, x, seed))
			if err != nil {
				return nil, fmt.Errorf("exp %s: generate x=%d: %w", s.id, x, err)
			}
			k := s.k(cfg, x)
			if k > db.N() {
				k = db.N()
			}
			for _, sr := range lineup {
				v, err := measure(sr, db, core.Options{K: k, Scoring: score.Sum{}, Tracker: cfg.Tracker}, s.metric)
				if err != nil {
					return nil, fmt.Errorf("exp %s: %s at x=%d: %w", s.id, sr.name, x, err)
				}
				row.Values[sr.name] += v
			}
		}
		for _, sr := range lineup {
			row.Values[sr.name] /= float64(cfg.Trials)
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}

// gainOver returns mean(TA metric / alg metric) across rows — the paper's
// "outperforms TA by a factor of" summaries.
func (t *Table) gainOver(alg string) float64 {
	var sum float64
	var n int
	for _, r := range t.Rows {
		ta, ok1 := r.Values["TA"]
		v, ok2 := r.Values[alg]
		if ok1 && ok2 && v > 0 {
			sum += ta / v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// sortedColumns returns the table's columns; used by renderers when the
// declared order is missing entries found in rows.
func (t *Table) sortedColumns() []string {
	seen := map[string]bool{}
	var cols []string
	for _, c := range t.Columns {
		if !seen[c] {
			cols = append(cols, c)
			seen[c] = true
		}
	}
	var extra []string
	for _, r := range t.Rows {
		for c := range r.Values {
			if !seen[c] {
				extra = append(extra, c)
				seen[c] = true
			}
		}
	}
	sort.Strings(extra)
	return append(cols, extra...)
}
