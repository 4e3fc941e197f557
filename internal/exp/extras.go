package exp

import (
	"fmt"
	"time"

	"topk/internal/access"
	"topk/internal/bestpos"
	"topk/internal/core"
	"topk/internal/dist"
	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/paperdb"
	"topk/internal/score"
)

// This file registers the non-sweep experiments: the paper's Table 1 and
// worked examples, the trackers and tamemo ablations, and the dist
// protocol comparison.

func init() {
	register(Experiment{
		ID:     "table1",
		Title:  "Default setting of experimental parameters",
		Figure: "Table 1",
		Run:    runTable1,
	})
	register(Experiment{
		ID:     "example1",
		Title:  "Stop positions and access counts of FA/TA/BPA/BPA2 over the Figure 1 database (Examples 1-3)",
		Figure: "Figure 1",
		Run:    func(cfg Config) (*Table, error) { return runExample("example1", "Figure 1", paperdb.Figure1) },
	})
	register(Experiment{
		ID:     "example2",
		Title:  "BPA vs BPA2 accesses over the Figure 2 database (Section 5.1)",
		Figure: "Figure 2",
		Run:    func(cfg Config) (*Table, error) { return runExample("example2", "Figure 2", paperdb.Figure2) },
	})
	register(Experiment{
		ID:    "trackers",
		Title: "Ablation: best-position tracker implementations (Section 5.2), BPA response time",
		Run:   runTrackers,
	})
	register(Experiment{
		ID:    "tamemo",
		Title: "Ablation: TA vs memoized TA (redundant random accesses)",
		Run:   runTAMemo,
	})
	register(Experiment{
		ID:    "dist",
		Title: "Distributed protocols: messages and payload vs number of lists (uniform database)",
		Run:   runDist,
	})
}

func runTable1(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	tbl := &Table{
		ID:      "table1",
		Title:   "Default setting of experimental parameters",
		Figure:  "Table 1",
		XLabel:  "parameter",
		Metric:  "default value",
		Columns: []string{"value"},
	}
	tbl.Rows = []Row{
		{Label: "n (items per list)", Values: map[string]float64{"value": float64(cfg.scaled(cfg.N))}},
		{Label: "k", Values: map[string]float64{"value": float64(cfg.K)}},
		{Label: "m (number of lists)", Values: map[string]float64{"value": float64(cfg.M)}},
		{Label: "trials", Values: map[string]float64{"value": float64(cfg.Trials)}},
	}
	return tbl, nil
}

// runExample reports, for each algorithm over a paper fixture database,
// the stop position and the access breakdown — the numbers the paper
// walks through in Examples 1-3 and Section 5.1.
func runExample(id, figure string, build func() (*list.Database, error)) (*Table, error) {
	db, err := build()
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:      id,
		Title:   "k=3, f=sum over the " + figure + " database",
		Figure:  figure,
		XLabel:  "algorithm",
		Metric:  "counts",
		Columns: []string{"stop position", "sorted", "random", "direct", "total accesses"},
	}
	for _, alg := range core.Algorithms() {
		res, err := core.Run(alg, db, core.Options{K: 3, Scoring: score.Sum{}})
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, Row{
			Label: alg.String(),
			Values: map[string]float64{
				"stop position":  float64(res.StopPosition),
				"sorted":         float64(res.Counts.Sorted),
				"random":         float64(res.Counts.Random),
				"direct":         float64(res.Counts.Direct),
				"total accesses": float64(res.Counts.Total()),
			},
		})
	}
	return tbl, nil
}

// runTrackers times BPA with each best-position tracker over the default
// uniform database, reporting response time and verifying identical
// access counts (the tracker must not change the algorithm's behaviour).
func runTrackers(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	n := cfg.scaled(cfg.N)
	tbl := &Table{
		ID:      "trackers",
		Title:   "BPA response time by best-position tracker (uniform database)",
		XLabel:  "tracker",
		Metric:  "ms / accesses",
		Columns: []string{"time (ms)", "total accesses"},
	}
	var wantAccesses int64 = -1
	for _, kind := range bestpos.Kinds() {
		var totalMS float64
		var accesses int64
		for trial := 0; trial < cfg.Trials; trial++ {
			db, err := gen.Generate(gen.Spec{Kind: gen.Uniform, N: n, M: cfg.M, Seed: cfg.Seed + int64(trial)})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			res, err := core.Run(core.AlgBPA, db, core.Options{K: cfg.K, Scoring: score.Sum{}, Tracker: kind})
			if err != nil {
				return nil, err
			}
			totalMS += float64(time.Since(start).Microseconds()) / 1000
			accesses = res.Counts.Total()
		}
		if wantAccesses == -1 {
			wantAccesses = accesses
		} else if accesses != wantAccesses {
			return nil, fmt.Errorf("exp trackers: %v changed access count: %d != %d", kind, accesses, wantAccesses)
		}
		tbl.Rows = append(tbl.Rows, Row{
			Label: kind.String(),
			Values: map[string]float64{
				"time (ms)":      totalMS / float64(cfg.Trials),
				"total accesses": float64(accesses),
			},
		})
	}
	return tbl, nil
}

// runTAMemo compares plain TA with the memoized ablation across m,
// reporting random accesses (the redundancy) and execution cost.
func runTAMemo(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	n := cfg.scaled(cfg.N)
	tbl := &Table{
		ID:      "tamemo",
		Title:   "TA vs memoized TA over uniform database",
		XLabel:  "m",
		Metric:  "random accesses / execution cost",
		Columns: []string{"TA random", "TA-memo random", "TA cost", "TA-memo cost"},
	}
	model := access.DefaultCostModel(n)
	for _, m := range mPoints() {
		row := Row{Label: fmt.Sprintf("%d", m), Values: map[string]float64{}}
		for trial := 0; trial < cfg.Trials; trial++ {
			db, err := gen.Generate(gen.Spec{Kind: gen.Uniform, N: n, M: m, Seed: cfg.Seed + int64(trial)})
			if err != nil {
				return nil, err
			}
			plain, err := core.Run(core.AlgTA, db, core.Options{K: cfg.K, Scoring: score.Sum{}})
			if err != nil {
				return nil, err
			}
			memo, err := core.Run(core.AlgTA, db, core.Options{K: cfg.K, Scoring: score.Sum{}, Memoize: true})
			if err != nil {
				return nil, err
			}
			row.Values["TA random"] += float64(plain.Counts.Random)
			row.Values["TA-memo random"] += float64(memo.Counts.Random)
			row.Values["TA cost"] += plain.Cost(model)
			row.Values["TA-memo cost"] += memo.Cost(model)
		}
		for c := range row.Values {
			row.Values[c] /= float64(cfg.Trials)
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}

// runDist sweeps m over uniform databases and reports the simulated
// message counts of the four distributed protocols, plus BPA's payload
// overhead from shipping seen positions.
func runDist(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	// The distributed sweep uses a tenth of the configured database size:
	// dist-TA exchanges two messages per access, so full-size runs are
	// dominated by simulation bookkeeping without changing the shape.
	n := cfg.scaled(cfg.N / 10)
	tbl := &Table{
		ID:      "dist",
		Title:   "Distributed protocol traffic vs number of lists (uniform database)",
		XLabel:  "m",
		Metric:  "messages / payload",
		Columns: []string{"dist-ta msgs", "dist-bpa msgs", "dist-bpa2 msgs", "tput msgs", "dist-bpa payload", "dist-bpa2 payload"},
	}
	protocols := []struct {
		name string
		run  func(*list.Database, dist.Options) (*dist.Result, error)
	}{
		{"dist-ta", dist.TA},
		{"dist-bpa", dist.BPA},
		{"dist-bpa2", dist.BPA2},
		{"tput", dist.TPUT},
	}
	for _, m := range []int{2, 4, 6, 8, 10} {
		row := Row{Label: fmt.Sprintf("%d", m), Values: map[string]float64{}}
		for trial := 0; trial < cfg.Trials; trial++ {
			db, err := gen.Generate(gen.Spec{Kind: gen.Uniform, N: n, M: m, Seed: cfg.Seed + int64(trial)})
			if err != nil {
				return nil, err
			}
			for _, p := range protocols {
				res, err := p.run(db, dist.Options{K: cfg.K, Scoring: score.Sum{}, Tracker: cfg.Tracker})
				if err != nil {
					return nil, err
				}
				row.Values[p.name+" msgs"] += float64(res.Net.Messages)
				if p.name == "dist-bpa" || p.name == "dist-bpa2" {
					row.Values[p.name+" payload"] += float64(res.Net.Payload)
				}
			}
		}
		for c := range row.Values {
			row.Values[c] /= float64(cfg.Trials)
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}
