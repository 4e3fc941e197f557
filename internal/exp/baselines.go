package exp

import (
	"fmt"

	"topk/internal/access"
	"topk/internal/core"
	"topk/internal/gen"
	"topk/internal/score"
)

// This file registers the fagin ablation, which places the paper's
// algorithms inside the wider Fagin framework (NRA, CA); the paper
// evaluates neither.

func init() {
	register(Experiment{
		ID:    "fagin",
		Title: "Fagin-framework baselines: execution cost of TA/NRA/CA vs BPA/BPA2 (uniform database)",
		Run:   runFagin,
	})
}

// runFagin sweeps m over uniform databases and reports the execution cost
// of the whole algorithm family: the sorted-access-only NRA, the
// balanced CA, the random-access-heavy TA, and the paper's BPA/BPA2.
// NRA's cost is all sorted accesses (cheap ones); TA's is dominated by
// random accesses; the best-position algorithms beat both ends.
func runFagin(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	n := cfg.scaled(cfg.N)
	model := access.DefaultCostModel(n)
	tbl := &Table{
		ID:      "fagin",
		Title:   "Execution cost of the Fagin-framework algorithms (uniform database, k=20)",
		XLabel:  "m",
		Metric:  "execution cost",
		Columns: []string{"TA", "NRA", "CA", "BPA-mem", "BPA2"},
	}
	lineup := []struct {
		name string
		alg  core.Algorithm
		memo bool
	}{
		{"TA", core.AlgTA, false},
		{"NRA", core.AlgNRA, false},
		{"CA", core.AlgCA, false},
		{"BPA-mem", core.AlgBPA, true},
		{"BPA2", core.AlgBPA2, false},
	}
	for _, m := range mPoints() {
		row := Row{Label: fmt.Sprintf("%d", m), Values: map[string]float64{}}
		for trial := 0; trial < cfg.Trials; trial++ {
			db, err := gen.Generate(gen.Spec{Kind: gen.Uniform, N: n, M: m, Seed: cfg.Seed + int64(trial)})
			if err != nil {
				return nil, err
			}
			for _, s := range lineup {
				res, err := core.Run(s.alg, db, core.Options{K: cfg.K, Scoring: score.Sum{}, Memoize: s.memo, Tracker: cfg.Tracker})
				if err != nil {
					return nil, fmt.Errorf("exp fagin: %s at m=%d: %w", s.name, m, err)
				}
				row.Values[s.name] += res.Cost(model)
			}
		}
		for c := range row.Values {
			row.Values[c] /= float64(cfg.Trials)
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}
