package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"topk/internal/core"
	"topk/internal/list"
	"topk/internal/rank"
	"topk/internal/score"
)

// central is the central-bpa2 workload: core.Run(AlgBPA2) in process.
type central struct {
	sp     spec
	cols   [][]float64
	pool   []score.Func
	oracle [][]rank.ScoredItem
}

func (w *central) generate(seed int64, _ string) error {
	cols, err := uniform(w.sp.N, w.sp.M, seed)
	if err != nil {
		return err
	}
	pool, err := weightPool(rand.New(rand.NewSource(seed)), w.sp.Pool, w.sp.M)
	if err != nil {
		return err
	}
	db, err := list.FromColumns(cols)
	if err != nil {
		return err
	}
	w.cols, w.pool, w.oracle = cols, pool, make([][]rank.ScoredItem, len(pool))
	for i, f := range pool {
		if w.oracle[i], err = core.Oracle(db, w.sp.K, f); err != nil {
			return err
		}
	}
	return nil
}

func (w *central) setup(ctx context.Context, tr *tracer) (instance, error) {
	db, err := list.FromColumns(w.cols)
	if err != nil {
		return nil, err
	}
	if db, err = wrapDatabase(db, false, true, tr); err != nil {
		return nil, err
	}
	in := &centralInst{w: w, db: db, acc: make([]atomic.Int64, len(w.pool))}
	for i := range w.sp.Warmup {
		if out := in.op(ctx, 0, i); out.err != nil {
			return nil, fmt.Errorf("warm-up: %w", out.err)
		}
	}
	return in, nil
}

type centralInst struct {
	w   *central
	db  *list.Database
	acc []atomic.Int64 // accesses of each query of the mix, from its first run
}

func (in *centralInst) callers() int { return in.w.sp.Callers }

func (in *centralInst) op(_ context.Context, _, seq int) outcome {
	i := seq % len(in.w.pool)
	res, err := core.Run(core.AlgBPA2, in.db, core.Options{K: in.w.sp.K, Scoring: in.w.pool[i]})
	if err != nil {
		return outcome{err: err}
	}
	if !sameItems(res.Items, in.w.oracle[i]) {
		return outcome{err: fmt.Errorf("query %d: answers differ from the oracle", i)}
	}
	acc := res.Counts.Total()
	// Every run of one query must charge exactly the same accesses.
	if !in.acc[i].CompareAndSwap(0, acc) && in.acc[i].Load() != acc {
		return outcome{err: fmt.Errorf("query %d: %d accesses, first run %d", i, acc, in.acc[i].Load())}
	}
	return outcome{accesses: acc}
}

func (in *centralInst) accessesPerQuery([]opRecord) float64 {
	sum := 0.0
	for i := range in.acc {
		sum += float64(in.acc[i].Load())
	}
	return sum / float64(len(in.acc))
}

func (in *centralInst) counters() counters             { return counters{} }
func (in *centralInst) finish(context.Context) []error { return nil }
func (in *centralInst) close()                         {}
