package topk

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// ctxTestDB builds a database big enough that no threshold algorithm
// finishes in one round.
func ctxTestDB(t testing.TB) *Database {
	t.Helper()
	db, err := Generate(GenSpec{Kind: GenUniform, N: 5_000, M: 6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExecPreCanceled: a context that is already dead must stop every
// algorithm before it touches a list.
func TestExecPreCanceled(t *testing.T) {
	db := ctxTestDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range ExtendedAlgorithms() {
		if _, err := db.Exec(ctx, Query{K: 10, Algorithm: alg}); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: want context.Canceled, got %v", alg, err)
		}
	}
}

// TestExecCancelMidQuery cancels from inside the round observer — after
// the first round, mid-execution by construction — and expects ctx.Err()
// from the sequential and the parallel executor alike.
func TestExecCancelMidQuery(t *testing.T) {
	db := ctxTestDB(t)
	for _, alg := range []Algorithm{TA, BPA, BPA2} {
		for _, par := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			q := Query{K: 10, Algorithm: alg, Parallel: par}.WithOnRound(func(r Round) {
				if r.Round == 1 {
					cancel()
				}
			})
			_, err := db.Exec(ctx, q)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v parallel=%v: want context.Canceled, got %v", alg, par, err)
			}
		}
	}
}

// TestExecDeadline: an expired deadline surfaces as DeadlineExceeded.
func TestExecDeadline(t *testing.T) {
	db := ctxTestDB(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := db.Exec(ctx, Query{K: 10}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("want DeadlineExceeded, got %v", err)
	}
}

// TestProgressiveCtxCancel: cancellation between Next calls ends the
// enumeration — Next goes false, Err reports why — while everything
// delivered before the cancel stays valid.
func TestProgressiveCtxCancel(t *testing.T) {
	db := ctxTestDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it, err := db.ProgressiveCtx(ctx, ProgressiveQuery{})
	if err != nil {
		t.Fatal(err)
	}
	first, ok := it.Next()
	if !ok {
		t.Fatal("no first answer")
	}
	oracle, err := db.Oracle(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Score != oracle[0].Score {
		t.Errorf("first progressive answer %v, oracle %v", first, oracle[0])
	}
	cancel()
	if _, ok := it.Next(); ok {
		t.Error("Next delivered after cancel")
	}
	if err := it.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", err)
	}
	if it.Delivered() != 1 {
		t.Errorf("Delivered() = %d, want 1", it.Delivered())
	}
}

// TestExecDistributedCancel: the in-process distributed run honors ctx
// too (the per-exchange checks live below the public surface).
func TestExecDistributedCancel(t *testing.T) {
	db := ctxTestDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range Protocols() {
		if _, err := db.ExecDistributed(ctx, Query{K: 10}, p); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: want context.Canceled, got %v", p, err)
		}
	}
}

// TestClusterConcurrentOriginators is the PR's acceptance scenario: two
// originators running DIFFERENT protocols concurrently against the same
// HTTP owner cluster, both returning answers bit-identical to
// centralized BPA, plus a canceled third originator aborting with
// ctx.Err() and zero leaked goroutines.
func TestClusterConcurrentOriginators(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: 600, M: 3, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Exec(context.Background(), Query{K: 10, Algorithm: BPA})
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, db)

	base := runtime.NumGoroutine()
	protocols := []Protocol{DistBPA2, DistTA}
	results := make([]*DistResult, len(protocols))
	errs := make([]error, len(protocols))
	var wg sync.WaitGroup
	for i, p := range protocols {
		wg.Add(1)
		go func(i int, p Protocol) {
			defer wg.Done()
			results[i], errs[i] = c.Exec(context.Background(), Query{K: 10}, p)
		}(i, p)
	}
	wg.Wait()
	for i, p := range protocols {
		if errs[i] != nil {
			t.Fatalf("%v: %v", p, errs[i])
		}
		if len(results[i].Items) != len(want.Items) {
			t.Fatalf("%v: %d answers, want %d", p, len(results[i].Items), len(want.Items))
		}
		for j := range want.Items {
			if results[i].Items[j].Item != want.Items[j].Item || results[i].Items[j].Score != want.Items[j].Score {
				t.Errorf("%v answer %d: %+v vs centralized BPA %+v", p, j, results[i].Items[j], want.Items[j])
			}
		}
	}

	// A canceled originator alongside: prompt ctx.Err(), no leaks.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Exec(ctx, Query{K: 10}, DistBPA2); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled originator: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("goroutines leaked: %d, want <= %d", g, base)
	}
}
