package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync/atomic"

	"topk"
	"topk/internal/list"
	"topk/internal/live"
	"topk/internal/transport"
)

// liveW is the live-bpa2 workload: a writer applies a seeded update
// feed through a live.Coordinator holding one standing BPA2 query,
// while a reader runs ad-hoc TPUT queries over the same mutable,
// replicated owners.
type liveW struct {
	sp   spec
	cols [][]float64
	feed []map[int][]topk.ScoreUpdate
}

// feedAmp bounds each update's delta, far below the slack the filters
// give outsiders. With 8 updates per owner per batch, about one batch in
// four touches a top-10 member (or, rarely, pushes an outsider past its
// owner's slack), so the standing query is re-evaluated on a minority of
// batches fixed by the seed: live.update_p50_ms reads the suppressed path
// and live.update_p90_ms the re-evaluation path.
const feedAmp = 0.001

func (w *liveW) generate(seed int64, _ string) error {
	cols, err := uniform(w.sp.N, w.sp.M, seed)
	if err != nil {
		return err
	}
	// The feed is generated against a shadow copy of the columns, and
	// each delta is clamped so no score goes negative: TPUT, which the
	// reader runs, requires non-negative scores.
	r := rand.New(rand.NewSource(seed + 1))
	shadow := copyCols(cols)
	feed := make([]map[int][]topk.ScoreUpdate, w.sp.Batches)
	for b := range feed {
		batch := make(map[int][]topk.ScoreUpdate, w.sp.M)
		for o := range w.sp.M {
			picked := make(map[int]bool, w.sp.BatchSize)
			ups := make([]topk.ScoreUpdate, 0, w.sp.BatchSize)
			for len(ups) < w.sp.BatchSize {
				d := r.Intn(w.sp.N)
				if picked[d] {
					continue
				}
				picked[d] = true
				delta := (2*r.Float64() - 1) * feedAmp
				if shadow[o][d]+delta < 0 {
					delta = -shadow[o][d]
				}
				shadow[o][d] += delta
				ups = append(ups, topk.ScoreUpdate{Item: int32(d), Delta: delta})
			}
			batch[o] = ups
		}
		feed[b] = batch
	}
	w.cols, w.feed = cols, feed
	return nil
}

func copyCols(cols [][]float64) [][]float64 {
	out := make([][]float64, len(cols))
	for i, c := range cols {
		out[i] = append([]float64(nil), c...)
	}
	return out
}

// shadowAfter replays the first n batches onto the initial columns, in
// the order the owners apply them, so scores match bit for bit.
func (w *liveW) shadowAfter(n int) [][]float64 {
	cols := copyCols(w.cols)
	for _, batch := range w.feed[:n] {
		for o, ups := range batch {
			for _, u := range ups {
				cols[o][u.Item] += u.Delta
			}
		}
	}
	return cols
}

const standingName = "bench"

func (w *liveW) setup(ctx context.Context, tr *tracer) (_ instance, err error) {
	in := &liveInst{w: w}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	db, err := list.FromColumns(w.cols)
	if err != nil {
		return nil, err
	}
	topo := make([][]string, w.sp.M)
	for li := range topo {
		for range w.sp.Replicas {
			srv, err := transport.NewServer(db, li)
			if err != nil {
				return nil, err
			}
			if err := srv.Owner().EnableUpdates(); err != nil {
				return nil, err
			}
			in.servers = append(in.servers, srv)
			ts := httptest.NewServer(wrapHandler(srv.Handler(), tr))
			in.listeners = append(in.listeners, ts)
			topo[li] = append(topo[li], ts.URL)
		}
	}
	if in.cl, err = topk.DialClusterConfig(ctx, topk.ClusterConfig{
		Topology: topo, Policy: topk.RouteRoundRobin, HealthInterval: -1,
	}); err != nil {
		return nil, err
	}
	if in.co, err = live.New(in.cl); err != nil {
		return nil, err
	}
	if in.st, err = in.co.Register(ctx, standingName, topk.Query{K: w.sp.K}, topk.DistBPA2); err != nil {
		return nil, err
	}
	if tr != nil {
		// The writer (actor 0) sends updates and filters and re-evaluates
		// the standing BPA2 query; the reader (actor 1) runs TPUT.
		tr.kindActor = map[string]int{
			"update": 0, "filter": 0, "probe": 0, "mark": 0,
			"topk": 1, "above": 1, "fetch": 1,
		}
	}
	// The warm-up reads only: Register already ran the standing query
	// once, and whether a feed batch crosses (costing a re-evaluation)
	// depends on the seed, which would make set-up time depend on it too.
	for range w.sp.Warmup {
		if out := in.read(ctx); out.err != nil {
			return nil, fmt.Errorf("warm-up: %w", out.err)
		}
	}
	return in, nil
}

type liveInst struct {
	w         *liveW
	servers   []*transport.Server
	listeners []*httptest.Server
	cl        *topk.Cluster
	co        *live.Coordinator
	st        *live.Standing
	applied   int // batches of the feed applied, written by the writer only
	feedDone  atomic.Bool
}

func (in *liveInst) callers() int { return 2 }

func (in *liveInst) op(ctx context.Context, caller, _ int) outcome {
	if caller == 0 {
		return in.write(ctx)
	}
	return in.read(ctx)
}

func (in *liveInst) write(ctx context.Context) outcome {
	if in.applied == len(in.w.feed) {
		in.feedDone.Store(true)
		return outcome{kind: opUpdate, done: true}
	}
	res, err := in.co.Apply(ctx, "bench-feed", uint64(in.applied+1), in.w.feed[in.applied])
	if err != nil {
		return outcome{kind: opUpdate, err: err}
	}
	in.applied++
	return outcome{kind: opUpdate, crossing: len(res.Reevaluated) > 0}
}

// read runs one ad-hoc TPUT query. Mid-feed the owners are moving, and
// replicas of a list apply a batch one after the other, so the answer is
// checked for structure only: k distinct items, scores non-increasing.
func (in *liveInst) read(ctx context.Context) outcome {
	if in.feedDone.Load() {
		return outcome{done: true}
	}
	res, err := in.cl.Exec(ctx, topk.Query{K: in.w.sp.K}, topk.TPUT)
	if err != nil {
		return outcome{err: err}
	}
	if err := wellFormed(res.Items, in.w.sp.K); err != nil {
		return outcome{err: err}
	}
	return outcome{accesses: res.Stats.Net.TotalAccesses, exchanges: res.Stats.Net.Exchanges, rounds: int64(res.Stats.Net.Rounds)}
}

func wellFormed(items []topk.ScoredItem, k int) error {
	if len(items) != k {
		return fmt.Errorf("read returned %d items, want %d", len(items), k)
	}
	seen := make(map[topk.Item]bool, k)
	for i, it := range items {
		if seen[it.Item] {
			return fmt.Errorf("read returned item %d twice", it.Item)
		}
		seen[it.Item] = true
		if i > 0 && it.Score > items[i-1].Score {
			return fmt.Errorf("read scores increase at rank %d", i+1)
		}
	}
	return nil
}

func (in *liveInst) accessesPerQuery(recs []opRecord) float64 {
	sum, n := 0.0, 0
	for _, r := range recs {
		if r.kind == opQuery && !r.failed() {
			sum += float64(r.accesses)
			n++
		}
	}
	return ratio(sum, float64(n))
}

func (in *liveInst) counters() counters {
	a := in.co.Accounting()
	c := counters{
		batches: a.UpdateBatches, suppressed: a.Suppressed, notifications: a.Notifications,
		reevals: a.Reevaluations, reevalMsgs: a.ReevalMessages, filterMsgs: a.FilterMessages,
	}
	for _, s := range in.servers {
		c.shed += s.Owner().Shed()
	}
	return c
}

// finish checks the quiesced cluster against a from-scratch run over the
// shadow columns: one final TPUT read, and the standing query's ranking.
func (in *liveInst) finish(ctx context.Context) []error {
	db, err := topk.FromColumns(in.w.shadowAfter(in.applied))
	if err != nil {
		return []error{err}
	}
	check := func(got func() ([]topk.ScoredItem, error), protocol topk.Protocol, what string) error {
		want, err := db.ExecDistributed(ctx, topk.Query{K: in.w.sp.K}, protocol)
		if err != nil {
			return fmt.Errorf("%s oracle: %w", what, err)
		}
		items, err := got()
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if len(items) != len(want.Items) {
			return fmt.Errorf("%s: %d items, oracle %d", what, len(items), len(want.Items))
		}
		for i := range items {
			if items[i].Item != want.Items[i].Item || items[i].Score != want.Items[i].Score {
				return fmt.Errorf("%s: rank %d is %d (%v), oracle %d (%v)", what, i+1,
					items[i].Item, items[i].Score, want.Items[i].Item, want.Items[i].Score)
			}
		}
		return nil
	}
	final := check(func() ([]topk.ScoredItem, error) {
		res, err := in.cl.Exec(ctx, topk.Query{K: in.w.sp.K}, topk.TPUT)
		if err != nil {
			return nil, err
		}
		return res.Items, nil
	}, topk.TPUT, "final read")
	standing := check(func() ([]topk.ScoredItem, error) {
		items, _ := in.st.Ranking()
		return items, nil
	}, topk.DistBPA2, "standing query")
	return []error{final, standing}
}

func (in *liveInst) close() {
	if in.cl != nil {
		_ = in.cl.Close() // teardown; nothing is in flight
	}
	for _, ts := range in.listeners {
		ts.Close()
	}
}
