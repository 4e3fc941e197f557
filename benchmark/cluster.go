package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"

	"topk/internal/dist"
	"topk/internal/list"
	"topk/internal/score"
	"topk/internal/store/stripe"
	"topk/internal/transport"
)

// cluster is the cluster-bpa2 and cluster-tput-disk workloads: a dist
// protocol driven over transport.Dial against in-process HTTP owners.
// The inputs are Datasets independent databases, each served by its own
// owners and dialed by its own client; the query mix cycles through
// them.
type cluster struct {
	sp       spec
	protocol string // "bpa2" or "tput"
	disk     bool   // owners serve a stripe file instead of RAM lists
	data     []dataset
	mix      []query
}

type dataset struct {
	cols [][]float64
	path string // the stripe file, when disk
}

// query is one query of the mix and its loopback reference run.
type query struct {
	dataset int
	f       score.Func
	ref     *dist.Result
}

func (w *cluster) run(ctx context.Context, t transport.Transport, opts dist.Options) (*dist.Result, error) {
	if w.protocol == "tput" {
		return dist.TPUTOver(ctx, t, opts)
	}
	return dist.BPA2Over(ctx, t, opts)
}

func (w *cluster) generate(seed int64, dir string) error {
	r := rand.New(rand.NewSource(seed))
	w.data, w.mix = make([]dataset, w.sp.Datasets), nil
	for d := range w.data {
		cols, err := uniform(w.sp.N, w.sp.M, seed*int64(w.sp.Datasets)+int64(d))
		if err != nil {
			return err
		}
		w.data[d].cols = cols
		db, err := list.FromColumns(cols)
		if err != nil {
			return err
		}
		if w.disk {
			w.data[d].path = filepath.Join(dir, fmt.Sprintf("cluster-%d-%d.stripe", seed, d))
			if err := stripe.Create(w.data[d].path, db, stripe.WriteOptions{}); err != nil {
				return err
			}
		}
		// TPUT takes only Sum; BPA2 cycles weighted sums.
		fs := []score.Func{score.Sum{}}
		if w.protocol == "bpa2" {
			if fs, err = weightPool(r, w.sp.Pool/w.sp.Datasets, w.sp.M); err != nil {
				return err
			}
		}
		lb, err := transport.NewLoopback(db)
		if err != nil {
			return err
		}
		for _, f := range fs {
			ref, err := w.run(context.Background(), lb, dist.Options{K: w.sp.K, Scoring: f})
			if err != nil {
				return fmt.Errorf("loopback reference: %w", err)
			}
			w.mix = append(w.mix, query{dataset: d, f: f, ref: ref})
		}
	}
	// Interleave the datasets, so consecutive queries use different ones.
	per := len(w.mix) / w.sp.Datasets
	mix := make([]query, 0, len(w.mix))
	for j := range per {
		for d := range w.sp.Datasets {
			mix = append(mix, w.mix[d*per+j])
		}
	}
	w.mix = mix
	return nil
}

func (w *cluster) setup(ctx context.Context, tr *tracer) (_ instance, err error) {
	in := &clusterInst{w: w}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	for _, d := range w.data {
		t, err := in.serve(ctx, d, tr)
		if err != nil {
			return nil, err
		}
		in.t = append(in.t, t)
	}
	if err := warm(ctx, in, w.sp.Warmup); err != nil {
		return nil, err
	}
	return in, nil
}

// serve starts the owners of one dataset and dials them.
func (in *clusterInst) serve(ctx context.Context, d dataset, tr *tracer) (transport.Transport, error) {
	var ram *list.Database
	if !in.w.disk {
		var err error
		if ram, err = list.FromColumns(d.cols); err != nil {
			return nil, err
		}
	}
	topo := make([][]string, in.w.sp.M)
	for li := range topo {
		for range in.w.sp.Replicas {
			// Replicas share the immutable RAM lists but not their
			// tallies: every owner reads through its own wrappers.
			var db *list.Database
			var err error
			if in.w.disk {
				db, err = in.openStripe(d.path, tr)
			} else {
				db, err = wrapDatabase(ram, false, false, tr)
			}
			if err != nil {
				return nil, err
			}
			srv, err := transport.NewServer(db, li)
			if err != nil {
				return nil, err
			}
			in.servers = append(in.servers, srv)
			ts := httptest.NewServer(wrapHandler(srv.Handler(), tr))
			in.listeners = append(in.listeners, ts)
			topo[li] = append(topo[li], ts.URL)
		}
	}
	cfg := transport.DialConfig{Topology: topo, Client: tracedClient(tr), HealthInterval: -1}
	if in.w.sp.Replicas > 1 {
		cfg.Policy = transport.RouteRoundRobin
	}
	hc, err := transport.Dial(ctx, cfg)
	if err != nil {
		return nil, err
	}
	in.clients = append(in.clients, hc)
	return wrapTransport(hc, tr), nil
}

// openStripe opens one owner's own view of the stripe file, with a cache
// budget of 1/CacheDiv of one list's bytes (12 bytes per entry plus 4
// per id→position slot).
func (in *clusterInst) openStripe(path string, tr *tracer) (*list.Database, error) {
	budget := int64(16*in.w.sp.N) / int64(in.w.sp.CacheDiv)
	sdb, err := stripe.Open(path, stripe.Options{CacheBytes: budget})
	if err != nil {
		return nil, err
	}
	in.stripes = append(in.stripes, sdb)
	db, err := sdb.Database()
	if err != nil {
		return nil, err
	}
	return wrapDatabase(db, true, false, tr)
}

// warm runs n operations spread over the instance's callers.
func warm(ctx context.Context, in instance, n int) error {
	var next atomic.Int64
	errs := make([]error, in.callers())
	var wg sync.WaitGroup
	for c := range in.callers() {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; next.Add(1) <= int64(n); seq++ {
				if out := in.op(ctx, c, seq); out.err != nil {
					errs[c] = fmt.Errorf("warm-up: %w", out.err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

type clusterInst struct {
	w         *cluster
	clients   []*transport.HTTPClient
	t         []transport.Transport // one per dataset
	servers   []*transport.Server
	listeners []*httptest.Server
	stripes   []*stripe.DB
	next      atomic.Int64 // position in the query mix, shared by the callers
}

func (in *clusterInst) callers() int { return in.w.sp.Callers }

func (in *clusterInst) op(ctx context.Context, _, _ int) outcome {
	i := int(in.next.Add(1)-1) % len(in.w.mix)
	q := in.w.mix[i]
	res, err := in.w.run(ctx, in.t[q.dataset], dist.Options{K: in.w.sp.K, Scoring: q.f})
	if err != nil {
		return outcome{err: err}
	}
	if err := diffDist(res, q.ref); err != nil {
		return outcome{err: fmt.Errorf("query %d: %w", i, err)}
	}
	return outcome{accesses: res.Accesses.Total(), exchanges: res.Net.Exchanges, rounds: int64(res.Net.Rounds)}
}

// accessesPerQuery is the mix's mean: every operation was checked equal
// to its query's loopback reference.
func (in *clusterInst) accessesPerQuery([]opRecord) float64 {
	sum := 0.0
	for _, q := range in.w.mix {
		sum += float64(q.ref.Accesses.Total())
	}
	return sum / float64(len(in.w.mix))
}

func (in *clusterInst) counters() counters {
	var c counters
	for _, s := range in.servers {
		c.shed += s.Owner().Shed()
	}
	for _, s := range in.stripes {
		st := s.CacheStats()
		c.hits += st.Hits
		c.misses += st.Misses
		c.evictions += st.Evictions
	}
	return c
}

func (in *clusterInst) finish(context.Context) []error { return nil }

func (in *clusterInst) close() {
	for _, hc := range in.clients {
		_ = hc.Close() // teardown; nothing is in flight
	}
	for _, ts := range in.listeners {
		ts.Close()
	}
	for _, s := range in.stripes {
		_ = s.Close() // read-only file
	}
}
