package main

import (
	"fmt"
	"math/rand"

	"topk/internal/dist"
	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/rank"
	"topk/internal/score"
)

// entry is one workload of the benchmark: its name, why it is in the
// set, the layer its operations' own code belongs to, its default size
// and how to build it.
type entry struct {
	name, why string
	rootLayer string
	spec      spec
	make      func(spec) workload
}

// workloads lists the benchmark's workloads. Each is a closed loop:
// every caller waits for its answer before it sends its next operation.
// At most two callers run at once, all in one process, and owners are
// in-process transport.Server handlers on loopback-TCP httptest
// listeners.
func workloads() []entry {
	return []entry{
		{
			name: "central-bpa2",
			why:  "in-process BPA2 as library users call it: core and list do all the work, no transport",
			// n is a tenth of the paper's default. The mix cycles 32
			// seeded weighted sums, so a run averages over query
			// shapes instead of hanging on one stopping depth.
			rootLayer: "core",
			spec:      spec{N: 10_000, M: 8, K: 20, Callers: 1, Warmup: 500, Pool: 32},
			make:      func(s spec) workload { return &central{sp: s} },
		},
		{
			name: "cluster-bpa2",
			why:  "about 1,000 tiny sessionful exchanges per query over replicated RAM owners, each mirrored to a sibling: per-exchange client, wire and handoff cost",
			// 2 replicas per list, round-robin routing, session handoff
			// on: every sessionful exchange is mirrored by a
			// /session/sync request to the sibling replica. BPA2's
			// stopping depth at n=1,000 varies ±15% between databases,
			// so the mix spreads 16 weighted sums over 8 databases and a
			// run's counts vary by about 2% from seed to seed.
			rootLayer: "dist",
			spec:      spec{N: 1_000, M: 3, K: 10, Replicas: 2, Callers: 2, Warmup: 10, Pool: 16, Datasets: 8},
			make:      func(s spec) workload { return &cluster{sp: s, protocol: "bpa2"} },
		},
		{
			name: "cluster-tput-disk",
			why:  "a few huge TPUT exchanges over stripe-backed owners whose cache holds an eighth of a list: scans, cache misses, codec volume",
			// The one workload larger than the program's own cache;
			// cluster-bpa2's RAM store is the one that fits. At
			// n=100,000 TPUT's cost varies by 0.2% between databases, and
			// it takes only Sum, so the mix is one query.
			rootLayer: "dist",
			spec:      spec{N: 100_000, M: 4, K: 20, Replicas: 1, Callers: 2, Warmup: 20, Pool: 1, Datasets: 1, CacheDiv: 8},
			make:      func(s spec) workload { return &cluster{sp: s, protocol: "tput", disk: true} },
		},
		{
			name:      "live-bpa2",
			why:       "seeded score updates beside TPUT reads on mutable replicated owners with a standing BPA2 query: ingest and filter traffic",
			rootLayer: "live",
			spec:      spec{N: 1_000, M: 3, K: 10, Replicas: 2, Callers: 2, Warmup: 10, Batches: 6_000, BatchSize: 8},
			make:      func(s spec) workload { return &liveW{sp: s} },
		},
	}
}

func lookupWorkload(name string) (entry, bool) {
	for _, e := range workloads() {
		if e.name == name {
			return e, true
		}
	}
	return entry{}, false
}

// uniform generates the seeded uniform database the workloads start
// from, as score columns: the program receives only these.
func uniform(n, m int, seed int64) ([][]float64, error) {
	db, err := gen.Generate(gen.Spec{Kind: gen.Uniform, N: n, M: m, Seed: seed})
	if err != nil {
		return nil, err
	}
	cols := make([][]float64, m)
	for i := range cols {
		cols[i] = make([]float64, n)
	}
	locals := make([]float64, m)
	for d := range n {
		for i, s := range db.LocalScores(list.ItemID(d), locals) {
			cols[i][d] = s
		}
	}
	return cols, nil
}

// weightPool draws the query mix: k seeded weighted sums, weights in
// [0.5, 1.5).
func weightPool(r *rand.Rand, k, m int) ([]score.Func, error) {
	pool := make([]score.Func, k)
	for i := range pool {
		w := make([]float64, m)
		for j := range w {
			w[j] = 0.5 + r.Float64()
		}
		f, err := score.NewWeightedSum(w)
		if err != nil {
			return nil, err
		}
		pool[i] = f
	}
	return pool, nil
}

func sameItems(got, want []rank.ScoredItem) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// diffDist compares a distributed run against its reference on
// everything the paper's cost model fixes: answers, traffic and
// accesses. Elapsed, Recovery and Trace describe the backend and are
// not compared.
func diffDist(got, want *dist.Result) error {
	switch {
	case !sameItems(got.Items, want.Items):
		return fmt.Errorf("answers differ from the loopback reference")
	case got.Accesses != want.Accesses:
		return fmt.Errorf("accesses %v, reference %v", got.Accesses, want.Accesses)
	case got.Net.Messages != want.Net.Messages || got.Net.Payload != want.Net.Payload ||
		got.Net.Rounds != want.Net.Rounds || got.Net.Exchanges != want.Net.Exchanges:
		return fmt.Errorf("net %+v, reference %+v", got.Net, want.Net)
	}
	for i := range want.Net.PerOwner {
		if got.Net.PerOwner[i] != want.Net.PerOwner[i] {
			return fmt.Errorf("owner %d messages %d, reference %d", i, got.Net.PerOwner[i], want.Net.PerOwner[i])
		}
	}
	return nil
}
