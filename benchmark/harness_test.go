package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"topk"
	"topk/internal/core"
	"topk/internal/dist"
)

// testSpecs shrink every workload to test size: same shape, a fraction
// of the work.
var testSpecs = map[string]spec{
	"central-bpa2":      {N: 2_000, M: 4, K: 10, Callers: 1, Warmup: 4, Pool: 4},
	"cluster-bpa2":      {N: 200, M: 3, K: 5, Replicas: 2, Callers: 2, Warmup: 2, Pool: 4, Datasets: 2},
	"cluster-tput-disk": {N: 6_000, M: 3, K: 10, Replicas: 1, Callers: 2, Warmup: 2, Pool: 1, Datasets: 1, CacheDiv: 1},
	"live-bpa2":         {N: 200, M: 3, K: 5, Replicas: 2, Callers: 2, Warmup: 2, Batches: 40, BatchSize: 4},
}

func testWorkload(t *testing.T, name string) (entry, workload) {
	t.Helper()
	return testWorkloadSpec(t, name, testSpecs[name])
}

func testWorkloadSpec(t *testing.T, name string, sp spec) (entry, workload) {
	t.Helper()
	e, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w := e.make(sp)
	if err := w.generate(7, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	return e, w
}

// TestTracedUntracedParity runs the same operations on an untraced and
// a traced instance of every workload: the wrappers must not change
// answers, traffic, accesses or wire bytes.
func TestTracedUntracedParity(t *testing.T) {
	ctx := context.Background()
	for _, e := range workloads() {
		t.Run(e.name, func(t *testing.T) {
			_, w := testWorkload(t, e.name)
			plain, err := w.setup(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.close()
			tr := newTracer(e.rootLayer)
			traced, err := w.setup(ctx, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer traced.close()

			tr.on.Store(true)
			// do runs f once untraced, once as a traced operation of
			// the given actor.
			do := func(actor int, f func(context.Context, instance) any) (any, any) {
				a := f(ctx, plain)
				tctx, op := tr.beginOp(ctx, actor)
				b := f(tctx, traced)
				tr.endOp(op)
				return a, b
			}
			switch in := plain.(type) {
			case *centralInst:
				for i, f := range in.w.pool {
					a, b := do(0, func(_ context.Context, x instance) any {
						res, err := core.Run(core.AlgBPA2, x.(*centralInst).db, core.Options{K: in.w.sp.K, Scoring: f})
						if err != nil {
							t.Fatal(err)
						}
						return [2]any{res.Items, res.Counts}
					})
					if !reflect.DeepEqual(a, b) {
						t.Errorf("query %d: untraced %v, traced %v", i, a, b)
					}
				}
			case *clusterInst:
				for i, q := range in.w.mix {
					a, b := do(0, func(ctx context.Context, x instance) any {
						c := x.(*clusterInst)
						res, err := c.w.run(ctx, c.t[q.dataset], dist.Options{K: c.w.sp.K, Scoring: q.f, Trace: true})
						if err != nil {
							t.Fatal(err)
						}
						bytes := 0
						for _, sp := range res.Trace {
							bytes += sp.ReqBytes + sp.RespBytes
						}
						return [4]any{res.Items, res.Net, res.Accesses, bytes}
					})
					if !reflect.DeepEqual(a, b) {
						t.Errorf("query %d: untraced %v, traced %v", i, a, b)
					}
				}
			case *liveInst:
				for seq := range 6 {
					for c := range 2 {
						a, b := do(c, func(ctx context.Context, x instance) any {
							out := x.op(ctx, c, seq)
							if out.err != nil {
								t.Fatal(out.err)
							}
							return out.crossing
						})
						if a != b {
							t.Errorf("op %d/%d: crossing untraced %v, traced %v", seq, c, a, b)
						}
					}
				}
				a, b := do(1, func(ctx context.Context, x instance) any {
					l := x.(*liveInst)
					res, err := l.cl.Exec(ctx, topk.Query{K: l.w.sp.K}, topk.TPUT)
					if err != nil {
						t.Fatal(err)
					}
					ranking, rev := l.st.Ranking()
					net := res.Stats.Net
					net.Elapsed = 0 // wall clock
					return [4]any{res.Items, net, l.co.Accounting(), [2]any{ranking, rev}}
				})
				if !reflect.DeepEqual(a, b) {
					t.Errorf("live state: untraced %v, traced %v", a, b)
				}
			}
			tr.on.Store(false)
			for i, err := range traced.finish(ctx) {
				if err != nil {
					t.Errorf("traced check %d: %v", i, err)
				}
			}
			tr.finishBlock()
			if tr.finished == 0 {
				t.Error("no traced operation was recorded")
			}
			if tr.unlinked != 0 {
				t.Errorf("%d owner spans were not linked to an operation", tr.unlinked)
			}
		})
	}
}

// TestRunsAreCorrect runs every workload end to end at test size,
// untraced and traced, and checks the verdict and that every metric is
// reported: the end-to-end ones non-zero and finite.
func TestRunsAreCorrect(t *testing.T) {
	ctx := context.Background()
	for _, e := range workloads() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", e.name, traced), func(t *testing.T) {
				_, w := testWorkload(t, e.name)
				rep, err := run(ctx, e.name, w, e.rootLayer, runConfig{
					seed: 7, dur: 400 * time.Millisecond, trace: traced, dir: t.TempDir(),
					setups: 2, block: 150 * time.Millisecond, minimal: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.correct || rep.failed != 0 {
					t.Errorf("%d of %d failed: %v", rep.failed, rep.attempted, rep.firstErr)
				}
				for _, m := range rep.metrics {
					if math.IsNaN(m.value) || math.IsInf(m.value, 0) || (!traced && m.value <= 0) {
						t.Errorf("%s = %v", m.name, m.value)
					}
				}
				if !traced {
					return
				}
				m := byName(rep.metrics)
				sum := 0.0
				for _, v := range layerSelf(m) {
					sum += v
				}
				if got := sum / m["trace.mean_op_ms"]; math.Abs(got-1) > 0.10 {
					t.Errorf("layer self times add up to %.3f of the mean operation", got)
				}
			})
		}
	}
}

func byName(ms []metric) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.name] = m.value
	}
	return out
}

// layerSelf sums a traced run's self times (ms per operation) by layer.
func layerSelf(m map[string]float64) map[string]float64 {
	out := map[string]float64{
		"core":             m["core.self_ms_per_query"],
		"live":             m["live.self_ms_per_op"],
		"list":             m["list.read_ms_per_query"],
		"store.stripe":     m["store.stripe.read_ms_per_query"],
		"dist":             m["dist.self_ms_per_query"],
		"transport.client": m["transport.client.self_ms_per_query"],
		"transport.wire":   m["transport.wire.ms_per_op"],
	}
	for k, v := range m {
		if strings.HasPrefix(k, "transport.owner.self_ms_per_op.") {
			out["transport.owner"] += v
		}
	}
	return out
}

// TestAttributionSelfTest injects a fixed delay inside one wrapper at a
// time and checks that the traced table moves exactly that layer, by the
// injected total. The runs are serial — one caller, GOMAXPROCS 1 — and
// keep the data plane free of parallel calls: two unreplicated lists for
// BPA2 (each probe's marks go to the one other owner), one for TPUT (its
// phases fan out to every owner). Parallel calls share the wall time they overlap,
// so a delay in one of them would be split with its waiting sibling, and
// a list read's time is carved out of its handler span in proportion to
// the span's duration, which then includes waits for the CPU.
func TestAttributionSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ctx := context.Background()
	traced := func(name string, inj delays) map[string]float64 {
		sp := testSpecs[name]
		sp.Callers, sp.M, sp.Replicas = 1, 2, 1
		if name == "cluster-tput-disk" {
			sp.M, sp.K = 1, 300
		}
		e, w := testWorkloadSpec(t, name, sp)
		rep, err := run(ctx, name, w, e.rootLayer, runConfig{
			seed: 7, dur: time.Second, trace: true, dir: t.TempDir(),
			setups: 1, block: 200 * time.Millisecond, minimal: true, inject: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.correct {
			t.Fatalf("%s: %v", name, rep.firstErr)
		}
		return byName(rep.metrics)
	}
	check := func(what string, base, got map[string]float64, layer string, want float64) {
		b, g := layerSelf(base), layerSelf(got)
		if d := g[layer] - b[layer]; math.Abs(d-want) > 0.25*want {
			t.Errorf("%s: %s moved %.3f ms/op, injected %.3f", what, layer, d, want)
		}
		// Noise: between two runs the host alone can double a layer
		// (its slow phases run the same code up to twice as slowly), and
		// the carving of sampled reads out of their handler spans is
		// good to about a tenth. So the other layers may move by their
		// own size plus 15% of the injected total; the injected total
		// itself landing in the wrong layer still fails.
		for l := range b {
			if d := g[l] - b[l]; l != layer && math.Abs(d) > 0.15*want+b[l] {
				t.Errorf("%s: %s moved %.3f ms/op from %.3f (injected %.3f into %s)", what, l, d, b[l], want, layer)
			}
		}
	}

	// The delays are several times the undelayed operation, so the host's
	// own swings (up to a third of a layer between runs) stay well inside
	// the tolerances.
	const hop = 300 * time.Microsecond
	base := traced("cluster-bpa2", delays{})
	requests := 0.0
	for k, v := range base {
		if strings.HasPrefix(k, "transport.wire.requests_per_op.") {
			requests += v
		}
	}
	check("owner handler", base, traced("cluster-bpa2", delays{owner: hop}), "transport.owner", requests*ms(hop))
	check("round trip", base, traced("cluster-bpa2", delays{wire: hop}), "transport.wire", requests*ms(hop))

	const read = 100 * time.Microsecond
	base = traced("cluster-tput-disk", delays{})
	check("stripe read", base, traced("cluster-tput-disk", delays{read: read}), "store.stripe",
		base["store.stripe.reads_per_query"]*ms(read))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
