package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"topk/internal/chaos"
	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/score"
	"topk/internal/transport"
)

// chaosCluster dials a reps-replica-per-list topology through a seeded
// fault injector on the client side of the wire. DataPlaneOnly keeps
// the dial handshake and session control plane clean, so every run
// starts from a reachable cluster and the chaos lands exactly where
// the hardening machinery (retries, breakers, handoff, restart) is
// supposed to absorb it.
func chaosCluster(t *testing.T, db *list.Database, reps int, policy transport.RoutingPolicy, seed int64) (*transport.HTTPClient, *chaos.Injector) {
	t.Helper()
	topo := make(transport.Topology, db.M())
	for li := 0; li < db.M(); li++ {
		for ri := 0; ri < reps; ri++ {
			srv, err := transport.NewServer(db, li)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			topo[li] = append(topo[li], ts.URL)
		}
	}
	inj := chaos.New(chaos.Config{
		Seed:          seed,
		Delay:         0.04,
		Drop:          0.02,
		Stall:         0.005,
		Truncate:      0.01,
		Corrupt:       0.01,
		Err5xx:        0.02,
		Partition:     0.002,
		DelayDur:      2 * time.Millisecond,
		PartitionDur:  80 * time.Millisecond,
		DataPlaneOnly: true,
	})
	hc, err := transport.Dial(context.Background(), transport.DialConfig{
		Topology:         topo,
		Client:           &http.Client{Transport: &chaos.RoundTripper{In: inj}},
		Policy:           policy,
		HealthInterval:   50 * time.Millisecond,
		RequestTimeout:   250 * time.Millisecond,
		Retries:          2,
		BackoffBase:      time.Millisecond,
		BackoffCap:       20 * time.Millisecond,
		BreakerThreshold: 4,
		BreakerCooldown:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hc.Close() })
	return hc, inj
}

// typedChaosError reports whether err is one of the failure shapes a
// chaos run is allowed to surface: the restart driver's exhausted
// budget, a replica failure the transport could not absorb, or the
// caller's own deadline/cancellation. Anything else — and any silently
// wrong answer — is a hardening bug.
func typedChaosError(err error) bool {
	var ex *ExhaustedError
	var ofe *transport.OwnerFailedError
	return errors.As(err, &ex) || errors.As(err, &ofe) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// TestChaosParity is the chaos acceptance suite: every protocol, under
// every routing policy over two replicas per list and over a flat
// one-replica-per-list topology, driven through a seeded fault injector
// dealing delays, drops, stalls, torn frames, flipped bits, spurious
// 5xx and replica partitions. Every query must either complete
// bit-identically to the undisturbed loopback reference (answers, Net
// accounting, access counts) or fail with a typed error before its
// deadline — never a hang, never a silently wrong answer, never a
// leaked goroutine. The flat leg holds the accounting of exchanges
// re-sent after a torn or corrupt response: the owner served them
// twice, but the query must report them once.
func TestChaosParity(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 300, M: 3, Seed: 3})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	type ref struct{ want *Result }
	refs := map[string]ref{}
	ks := []int{1, 10}
	for _, p := range overProtocols {
		for _, k := range ks {
			want, err := p.run(ctx, lb, Options{K: k, Scoring: score.Sum{}})
			if err != nil {
				t.Fatalf("loopback %s/k=%d: %v", p.name, k, err)
			}
			refs[fmt.Sprintf("%s/%d", p.name, k)] = ref{want}
		}
	}

	legs := []struct {
		name   string
		reps   int
		policy transport.RoutingPolicy
	}{
		{transport.RoutePrimary.String(), 2, transport.RoutePrimary},
		{transport.RouteRoundRobin.String(), 2, transport.RouteRoundRobin},
		{transport.RouteFastest.String(), 2, transport.RouteFastest},
		{"flat", 1, transport.RoutePrimary},
	}
	completed, failed := 0, 0
	for li, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			hc, inj := chaosCluster(t, db, leg.reps, leg.policy, int64(1000+li))
			base := runtime.NumGoroutine()
			for _, p := range overProtocols {
				for _, k := range ks {
					want := refs[fmt.Sprintf("%s/%d", p.name, k)].want
					qctx, cancel := context.WithTimeout(ctx, 20*time.Second)
					got, err := RunWithRestart(qctx, func() (*Result, error) {
						return p.run(qctx, hc, Options{K: k, Scoring: score.Sum{}})
					}, RestartConfig{Policy: RestartAlways, MaxRestarts: 12})
					cancel()
					if err != nil {
						if !typedChaosError(err) {
							t.Errorf("%s/k=%d: untyped failure under chaos: %v", p.name, k, err)
						} else {
							t.Logf("%s/k=%d: typed failure: %v", p.name, k, err)
						}
						failed++
						continue
					}
					completed++
					if !reflect.DeepEqual(got.Items, want.Items) {
						t.Errorf("%s/k=%d: answers differ under chaos:\n%v\nvs loopback\n%v",
							p.name, k, got.Items, want.Items)
					}
					if !reflect.DeepEqual(got.Net, want.Net) {
						t.Errorf("%s/k=%d: Net differs under chaos: %+v vs %+v",
							p.name, k, got.Net, want.Net)
					}
					if got.Accesses != want.Accesses {
						t.Errorf("%s/k=%d: accesses differ: %v vs %v",
							p.name, k, got.Accesses, want.Accesses)
					}
					if got.StopPosition != want.StopPosition {
						t.Errorf("%s/k=%d: stop position %d vs %d",
							p.name, k, got.StopPosition, want.StopPosition)
					}
				}
			}
			// No query may leave a goroutine behind, however it ended.
			waitGoroutines(t, base)
			t.Logf("leg %s: injected %s over %d draws", leg.name, inj.Summary(), inj.Draws())
		})
	}
	t.Logf("chaos matrix: %d completed bit-identical, %d typed failures", completed, failed)
	if completed == 0 {
		t.Fatal("no query completed under chaos — fault rates drown the hardening entirely")
	}
}

// TestChaosSoak is the opt-in endurance run (TOPK_CHAOS_SOAK=1; CI runs
// it with -race): a fixed wall-clock budget of randomized protocol/k
// queries against a fresh seeded injector, holding the same invariant
// as TestChaosParity. The fixed seeds make a failing soak replayable.
func TestChaosSoak(t *testing.T) {
	if os.Getenv("TOPK_CHAOS_SOAK") == "" {
		t.Skip("soak disabled; set TOPK_CHAOS_SOAK=1")
	}
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 300, M: 3, Seed: 3})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hc, inj := chaosCluster(t, db, 2, transport.RouteRoundRobin, 777)
	base := runtime.NumGoroutine()

	rng := rand.New(rand.NewSource(99))
	deadline := time.Now().Add(30 * time.Second)
	runs, completed := 0, 0
	for time.Now().Before(deadline) {
		p := overProtocols[rng.Intn(len(overProtocols))]
		k := 1 + rng.Intn(10)
		opts := Options{K: k, Scoring: score.Sum{}}
		want, err := p.run(ctx, lb, opts)
		if err != nil {
			t.Fatalf("loopback %s/k=%d: %v", p.name, k, err)
		}
		qctx, cancel := context.WithTimeout(ctx, 20*time.Second)
		got, err := RunWithRestart(qctx, func() (*Result, error) {
			return p.run(qctx, hc, opts)
		}, RestartConfig{Policy: RestartAlways, MaxRestarts: 12})
		cancel()
		runs++
		if err != nil {
			if !typedChaosError(err) {
				t.Fatalf("%s/k=%d: untyped failure under chaos: %v", p.name, k, err)
			}
			continue
		}
		completed++
		if !reflect.DeepEqual(got.Items, want.Items) || !reflect.DeepEqual(got.Net, want.Net) ||
			got.Accesses != want.Accesses {
			t.Fatalf("%s/k=%d: run diverged from loopback under chaos", p.name, k)
		}
	}
	waitGoroutines(t, base)
	t.Logf("soak: %d/%d queries completed bit-identical; injected %s", completed, runs, inj.Summary())
	if completed == 0 {
		t.Fatal("soak completed nothing")
	}
}
