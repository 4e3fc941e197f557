package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topk/internal/bestpos"
	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/score"
	"topk/internal/transport"
)

// overProtocols is the transport-driven lineup: every protocol as a
// function of a context and a Transport.
var overProtocols = []struct {
	name string
	run  func(context.Context, transport.Transport, Options) (*Result, error)
}{
	{"dist-ta", TAOver},
	{"dist-bpa", BPAOver},
	{"dist-bpa2", BPA2Over},
	{"tput", TPUTOver},
	{"tput-a", TPUTAOver},
}

// backends builds one instance of every transport backend over the same
// database: Loopback, Loopback under a latency model ("concurrent": the
// virtual clock of owners serving each round concurrently), and HTTP
// against httptest owner servers.
func backends(t *testing.T, db *list.Database) map[string]transport.Transport {
	t.Helper()
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]transport.Transport{
		"loopback": lb, "concurrent": latencyLoopback(t, db, time.Millisecond), "http": httpCluster(t, db),
	}
}

// latencyLoopback builds a Loopback priced at a constant round-trip.
func latencyLoopback(t *testing.T, db *list.Database, rtt time.Duration) transport.Transport {
	t.Helper()
	lb, err := transport.NewLatencyLoopback(db, transport.ConstantLatency(rtt))
	if err != nil {
		t.Fatal(err)
	}
	return lb
}

// httpCluster serves every list of db over httptest owners and dials
// them.
func httpCluster(t *testing.T, db *list.Database) *transport.HTTPClient {
	t.Helper()
	urls := make([]string, db.M())
	for i := range urls {
		srv, err := transport.NewServer(db, i)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	hc, err := transport.DialOwners(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hc.Close() })
	return hc
}

// TestBackendsBitIdentical is the cross-backend parity suite: every
// protocol must produce bit-identical answers, Net accounting (messages,
// payload, rounds, per-owner traffic) and access counts over Loopback,
// latency Loopback and HTTP on the seeded uniform and correlated
// workloads.
// Only Elapsed — the wall-clock measure — may differ, which is why it
// lives outside Net.
func TestBackendsBitIdentical(t *testing.T) {
	specs := map[string]gen.Spec{
		"uniform":    {Kind: gen.Uniform, N: 300, M: 4, Seed: 3},
		"correlated": {Kind: gen.Correlated, N: 250, M: 5, Alpha: 0.05, Seed: 4},
	}
	ctx := context.Background()
	for dbName, spec := range specs {
		db := gen.MustGenerate(spec)
		bks := backends(t, db)
		for _, p := range overProtocols {
			for _, k := range []int{1, 10} {
				opts := Options{K: k, Scoring: score.Sum{}}
				want, err := p.run(ctx, bks["loopback"], opts)
				if err != nil {
					t.Fatalf("%s/%s/loopback: %v", dbName, p.name, err)
				}
				for _, backend := range []string{"concurrent", "http"} {
					t.Run(fmt.Sprintf("%s/%s/k=%d/%s", dbName, p.name, k, backend), func(t *testing.T) {
						got, err := p.run(ctx, bks[backend], opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Items, want.Items) {
							t.Errorf("answers differ:\n%v\nvs loopback\n%v", got.Items, want.Items)
						}
						if !reflect.DeepEqual(got.Net, want.Net) {
							t.Errorf("Net differs: %+v vs loopback %+v", got.Net, want.Net)
						}
						if got.Accesses != want.Accesses {
							t.Errorf("accesses differ: %v vs loopback %v", got.Accesses, want.Accesses)
						}
						if got.StopPosition != want.StopPosition {
							t.Errorf("stop position %d vs loopback %d", got.StopPosition, want.StopPosition)
						}
						if got.Threshold != want.Threshold {
							t.Errorf("threshold %v vs loopback %v", got.Threshold, want.Threshold)
						}
						if !reflect.DeepEqual(got.BestPositions, want.BestPositions) {
							t.Errorf("best positions %v vs loopback %v", got.BestPositions, want.BestPositions)
						}
					})
				}
			}
		}
	}
}

// TestConcurrentSessionsParity is the session redesign's acceptance
// test: N goroutines running different queries over ONE shared HTTP
// cluster must produce answers, Net accounting and access counts
// bit-identical to the same queries run serially — owner-side state is
// keyed by session, so concurrency cannot leak between queries.
func TestConcurrentSessionsParity(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 300, M: 4, Seed: 11})
	hc := httpCluster(t, db)
	ctx := context.Background()

	// The workload: every protocol at several k values — 15 distinct
	// queries, all over the same four owners.
	type queryCase struct {
		name string
		run  func(context.Context, transport.Transport, Options) (*Result, error)
		k    int
	}
	var cases []queryCase
	for _, p := range overProtocols {
		for _, k := range []int{1, 7, 20} {
			cases = append(cases, queryCase{fmt.Sprintf("%s/k=%d", p.name, k), p.run, k})
		}
	}

	// Serial baselines.
	want := make([]*Result, len(cases))
	for i, c := range cases {
		res, err := c.run(ctx, hc, Options{K: c.k, Scoring: score.Sum{}})
		if err != nil {
			t.Fatalf("serial %s: %v", c.name, err)
		}
		want[i] = res
	}

	// The same queries, all in flight at once.
	got := make([]*Result, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func(i int, c queryCase) {
			defer wg.Done()
			got[i], errs[i] = c.run(ctx, hc, Options{K: c.k, Scoring: score.Sum{}})
		}(i, c)
	}
	wg.Wait()

	for i, c := range cases {
		if errs[i] != nil {
			t.Errorf("concurrent %s: %v", c.name, errs[i])
			continue
		}
		if !reflect.DeepEqual(got[i].Items, want[i].Items) {
			t.Errorf("%s: concurrent answers differ:\n%v\nvs serial\n%v", c.name, got[i].Items, want[i].Items)
		}
		if !reflect.DeepEqual(got[i].Net, want[i].Net) {
			t.Errorf("%s: concurrent Net differs: %+v vs serial %+v", c.name, got[i].Net, want[i].Net)
		}
		if got[i].Accesses != want[i].Accesses {
			t.Errorf("%s: concurrent accesses differ: %v vs serial %v", c.name, got[i].Accesses, want[i].Accesses)
		}
	}
}

// TestRoundCoalescing pins the wire-exchange accounting: TA and BPA
// coalesce each round's m-1 lookups per owner into one batched exchange
// (so a round costs exactly 2m wire round-trips), while BPA2 and the
// TPUT family address every owner at most once per fan-out and have
// nothing to coalesce (Exchanges == Messages/2). Logical message counts
// are untouched either way.
func TestRoundCoalescing(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 300, M: 4, Seed: 3})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m := int64(db.M())
	for _, p := range overProtocols {
		res, err := p.run(ctx, lb, Options{K: 10, Scoring: score.Sum{}})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		logical := res.Net.Messages / 2
		switch p.name {
		case "dist-ta", "dist-bpa":
			if want := int64(res.Net.Rounds) * 2 * m; res.Net.Exchanges != want {
				t.Errorf("%s: exchanges = %d, want %d (2m per round)", p.name, res.Net.Exchanges, want)
			}
			if res.Net.Exchanges >= logical {
				t.Errorf("%s: coalescing did not reduce exchanges (%d wire vs %d logical)",
					p.name, res.Net.Exchanges, logical)
			}
		default:
			if res.Net.Exchanges != logical {
				t.Errorf("%s: exchanges = %d, want %d (one per logical exchange)",
					p.name, res.Net.Exchanges, logical)
			}
		}
	}
}

// cancelAfter wraps a Transport so that the paired cancel function fires
// after a fixed number of data-plane exchanges — a deterministic way to
// cancel any backend mid-query.
type cancelAfter struct {
	transport.Transport
	cancel context.CancelFunc
	left   atomic.Int32
}

func (c *cancelAfter) Open(ctx context.Context, tracker bestpos.Kind) (transport.Session, error) {
	s, err := c.Transport.Open(ctx, tracker)
	if err != nil {
		return nil, err
	}
	return &cancelSession{Session: s, p: c}, nil
}

type cancelSession struct {
	transport.Session
	p *cancelAfter
}

func (s *cancelSession) tick(n int32) {
	if s.p.left.Add(-n) <= 0 {
		s.p.cancel()
	}
}

func (s *cancelSession) Do(ctx context.Context, owner int, req transport.Request) (transport.Response, error) {
	s.tick(1)
	return s.Session.Do(ctx, owner, req)
}

func (s *cancelSession) DoAll(ctx context.Context, calls []transport.Call) ([]transport.Response, error) {
	s.tick(int32(len(calls)))
	return s.Session.DoAll(ctx, calls)
}

// TestCancellationAllBackends: a ctx canceled mid-query must surface
// ctx.Err() from every protocol driver on every backend, promptly and
// without leaking goroutines (asserted via before/after goroutine
// counts; run under -race in CI).
func TestCancellationAllBackends(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 300, M: 4, Seed: 3})
	makeBackends := map[string]func(t *testing.T) transport.Transport{
		"loopback": func(t *testing.T) transport.Transport {
			lb, err := transport.NewLoopback(db)
			if err != nil {
				t.Fatal(err)
			}
			return lb
		},
		"concurrent": func(t *testing.T) transport.Transport {
			return latencyLoopback(t, db, time.Millisecond)
		},
		"http": func(t *testing.T) transport.Transport {
			return httpCluster(t, db)
		},
	}
	for backend, mk := range makeBackends {
		for _, p := range overProtocols {
			t.Run(backend+"/"+p.name, func(t *testing.T) {
				tr := mk(t)
				base := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				ca := &cancelAfter{Transport: tr, cancel: cancel}
				ca.left.Store(5) // cancel mid-protocol, after a handful of exchanges
				_, err := p.run(ctx, ca, Options{K: 10, Scoring: score.Sum{}})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("want context.Canceled, got %v", err)
				}
				waitGoroutines(t, base)
			})
		}
	}
}

// waitGoroutines waits for the goroutine count to settle back to at most
// base, tolerating scheduler and net/http teardown lag.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d, want <= %d", runtime.NumGoroutine(), base)
}

// TestCancellationReleasesSessions: a canceled query must not leave its
// session behind at the owners — the leak that would starve MaxSessions
// under churn.
func TestCancellationReleasesSessions(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 200, M: 3, Seed: 7})
	srvs := make([]*transport.Server, db.M())
	urls := make([]string, db.M())
	for i := range urls {
		srv, err := transport.NewServer(db, i)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		srvs[i] = srv
		urls[i] = ts.URL
	}
	hc, err := transport.DialOwners(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ca := &cancelAfter{Transport: hc, cancel: cancel}
	ca.left.Store(4)
	if _, err := BPA2Over(ctx, ca, Options{K: 10, Scoring: score.Sum{}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for i, srv := range srvs {
		if n := srv.Owner().Sessions(); n != 0 {
			t.Errorf("owner %d still holds %d sessions after cancellation", i, n)
		}
	}
}

// TestConcurrentLatencyRounds checks the latency model's round
// accounting: under a constant per-exchange round-trip, a protocol's
// simulated wall-clock is bounded below by its non-empty rounds (TPUT's
// phase 3 can resolve nothing and cost nothing) and strictly above-bound
// by the full serialization of all its exchanges — the virtual clock
// prices the owners of a round as serving concurrently. TPUT's three
// batched rounds must beat the per-access protocols by a wide margin;
// that fixed-round advantage is exactly what the uniform-threshold
// design buys.
func TestConcurrentLatencyRounds(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 300, M: 4, Seed: 9})
	ctx := context.Background()
	rtt := time.Millisecond
	elapsed := make(map[string]time.Duration)
	rounds := make(map[string]int)
	for _, p := range overProtocols {
		res, err := p.run(ctx, latencyLoopback(t, db, rtt), Options{K: 8, Scoring: score.Sum{}})
		if err != nil {
			t.Fatal(err)
		}
		elapsed[p.name], rounds[p.name] = res.Elapsed, res.Net.Rounds
		exchanges := res.Net.Messages / 2
		if min := time.Duration(res.Net.Rounds-1) * rtt; res.Elapsed < min {
			t.Errorf("%s: elapsed %v below one round-trip per non-empty round (%v)", p.name, res.Elapsed, min)
		}
		if res.Elapsed >= time.Duration(exchanges)*rtt {
			t.Errorf("%s: no overlap: %v for %d exchanges", p.name, res.Elapsed, exchanges)
		}
	}
	// TPUT pays three fan-outs however deep the scan; the per-access
	// protocols pay a data-dependent chain of rounds.
	for _, name := range []string{"dist-ta", "dist-bpa", "dist-bpa2"} {
		if elapsed["tput"] >= elapsed[name] {
			t.Errorf("TPUT (%v) not faster than %s (%v) under 1ms RTT",
				elapsed["tput"], name, elapsed[name])
		}
	}
	// BPA2 stops in fewer rounds than TA (better best positions), even
	// though each of its rounds chains m data-dependent probes.
	if rounds["dist-bpa2"] >= rounds["dist-ta"] {
		t.Errorf("BPA2 took %d rounds, TA only %d", rounds["dist-bpa2"], rounds["dist-ta"])
	}
}

// TestHTTPClusterMatchesCentralized is the acceptance scenario in
// miniature: HTTP owners (one per list), an originator driving BPA2 over
// them, and the answers matching the centralized run bit for bit —
// while the wall-clock is real, nonzero time.
func TestHTTPClusterMatchesCentralized(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 400, M: 3, Seed: 21})
	want, err := BPA2(db, Options{K: 10, Scoring: score.Sum{}})
	if err != nil {
		t.Fatal(err)
	}
	hc := httpCluster(t, db)
	got, err := BPA2Over(context.Background(), hc, Options{K: 10, Scoring: score.Sum{}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatalf("cluster answers differ from centralized:\n%v\nvs\n%v", got.Items, want.Items)
	}
	if got.Elapsed <= 0 {
		t.Error("HTTP run reported zero elapsed time")
	}
	if want.Elapsed != 0 {
		t.Errorf("loopback run reported nonzero elapsed %v", want.Elapsed)
	}
}

// killGate wraps one replica's handler so the test can crash it
// mid-query: once armed (killAfterRPCs >= 0), the gate serves that many
// /rpc calls and then aborts every connection — data plane and control
// plane alike, as a crashed process would.
type killGate struct {
	inner     http.Handler
	armed     bool
	remaining atomic.Int64
	dead      atomic.Bool
}

func newKillGate(inner http.Handler, killAfterRPCs int) *killGate {
	g := &killGate{inner: inner, armed: killAfterRPCs >= 0}
	g.remaining.Store(int64(killAfterRPCs))
	return g
}

func (g *killGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	if g.armed && strings.HasPrefix(r.URL.Path, "/rpc/") && g.remaining.Add(-1) < 0 {
		g.dead.Store(true)
		panic(http.ErrAbortHandler)
	}
	g.inner.ServeHTTP(w, r)
}

// replicatedCluster dials a topology serving every list of db from
// `reps` independent owner processes. gates[li][ri] controls each
// replica's life.
func replicatedCluster(t *testing.T, db *list.Database, reps int, policy transport.RoutingPolicy, killAfter func(li, ri int) int) (*transport.HTTPClient, [][]*killGate) {
	t.Helper()
	topo := make(transport.Topology, db.M())
	gates := make([][]*killGate, db.M())
	for li := 0; li < db.M(); li++ {
		for ri := 0; ri < reps; ri++ {
			srv, err := transport.NewServer(db, li)
			if err != nil {
				t.Fatal(err)
			}
			after := -1
			if killAfter != nil {
				after = killAfter(li, ri)
			}
			g := newKillGate(srv.Handler(), after)
			ts := httptest.NewServer(g)
			t.Cleanup(ts.Close)
			topo[li] = append(topo[li], ts.URL)
			gates[li] = append(gates[li], g)
		}
	}
	hc, err := transport.Dial(context.Background(), transport.DialConfig{
		Topology:       topo,
		Policy:         policy,
		HealthInterval: -1, // deterministic: only the data plane updates health
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hc.Close() })
	return hc, gates
}

// TestReplicatedTopologyParity extends the parity suite to replicated
// clusters: every protocol over a 2-replica-per-list topology, under
// every routing policy, must produce answers, Net accounting and access
// counts bit-identical to the loopback reference — replicas serve the
// same list, so routing must be invisible to everything but wall-clock.
func TestReplicatedTopologyParity(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 300, M: 4, Seed: 3})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	policies := []transport.RoutingPolicy{
		transport.RoutePrimary, transport.RouteRoundRobin, transport.RouteFastest,
	}
	for _, p := range overProtocols {
		opts := Options{K: 10, Scoring: score.Sum{}}
		want, err := p.run(ctx, lb, opts)
		if err != nil {
			t.Fatalf("%s/loopback: %v", p.name, err)
		}
		for _, policy := range policies {
			t.Run(fmt.Sprintf("%s/%s", p.name, policy), func(t *testing.T) {
				hc, _ := replicatedCluster(t, db, 2, policy, nil)
				got, err := p.run(ctx, hc, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Items, want.Items) {
					t.Errorf("answers differ:\n%v\nvs loopback\n%v", got.Items, want.Items)
				}
				if !reflect.DeepEqual(got.Net, want.Net) {
					t.Errorf("Net differs: %+v vs loopback %+v", got.Net, want.Net)
				}
				if got.Accesses != want.Accesses {
					t.Errorf("accesses differ: %v vs loopback %v", got.Accesses, want.Accesses)
				}
			})
		}
	}
}

// TestKillOwnerMidQuery is the zero-failed-queries acceptance scenario:
// one of the two replicas of list 0 is killed mid-query, on every
// protocol — and EVERY protocol must now complete, with answers,
// Messages, Payload, Rounds and access counts bit-identical to the
// healthy run. Stateless traffic (TA, BPA — sorted reads and lookups)
// fails over; cursor-bearing traffic (BPA2 probes, TPUT/TPUTA
// above-scans) hands the session off to the mirror replica the
// transport kept synced. Result.Recovery is the only place the kill
// shows up. Either way: no hangs, no goroutine leaks.
func TestKillOwnerMidQuery(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 300, M: 4, Seed: 3})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{K: 10, Scoring: score.Sum{}}

	cases := []struct {
		name      string
		run       func(context.Context, transport.Transport, Options) (*Result, error)
		killAfter int // /rpc calls list 0's replica 0 serves before dying
		handoffs  int // 0: stateless failover absorbs it; 1: session handoff
	}{
		// TA and BPA: every exchange is stateless — the killed replica's
		// in-flight exchange fails over and the query finishes untouched.
		{"dist-ta", TAOver, 3, 0},
		{"dist-bpa", BPAOver, 3, 0},
		// BPA2 pins its probe cursor to the replica that dies: the session
		// hands off to the synced mirror and resumes mid-protocol.
		{"dist-bpa2", BPA2Over, 2, 1},
		// TPUT family, killed during phase 2: the above-scan's depth
		// cursor moves to the mirror, which resumes at the synced depth.
		{"tput-above", TPUTOver, 1, 1},
		{"tput-a-above", TPUTAOver, 1, 1},
		// TPUT killed after phase 2: only the stateless phase-3 fetch is
		// left, which fails over — no handoff needed.
		{"tput-fetch", TPUTOver, 2, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.run(ctx, lb, opts)
			if err != nil {
				t.Fatal(err)
			}
			hc, gates := replicatedCluster(t, db, 2, transport.RoutePrimary, func(li, ri int) int {
				if li == 0 && ri == 0 {
					return c.killAfter
				}
				return -1
			})
			base := runtime.NumGoroutine()
			got, err := c.run(ctx, hc, opts)
			if !gates[0][0].dead.Load() {
				t.Fatal("the kill never fired: the test exercised a healthy cluster")
			}
			if err != nil {
				t.Fatalf("query did not survive the replica kill: %v", err)
			}
			if !reflect.DeepEqual(got.Items, want.Items) {
				t.Errorf("answers differ after recovery:\n%v\nvs healthy\n%v", got.Items, want.Items)
			}
			if !reflect.DeepEqual(got.Net, want.Net) {
				t.Errorf("Net differs after recovery: %+v vs healthy %+v", got.Net, want.Net)
			}
			if got.Accesses != want.Accesses {
				t.Errorf("accesses differ after recovery: %v vs healthy %v", got.Accesses, want.Accesses)
			}
			if got.Recovery.Handoffs != c.handoffs {
				t.Errorf("handoffs = %d, want %d", got.Recovery.Handoffs, c.handoffs)
			}
			if got.Recovery.FailedReplicas != 1 {
				t.Errorf("failed replicas = %d, want 1", got.Recovery.FailedReplicas)
			}
			if want.Recovery != (Recovery{}) {
				t.Errorf("healthy loopback run reported recovery %+v", want.Recovery)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestKillScheduleZeroFailedQueries is the exhaustive kill-any-replica-
// at-any-instant sweep: for every protocol and every routing policy,
// list 0's primary replica is killed after each possible number of
// served data-plane calls. As long as one replica of the list survives,
// every query must complete with answers and primary accounting
// bit-identical to the undisturbed loopback run — the kill may show up
// only in Result.Recovery.
func TestKillScheduleZeroFailedQueries(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 120, M: 3, Seed: 7})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{K: 6, Scoring: score.Sum{}}
	policies := []transport.RoutingPolicy{
		transport.RoutePrimary, transport.RouteRoundRobin, transport.RouteFastest,
	}
	for _, p := range overProtocols {
		want, err := p.run(ctx, lb, opts)
		if err != nil {
			t.Fatalf("%s/loopback: %v", p.name, err)
		}
		for _, policy := range policies {
			t.Run(fmt.Sprintf("%s/%s", p.name, policy), func(t *testing.T) {
				// Walk the kill instant forward until a run finishes without
				// the gate firing — every later instant is the healthy run.
				const maxInstant = 80
				fired := 0
				for ka := 0; ka < maxInstant; ka++ {
					hc, gates := replicatedCluster(t, db, 2, policy, func(li, ri int) int {
						if li == 0 && ri == 0 {
							return ka
						}
						return -1
					})
					got, err := p.run(ctx, hc, opts)
					if err != nil {
						t.Fatalf("kill at instant %d failed the query: %v", ka, err)
					}
					if !reflect.DeepEqual(got.Items, want.Items) {
						t.Fatalf("kill at instant %d changed the answers:\n%v\nvs\n%v", ka, got.Items, want.Items)
					}
					if !reflect.DeepEqual(got.Net, want.Net) {
						t.Fatalf("kill at instant %d changed Net: %+v vs %+v", ka, got.Net, want.Net)
					}
					if got.Accesses != want.Accesses {
						t.Fatalf("kill at instant %d changed accesses: %v vs %v", ka, got.Accesses, want.Accesses)
					}
					if !gates[0][0].dead.Load() {
						if got.Recovery != (Recovery{}) {
							t.Fatalf("undisturbed run reported recovery %+v", got.Recovery)
						}
						return // schedule exhausted
					}
					fired++
				}
				t.Fatalf("kill schedule did not converge within %d instants (%d kills fired)", maxInstant, fired)
			})
		}
	}
}

// TestKillUnpinnedReplica: killing the replica a session is NOT pinned
// to must be invisible even to the cursor-bearing protocols — BPA2
// completes bit-identically when the standby dies.
func TestKillUnpinnedReplica(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 300, M: 4, Seed: 3})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{K: 10, Scoring: score.Sum{}}
	want, err := BPA2Over(ctx, lb, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Primary policy pins everything to replica 0; replica 1 of every
	// list dies on its first data-plane call (it should never get one)
	// — and to make the kill actually fire mid-query, crash it outright
	// partway through via the gate's dead switch instead.
	hc, gates := replicatedCluster(t, db, 2, transport.RoutePrimary, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, g := range gates {
			g[1].dead.Store(true)
		}
	}()
	got, err := BPA2Over(ctx, hc, opts)
	<-done
	if err != nil {
		t.Fatalf("standby death failed the query: %v", err)
	}
	if !reflect.DeepEqual(got.Items, want.Items) || !reflect.DeepEqual(got.Net, want.Net) || got.Accesses != want.Accesses {
		t.Errorf("standby death perturbed the run: %+v vs %+v", got.Net, want.Net)
	}
}
