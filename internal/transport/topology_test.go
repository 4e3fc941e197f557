package transport

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"topk/internal/bestpos"
	"topk/internal/gen"
	"topk/internal/list"
)

// TestTopologyValidate: the shapes Dial must reject.
func TestTopologyValidate(t *testing.T) {
	bad := []Topology{
		nil,
		{},
		{{"a"}, {}},
		{{"a"}, {" "}},
	}
	for _, tp := range bad {
		if err := tp.Validate(); err == nil {
			t.Errorf("topology %v accepted", tp)
		}
	}
	ok := Topology{{"a", "b"}, {"c"}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
	if !ok.Replicated() {
		t.Error("two-replica list not reported as replicated")
	}
	if SingleTopology([]string{"a", "b"}).Replicated() {
		t.Error("flat topology reported as replicated")
	}
}

// TestParseRoutingPolicy: every policy's String round-trips, plus the
// accepted aliases and case forms.
func TestParseRoutingPolicy(t *testing.T) {
	for _, p := range []RoutingPolicy{RoutePrimary, RouteRoundRobin, RouteFastest} {
		got, err := ParseRoutingPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseRoutingPolicy(%q) = %v, %v", p.String(), got, err)
		}
		got, err = ParseRoutingPolicy("  " + strings.ToUpper(p.String()) + " ")
		if err != nil || got != p {
			t.Errorf("ParseRoutingPolicy(noisy %q) = %v, %v", p.String(), got, err)
		}
	}
	if p, err := ParseRoutingPolicy("rr"); err != nil || p != RouteRoundRobin {
		t.Errorf("rr alias = %v, %v", p, err)
	}
	if p, err := ParseRoutingPolicy(""); err != nil || p != RoutePrimary {
		t.Errorf("empty policy = %v, %v", p, err)
	}
	if _, err := ParseRoutingPolicy("zzz"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// routeClient builds an un-dialed client with synthetic replicas, for
// driving route directly.
func routeClient(policy RoutingPolicy, healthy []bool, ewma []time.Duration) *HTTPClient {
	t := &HTTPClient{policy: policy, rr: make([]atomic.Uint32, 1)}
	reps := make([]*replica, len(healthy))
	for i := range reps {
		reps[i] = &replica{list: 0, index: i, url: "u"}
		reps[i].validated.Store(true)
		reps[i].healthy.Store(healthy[i])
		if ewma != nil {
			reps[i].ewma.Store(int64(ewma[i]))
		}
	}
	t.lists = [][]*replica{reps}
	return t
}

// TestRoutePolicies pins each policy's selection behaviour, including
// the healthy-first preference and the all-unhealthy fallback.
func TestRoutePolicies(t *testing.T) {
	// Primary skips unhealthy replica 0.
	c := routeClient(RoutePrimary, []bool{false, true, true}, nil)
	if r := c.route(0, nil, nil); r.index != 1 {
		t.Errorf("primary routed to %d, want 1", r.index)
	}
	// All unhealthy: the policy still picks someone (verdicts go stale).
	c = routeClient(RoutePrimary, []bool{false, false}, nil)
	if r := c.route(0, nil, nil); r == nil {
		t.Error("all-unhealthy list routed to nobody")
	}
	// Round-robin rotates over the healthy subset.
	c = routeClient(RouteRoundRobin, []bool{true, false, true}, nil)
	seen := map[int]int{}
	for i := 0; i < 4; i++ {
		seen[c.route(0, nil, nil).index]++
	}
	if seen[0] != 2 || seen[2] != 2 || seen[1] != 0 {
		t.Errorf("round-robin distribution %v, want 0 and 2 twice each", seen)
	}
	// Fastest picks the lowest EWMA; an unmeasured replica is explored.
	c = routeClient(RouteFastest, []bool{true, true}, []time.Duration{5 * time.Millisecond, time.Millisecond})
	if r := c.route(0, nil, nil); r.index != 1 {
		t.Errorf("fastest routed to %d, want 1", r.index)
	}
	c = routeClient(RouteFastest, []bool{true, true}, []time.Duration{5 * time.Millisecond, 0})
	if r := c.route(0, nil, nil); r.index != 1 {
		t.Errorf("fastest did not explore the unmeasured replica (got %d)", r.index)
	}
	// tried excludes, allowed filters.
	c = routeClient(RoutePrimary, []bool{true, true}, nil)
	if r := c.route(0, nil, []bool{true, false}); r.index != 1 {
		t.Errorf("tried filter routed to %d, want 1", r.index)
	}
	if r := c.route(0, []bool{true, false}, []bool{true, false}); r != nil {
		t.Errorf("exhausted filters routed to %d, want nobody", r.index)
	}
}

// replicatedDB is the shared 2-list database of the replica tests.
func replicatedDB(t *testing.T) *list.Database {
	t.Helper()
	return gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 80, M: 2, Seed: 9})
}

// startReplicas serves each list of db from `reps` independent owner
// processes and returns topology plus the servers, indexed [list][replica].
func startReplicas(t *testing.T, db *list.Database, reps int) (Topology, [][]*Server) {
	t.Helper()
	topo := make(Topology, db.M())
	servers := make([][]*Server, db.M())
	for li := 0; li < db.M(); li++ {
		for ri := 0; ri < reps; ri++ {
			srv, err := NewServer(db, li)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			topo[li] = append(topo[li], ts.URL)
			servers[li] = append(servers[li], srv)
		}
	}
	return topo, servers
}

// TestReplicatedOpenFansOut: a session must exist at EVERY replica of
// every list — the invariant that makes failover lossless — and close
// must release all of them.
func TestReplicatedOpenFansOut(t *testing.T) {
	db := replicatedDB(t)
	topo, servers := startReplicas(t, db, 2)
	hc, err := Dial(context.Background(), DialConfig{Topology: topo, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s, err := hc.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	for li := range servers {
		for ri, srv := range servers[li] {
			if n := srv.Owner().Sessions(); n != 1 {
				t.Errorf("list %d replica %d holds %d sessions, want 1", li, ri, n)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for li := range servers {
		for ri, srv := range servers[li] {
			if n := srv.Owner().Sessions(); n != 0 {
				t.Errorf("list %d replica %d holds %d sessions after close", li, ri, n)
			}
		}
	}
}

// flakyGate wraps a replica's handler so the test can abort its
// connections (a crash) or fail a fixed number of /rpc calls.
type flakyGate struct {
	inner http.Handler
	dead  atomic.Bool
}

func (g *flakyGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	g.inner.ServeHTTP(w, r)
}

// TestStatelessFailover: killing the replica serving a session's
// stateless traffic mid-query must fail the exchange over to the
// sibling — same answers, session state intact — and tally the
// failover.
func TestStatelessFailover(t *testing.T) {
	// One-list database so the single-list topology agrees on M.
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 80, M: 1, Seed: 9})
	srvA, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	gateA := &flakyGate{inner: srvA.Handler()}
	tsA := httptest.NewServer(gateA)
	defer tsA.Close()
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	hc, err := Dial(context.Background(), DialConfig{
		Topology:       Topology{{tsA.URL, tsB.URL}},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s, err := hc.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// Primary policy: replica A serves first.
	if _, err := s.Do(ctx, 0, SortedReq{Pos: 1}); err != nil {
		t.Fatal(err)
	}
	// Kill A; the next stateless exchange must fail over to B.
	gateA.dead.Store(true)
	resp, err := s.Do(ctx, 0, SortedReq{Pos: 2})
	if err != nil {
		t.Fatalf("stateless exchange did not fail over: %v", err)
	}
	if got := resp.(SortedResp).Entry; got != one.List(0).At(2) {
		t.Errorf("failover answered %+v", got)
	}
	h := hc.Health()
	if h[0].Healthy {
		t.Error("dead replica still marked healthy")
	}
	if h[1].Failovers != 1 {
		t.Errorf("replica B failovers = %d, want 1", h[1].Failovers)
	}
	if h[0].Failures == 0 {
		t.Error("replica A failure not tallied")
	}
	// The ledger keeps the access tally coherent across the failover.
	st, err := s.Stats(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses.Sorted != 2 {
		t.Errorf("sorted accesses after failover = %d, want 2", st.Accesses.Sorted)
	}
}

// TestSessionfulPinAndOwnerFailedError: cursor-bearing traffic sticks
// to one replica; when that replica dies with no synced mirror left, the
// session fails fast with the typed error naming list and replica — it
// must NOT resume on the sibling whose cursors never advanced. The
// mirror is taken out first: replica B dies after the open, so the
// pin's sync to it and every promotion onto it fail and the session
// runs unmirrored. (With a live mirror the pin's death is absorbed; see
// TestSessionfulHandoff.)
func TestSessionfulPinAndOwnerFailedError(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 80, M: 1, Seed: 9})
	srvA, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	gateA := &flakyGate{inner: srvA.Handler()}
	tsA := httptest.NewServer(gateA)
	defer tsA.Close()
	gateB := &flakyGate{inner: srvB.Handler()}
	tsB := httptest.NewServer(gateB)
	defer tsB.Close()
	hc, err := Dial(context.Background(), DialConfig{
		Topology:       Topology{{tsA.URL, tsB.URL}},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s, err := hc.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// B acknowledged the open, so it is the session's mirror-to-be; kill
	// it before the first sessionful exchange syncs to it.
	gateB.dead.Store(true)

	// Two probes pin the session to replica A and advance its cursor.
	for i := 1; i <= 2; i++ {
		resp, err := s.Do(ctx, 0, ProbeReq{})
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.(ProbeResp).Entry; got != one.List(0).At(i) {
			t.Fatalf("probe %d = %+v", i, got)
		}
	}
	if a := srvA.Owner(); a == nil {
		t.Fatal("no owner")
	}
	// The cursor must live on A alone: B has seen nothing.
	stB, err := srvB.Owner().SessionStats(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	if stB.Best != 0 || stB.Accesses.Total() != 0 {
		t.Errorf("sessionful traffic leaked to the unpinned replica: %+v", stB)
	}
	recovery := func() SessionRecovery { return s.(interface{ Recovery() SessionRecovery }).Recovery() }
	if rec := recovery(); rec.FailedReplicas != 1 {
		t.Errorf("the dead mirror's failed syncs were not tallied: %+v", rec)
	}

	// Kill the pinned replica: the next probe is a typed failure.
	gateA.dead.Store(true)
	_, err = s.Do(ctx, 0, ProbeReq{})
	var ofe *OwnerFailedError
	if !errors.As(err, &ofe) {
		t.Fatalf("pinned-replica death surfaced as %v, want *OwnerFailedError", err)
	}
	if ofe.List != 0 || ofe.Replica != 0 || ofe.URL != tsA.URL {
		t.Errorf("OwnerFailedError = %+v, want list 0 replica 0 %s", ofe, tsA.URL)
	}
	if !strings.Contains(ofe.Error(), "owner 0") || !strings.Contains(ofe.Error(), "replica 0") {
		t.Errorf("error text does not name list+replica: %s", ofe.Error())
	}
	// A replayable sessionful exchange dies on the pinned replica too —
	// it must not carry the tracker to the sibling.
	_, err = s.Do(ctx, 0, MarkReq{Item: one.List(0).At(5).Item})
	if !errors.As(err, &ofe) {
		t.Fatalf("mark on dead pinned replica: %v, want *OwnerFailedError", err)
	}
	// B's cursor is still untouched.
	stB, err = srvB.Owner().SessionStats(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	if stB.Best != 0 {
		t.Errorf("failed sessionful traffic moved to the sibling: best=%d", stB.Best)
	}
	if rec := recovery(); rec.Handoffs != 0 {
		t.Errorf("session handed off to an unsynced sibling: %+v", rec)
	}
}

// TestHealthProber: the background prober demotes a replica whose
// /healthz stops answering and revives it when it returns.
func TestHealthProber(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 40, M: 1, Seed: 3})
	srvA, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
			return
		}
		srvA.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	srvB, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	hc, err := Dial(context.Background(), DialConfig{
		Topology:       Topology{{ts.URL, tsB.URL}},
		HealthInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	waitVerdict := func(want bool) bool {
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if hc.Health()[0].Healthy == want {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
		return false
	}
	if !hc.Health()[0].Healthy {
		t.Fatal("replica unhealthy after dial")
	}
	down.Store(true)
	if !waitVerdict(false) {
		t.Fatal("prober never demoted the failing replica")
	}
	down.Store(false)
	if !waitVerdict(true) {
		t.Fatal("prober never revived the recovered replica")
	}
	if hc.Health()[0].Latency <= 0 {
		t.Error("no EWMA latency measured")
	}
}

// TestDialToleratesDeadReplica: a replica that is down at dial time is
// tolerated (marked unhealthy) as long as its list has a live sibling; a
// list with no live replica fails the dial.
func TestDialToleratesDeadReplica(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 40, M: 1, Seed: 3})
	srv, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hc, err := Dial(context.Background(), DialConfig{
		Topology:       Topology{{"http://127.0.0.1:1", ts.URL}},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatalf("dial with one dead replica: %v", err)
	}
	defer hc.Close()
	h := hc.Health()
	if h[0].Healthy || !h[1].Healthy {
		t.Errorf("health after dial = %+v", h)
	}
	// Queries route around the dead replica from the start.
	s, err := hc.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Do(context.Background(), 0, SortedReq{Pos: 1}); err != nil {
		t.Errorf("query against degraded list: %v", err)
	}

	// Every replica down: dial must fail.
	if _, err := Dial(context.Background(), DialConfig{
		Topology:       Topology{{"http://127.0.0.1:1"}},
		HealthInterval: -1,
	}); err == nil {
		t.Error("list with no live replica dialed")
	}
}

// TestReplicaIdentityInStats: topk-owner's -replica label travels the
// /stats handshake.
func TestReplicaIdentityInStats(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 40, M: 1, Seed: 3})
	srv, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Owner().SetReplicaID("b")
	if st := srv.Owner().Info(); st.Replica != "b" {
		t.Errorf("Info().Replica = %q, want b", st.Replica)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc, err := Dial(context.Background(), DialConfig{Topology: Topology{{ts.URL}}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	st, err := hc.replicaInfo(context.Background(), hc.lists[0][0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Replica != "b" {
		t.Errorf("handshake Replica = %q, want b", st.Replica)
	}
}

// TestLedgerAboveAccounting pins the one subtle ledger rule: an
// above-scan charges the below-threshold read that stopped it, except
// when it ran off the end of the list.
func TestLedgerAboveAccounting(t *testing.T) {
	n := 10
	var l ledger
	// TopK sets the depth and charges K sorted reads.
	l.record(TopKReq{K: 3}, TopKResp{}, n)
	if l.sorted != 3 || l.depth != 3 {
		t.Fatalf("after topk: %+v", l)
	}
	// Above returning 4 entries stopped on a 5th below-threshold read.
	l.record(AboveReq{T: 0.5}, AboveResp{Entries: make([]list.Entry, 4)}, n)
	if l.sorted != 3+5 || l.depth != 8 {
		t.Fatalf("after above: %+v", l)
	}
	// Above returning the remaining 2 entries ran off the end: no
	// stopping read to charge.
	l.record(AboveReq{T: 0.1}, AboveResp{Entries: make([]list.Entry, 2)}, n)
	if l.sorted != 8+2 || l.depth != 10 {
		t.Fatalf("after tail above: %+v", l)
	}
	// At the end, a further above charges nothing.
	l.record(AboveReq{T: 0}, AboveResp{}, n)
	if l.sorted != 10 || l.depth != 10 {
		t.Fatalf("after exhausted above: %+v", l)
	}
	// Batches recurse into their members.
	var b ledger
	b.record(BatchReq{Reqs: []Request{SortedReq{Pos: 1}, LookupReq{Item: 1}, MarkReq{Item: 2}}},
		BatchResp{Resps: []Response{SortedResp{}, LookupResp{}, MarkResp{}}}, n)
	if b.sorted != 1 || b.random != 2 {
		t.Fatalf("batch ledger: %+v", b)
	}
	// An empty probe charges nothing; a real one charges a direct read.
	var p ledger
	p.record(ProbeReq{}, ProbeResp{Empty: true}, n)
	p.record(ProbeReq{}, ProbeResp{}, n)
	if p.direct != 1 {
		t.Fatalf("probe ledger: %+v", p)
	}
}

// TestSessionfulClassification pins which kinds pin their session —
// the routing contract of the replica layer.
func TestSessionfulClassification(t *testing.T) {
	sessionful := map[Kind]bool{
		KindSorted: false, KindLookup: false, KindFetch: false,
		KindProbe: true, KindMark: true, KindTopK: true, KindAbove: true,
	}
	for _, req := range []Request{
		SortedReq{}, LookupReq{}, ProbeReq{}, MarkReq{}, TopKReq{}, AboveReq{}, FetchReq{},
	} {
		if got := req.Sessionful(); got != sessionful[req.Kind()] {
			t.Errorf("%s sessionful = %v, want %v", req.Kind(), got, sessionful[req.Kind()])
		}
	}
	if (BatchReq{Reqs: []Request{SortedReq{}, LookupReq{}}}).Sessionful() {
		t.Error("stateless batch reported sessionful")
	}
	if !(BatchReq{Reqs: []Request{SortedReq{}, ProbeReq{}}}).Sessionful() {
		t.Error("probe-carrying batch reported stateless")
	}
}

// lateGate answers 503 until opened — a replica process that is down
// while the cluster dials and comes up afterwards.
type lateGate struct {
	inner http.Handler
	up    atomic.Bool
}

func (g *lateGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !g.up.Load() {
		http.Error(w, `{"error":"starting"}`, http.StatusServiceUnavailable)
		return
	}
	g.inner.ServeHTTP(w, r)
}

// TestProberValidatesLateReplica: a replica that was down at dial time
// must pass the full shape handshake before the prober ever routes to
// it — a correct late-comer joins, a misconfigured one (serving the
// wrong list) stays unroutable forever.
func TestProberValidatesLateReplica(t *testing.T) {
	db := replicatedDB(t) // m=2
	good0, err := NewServer(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts0 := httptest.NewServer(good0.Handler())
	defer ts0.Close()
	good1, err := NewServer(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(good1.Handler())
	defer ts1.Close()

	// Late replica of list 0, correctly configured.
	late, err := NewServer(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	lateG := &lateGate{inner: late.Handler()}
	tsLate := httptest.NewServer(lateG)
	defer tsLate.Close()
	// Late replica slot of list 1 that actually serves list 0 — the
	// misconfiguration the shape check must catch.
	wrong, err := NewServer(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	wrongG := &lateGate{inner: wrong.Handler()}
	tsWrong := httptest.NewServer(wrongG)
	defer tsWrong.Close()

	hc, err := Dial(context.Background(), DialConfig{
		Topology:       Topology{{ts0.URL, tsLate.URL}, {ts1.URL, tsWrong.URL}},
		HealthInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	if h := hc.Health(); h[1].Healthy || h[3].Healthy {
		t.Fatalf("down-at-dial replicas healthy: %+v", h)
	}

	lateG.up.Store(true)
	wrongG.up.Store(true)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && !hc.Health()[1].Healthy {
		time.Sleep(5 * time.Millisecond)
	}
	h := hc.Health()
	if !h[1].Healthy {
		t.Fatal("correct late replica never validated")
	}
	if !hc.lists[0][1].validated.Load() {
		t.Error("late replica healthy but not validated")
	}
	// The misconfigured one must NEVER become routable, however long the
	// prober runs.
	time.Sleep(100 * time.Millisecond)
	if hc.Health()[3].Healthy || hc.lists[1][1].validated.Load() {
		t.Error("wrong-list replica was validated — it would serve wrong data")
	}
	// Traffic can use the validated late replica and keeps avoiding the
	// invalid one.
	s, err := hc.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		if _, err := s.Do(context.Background(), 1, SortedReq{Pos: 1}); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
	}
}

// TestStatelessFailoverTriesEveryReplica: with three replicas and two
// dead, a stateless exchange must walk past the flat retry budget and
// reach the last live sibling.
func TestStatelessFailoverTriesEveryReplica(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 80, M: 1, Seed: 9})
	var gates []*flakyGate
	topo := Topology{nil}
	for i := 0; i < 3; i++ {
		srv, err := NewServer(one, 0)
		if err != nil {
			t.Fatal(err)
		}
		g := &flakyGate{inner: srv.Handler()}
		ts := httptest.NewServer(g)
		t.Cleanup(ts.Close)
		gates = append(gates, g)
		topo[0] = append(topo[0], ts.URL)
	}
	hc, err := Dial(context.Background(), DialConfig{Topology: topo, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s, err := hc.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Replicas 0 and 1 crash; replica 2 must still carry the read even
	// though the default budget alone (1+1 attempts) would stop short.
	gates[0].dead.Store(true)
	gates[1].dead.Store(true)
	resp, err := s.Do(context.Background(), 0, SortedReq{Pos: 1})
	if err != nil {
		t.Fatalf("exchange with one live replica of three: %v", err)
	}
	if got := resp.(SortedResp).Entry; got != one.List(0).At(1) {
		t.Errorf("answered %+v", got)
	}
}

// TestExhaustedStatelessIsNotOwnerFailedError: when stateless traffic
// runs out of replicas entirely, the failure must NOT be the typed
// OwnerFailedError — that type's contract is "rerun the query, a fresh
// session pins to a live replica", which cannot help when every replica
// is dead (including the flat single-owner case).
func TestExhaustedStatelessIsNotOwnerFailedError(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 80, M: 1, Seed: 9})
	srv, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := &flakyGate{inner: srv.Handler()}
	ts := httptest.NewServer(g)
	defer ts.Close()
	hc, err := Dial(context.Background(), DialConfig{Topology: Topology{{ts.URL}}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s, err := hc.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g.dead.Store(true)
	_, err = s.Do(context.Background(), 0, SortedReq{Pos: 1})
	if err == nil {
		t.Fatal("dead cluster answered")
	}
	var ofe *OwnerFailedError
	if errors.As(err, &ofe) {
		t.Errorf("exhausted stateless failure is typed OwnerFailedError: %v", err)
	}
	if !strings.Contains(err.Error(), "owner 0") {
		t.Errorf("error does not name the owner: %v", err)
	}
}

// TestFlatDialSpawnsNoProber: the pre-replica dial spawned no background
// goroutines; a flat topology must keep that, while a replicated one
// runs the prober until Close.
func TestFlatDialSpawnsNoProber(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 40, M: 1, Seed: 3})
	srv, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	flat, err := DialOwners([]string{ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	if flat.proberDone != nil {
		t.Error("flat dial started the health prober")
	}
	srv2, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	repl, err := Dial(context.Background(), DialConfig{Topology: Topology{{ts.URL, ts2.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	if repl.proberDone == nil {
		t.Error("replicated dial did not start the health prober")
	}
}

// TestOpenExcludesStalledReplica: a replica that hangs on /session/open
// must not stall query start past the open cap — the session proceeds
// on its sibling, with the stalled replica excluded from routing.
func TestOpenExcludesStalledReplica(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 40, M: 1, Seed: 3})
	srvA, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()
	srvB, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The stall is bounded (not gated on a channel) so the deferred
	// httptest Close, which waits for in-flight handlers, terminates.
	const stall = 1500 * time.Millisecond
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/session/open" {
			time.Sleep(stall) // far beyond the 200ms open cap below
		}
		srvB.Handler().ServeHTTP(w, r)
	}))
	defer tsB.Close()
	hc, err := Dial(context.Background(), DialConfig{
		Topology:       Topology{{tsA.URL, tsB.URL}},
		RequestTimeout: 200 * time.Millisecond, // open cap = min(this, openTimeout)
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	start := time.Now()
	s, err := hc.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatalf("open with one stalled replica: %v", err)
	}
	defer s.Close()
	// Must beat the stall by a wide margin: waiting the handler out
	// (~1.5s) would mean the cap never applied.
	if d := time.Since(start); d > time.Second {
		t.Errorf("open stalled %v behind the hung replica", d)
	}
	// The session runs on the replica that acknowledged.
	if _, err := s.Do(context.Background(), 0, SortedReq{Pos: 1}); err != nil {
		t.Errorf("query after degraded open: %v", err)
	}
}

// swapGate lets the test replace a replica's handler mid-query — a
// process that crashed and restarted empty (same address, no sessions).
type swapGate struct {
	h atomic.Pointer[http.Handler]
}

func (g *swapGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*g.h.Load()).ServeHTTP(w, r)
}

// TestRestartedReplicaFailsOver: a replica that restarts mid-query
// answers "unknown session" (404) with a healthy /healthz — stateless
// traffic must treat that as this-replica-lost-the-session and fail
// over to the sibling that still holds it, not abort the query;
// sessionful traffic on a restarted pinned replica fails typed.
func TestRestartedReplicaFailsOver(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 80, M: 1, Seed: 9})
	mkHandler := func() http.Handler {
		srv, err := NewServer(one, 0)
		if err != nil {
			t.Fatal(err)
		}
		return srv.Handler()
	}
	gateA := &swapGate{}
	h := mkHandler()
	gateA.h.Store(&h)
	tsA := httptest.NewServer(gateA)
	defer tsA.Close()
	tsB := httptest.NewServer(mkHandler())
	defer tsB.Close()
	hc, err := Dial(context.Background(), DialConfig{
		Topology:       Topology{{tsA.URL, tsB.URL}},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	ctx := context.Background()

	s, err := hc.Open(ctx, bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Do(ctx, 0, SortedReq{Pos: 1}); err != nil {
		t.Fatal(err)
	}
	// Replica A "restarts": fresh owner, same address, the old session
	// gone but every new request answered (healthy by every probe).
	fresh := mkHandler()
	gateA.h.Store(&fresh)
	resp, err := s.Do(ctx, 0, SortedReq{Pos: 2})
	if err != nil {
		t.Fatalf("stateless exchange did not survive the replica restart: %v", err)
	}
	if got := resp.(SortedResp).Entry; got != one.List(0).At(2) {
		t.Errorf("failover answered %+v", got)
	}
	// The restarted replica is out of this session's routing for good:
	// further reads keep working without touching it.
	for p := 3; p <= 5; p++ {
		if _, err := s.Do(ctx, 0, SortedReq{Pos: p}); err != nil {
			t.Fatalf("read %d after restart: %v", p, err)
		}
	}
	if st, err := s.Stats(ctx, 0); err != nil || st.Accesses.Sorted != 5 {
		t.Errorf("ledger after restart failover: %+v, %v", st.Accesses, err)
	}

	// Sessionful traffic pinned to a replica that restarts (session
	// gone, 404 on every exchange) hands off to the mirroring sibling
	// and resumes exactly where the dead pin left it.
	s2, err := hc.Open(ctx, bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Do(ctx, 0, ProbeReq{}); err != nil {
		t.Fatal(err) // pins to replica 0 (primary), mirrors to replica 1
	}
	fresh2 := mkHandler()
	gateA.h.Store(&fresh2)
	resp, err = s2.Do(ctx, 0, ProbeReq{})
	if err != nil {
		t.Fatalf("probe on restarted pinned replica did not hand off: %v", err)
	}
	if got := resp.(ProbeResp).Entry; got != one.List(0).At(2) {
		t.Errorf("handoff probe = %+v, want position 2", got)
	}
	rec := s2.(*httpSession).Recovery()
	if rec.Handoffs != 1 {
		t.Errorf("handoffs = %d, want 1", rec.Handoffs)
	}
}

// TestSessionfulHandoff: with handoff on (the default), killing the
// replica a session's cursor-bearing traffic is pinned to re-pins the
// session to the sibling that mirrors its state — the query resumes
// exactly where the dead pin left it, no cursor advances twice, and the
// ledger accounting is identical to an undisturbed run.
func TestSessionfulHandoff(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 80, M: 1, Seed: 9})
	srvA, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	gateA := &flakyGate{inner: srvA.Handler()}
	tsA := httptest.NewServer(gateA)
	defer tsA.Close()
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	hc, err := Dial(context.Background(), DialConfig{
		Topology:       Topology{{tsA.URL, tsB.URL}},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s, err := hc.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// Two probes pin to A; each synchronously mirrors its position to B.
	for i := 1; i <= 2; i++ {
		resp, err := s.Do(ctx, 0, ProbeReq{})
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.(ProbeResp).Entry; got != one.List(0).At(i) {
			t.Fatalf("probe %d = %+v", i, got)
		}
	}
	// The mirror holds the state delta without being charged for it.
	stB, err := srvB.Owner().SessionStats(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	if stB.Best != 2 {
		t.Errorf("mirror best = %d, want 2 (positions 1,2 mirrored)", stB.Best)
	}
	if stB.Accesses.Total() != 0 {
		t.Errorf("mirroring charged the sibling: %+v", stB.Accesses)
	}

	// Kill the pin: the next probe hands off to B and resumes at 3.
	gateA.dead.Store(true)
	for i := 3; i <= 4; i++ {
		resp, err := s.Do(ctx, 0, ProbeReq{})
		if err != nil {
			t.Fatalf("probe %d after pin death did not hand off: %v", i, err)
		}
		if got := resp.(ProbeResp).Entry; got != one.List(0).At(i) {
			t.Errorf("probe %d after handoff = %+v", i, got)
		}
	}
	// A replayable sessionful exchange works on the new pin too.
	if _, err := s.Do(ctx, 0, MarkReq{Item: one.List(0).At(9).Item}); err != nil {
		t.Fatalf("mark after handoff: %v", err)
	}
	// The ledger reports what an undisturbed run would: 4 probes + 1 mark.
	st, err := s.Stats(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses.Direct != 4 || st.Accesses.Random != 1 {
		t.Errorf("accesses after handoff = %+v, want direct=4 random=1", st.Accesses)
	}
	rec := s.(*httpSession).Recovery()
	if rec.Handoffs != 1 || rec.FailedReplicas != 1 {
		t.Errorf("recovery = %+v, want 1 handoff, 1 failed replica", rec)
	}

	// Kill the promoted pin too: nothing left to hand off to — the typed
	// error names the replica that exhausted the session.
	gateB := &flakyGate{inner: srvB.Handler()}
	_ = gateB // tsB has no gate; close the server instead.
	tsB.Close()
	_, err = s.Do(ctx, 0, ProbeReq{})
	var ofe *OwnerFailedError
	if !errors.As(err, &ofe) {
		t.Fatalf("death of the last replica surfaced as %v, want *OwnerFailedError", err)
	}
	if ofe.List != 0 || ofe.Replica != 1 {
		t.Errorf("OwnerFailedError = list %d replica %d, want list 0 replica 1", ofe.List, ofe.Replica)
	}
}

// TestHandoffDepthSync: the mirrored state includes the scan depth, so
// a TPUT-style topk-then-above sequence split across a handoff answers
// and accounts exactly like an undisturbed run against one owner.
func TestHandoffDepthSync(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 80, M: 1, Seed: 9})
	mkServer := func() *Server {
		srv, err := NewServer(one, 0)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	gateA := &flakyGate{inner: mkServer().Handler()}
	tsA := httptest.NewServer(gateA)
	defer tsA.Close()
	tsB := httptest.NewServer(mkServer().Handler())
	defer tsB.Close()
	// Control: the same sequence against a single always-alive owner.
	tsC := httptest.NewServer(mkServer().Handler())
	defer tsC.Close()
	ctx := context.Background()

	hc, err := Dial(ctx, DialConfig{Topology: Topology{{tsA.URL, tsB.URL}}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	cc, err := Dial(ctx, DialConfig{Topology: Topology{{tsC.URL}}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	s, err := hc.Open(ctx, bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctl, err := cc.Open(ctx, bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	k1, err := s.Do(ctx, 0, TopKReq{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	ck1, err := ctl.Do(ctx, 0, TopKReq{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(k1, ck1) {
		t.Fatalf("topk diverged before the kill: %+v vs %+v", k1, ck1)
	}
	// Kill the pin between phases: the above must resume at depth 3 on
	// the mirror, not rescan from the top.
	gateA.dead.Store(true)
	theta := one.List(0).At(10).Score
	a1, err := s.Do(ctx, 0, AboveReq{T: theta})
	if err != nil {
		t.Fatalf("above after pin death did not hand off: %v", err)
	}
	ca1, err := ctl.Do(ctx, 0, AboveReq{T: theta})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, ca1) {
		t.Errorf("above after handoff diverged: %+v vs %+v", a1, ca1)
	}
	st, err := s.Stats(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := ctl.Stats(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses != cst.Accesses || st.Depth != cst.Depth {
		t.Errorf("accounting diverged across handoff: %+v/%d vs %+v/%d",
			st.Accesses, st.Depth, cst.Accesses, cst.Depth)
	}
}

// TestMirrorPromotionAfterMirrorDeath: when the MIRROR dies, the pin
// promotes a fresh sibling by copying the full session state to it — so
// a later pin death still hands off losslessly.
func TestMirrorPromotionAfterMirrorDeath(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 80, M: 1, Seed: 9})
	mkGate := func() *flakyGate {
		srv, err := NewServer(one, 0)
		if err != nil {
			t.Fatal(err)
		}
		return &flakyGate{inner: srv.Handler()}
	}
	gates := []*flakyGate{mkGate(), mkGate(), mkGate()}
	var topo Topology
	var urls []string
	for _, g := range gates {
		ts := httptest.NewServer(g)
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	topo = Topology{urls}
	hc, err := Dial(context.Background(), DialConfig{Topology: topo, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	ctx := context.Background()
	s, err := hc.Open(ctx, bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Pin to replica 0, mirror on replica 1.
	for i := 1; i <= 2; i++ {
		if _, err := s.Do(ctx, 0, ProbeReq{}); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the mirror. The next exchange succeeds on the pin, notices the
	// failed sync, and promotes replica 2 with a full state copy.
	gates[1].dead.Store(true)
	if _, err := s.Do(ctx, 0, ProbeReq{}); err != nil {
		t.Fatalf("probe with dead mirror: %v", err)
	}
	// Now kill the pin: the handoff lands on the promoted replica 2 and
	// resumes at position 4 — proof the full-state copy carried 1..3.
	gates[0].dead.Store(true)
	resp, err := s.Do(ctx, 0, ProbeReq{})
	if err != nil {
		t.Fatalf("probe after pin death did not hand off to the promoted mirror: %v", err)
	}
	if got := resp.(ProbeResp).Entry; got != one.List(0).At(4) {
		t.Errorf("probe after promotion+handoff = %+v, want position 4", got)
	}
	rec := s.(*httpSession).Recovery()
	if rec.Handoffs != 1 || rec.FailedReplicas != 2 {
		t.Errorf("recovery = %+v, want 1 handoff, 2 failed replicas", rec)
	}
}
