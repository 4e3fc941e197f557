package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
)

func testDB(t *testing.T) *list.Database {
	t.Helper()
	return gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 60, M: 3, Seed: 5})
}

// open starts a session on a transport or fails the test.
func open(t *testing.T, tr Transport) Session {
	t.Helper()
	s, err := tr.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestMessageScalars pins the payload accounting every backend charges:
// it must match the hand-counted scalar tallies of the simulation.
func TestMessageScalars(t *testing.T) {
	entries := []list.Entry{{Item: 1, Score: 0.5}, {Item: 2, Score: 0.25}}
	cases := []struct {
		req   int
		resp  int
		reqV  Request
		respV Response
	}{
		{0, 2, SortedReq{Pos: 1}, SortedResp{Entry: entries[0]}},
		{0, 1, LookupReq{Item: 1}, LookupResp{Score: 0.5}},
		{0, 2, LookupReq{Item: 1, WantPos: true}, LookupResp{Score: 0.5, Pos: 3, HasPos: true}},
		{0, 3, ProbeReq{}, ProbeResp{Entry: entries[0], BestScore: 0.5}},
		{0, 1, ProbeReq{}, ProbeResp{BestScore: 0.5, Exhausted: true, Empty: true}},
		{0, 2, MarkReq{Item: 1}, MarkResp{Score: 0.5, BestScore: 0.5}},
		{0, 4, TopKReq{K: 2}, TopKResp{Entries: entries}},
		{0, 4, AboveReq{T: 0.1}, AboveResp{Entries: entries}},
		{3, 3, FetchReq{Items: []list.ItemID{1, 2, 3}}, FetchResp{Scores: []float64{1, 2, 3}}},
	}
	for _, c := range cases {
		if got := c.reqV.RequestScalars(); got != c.req {
			t.Errorf("%T request scalars = %d, want %d", c.reqV, got, c.req)
		}
		if got := c.respV.ResponseScalars(); got != c.resp {
			t.Errorf("%T response scalars = %d, want %d", c.respV, got, c.resp)
		}
	}
}

// TestNewSessionID: IDs must be unique even when minted concurrently.
func TestNewSessionID(t *testing.T) {
	const n = 1000
	ids := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); ids <- NewSessionID() }()
	}
	wg.Wait()
	close(ids)
	seen := make(map[string]bool, n)
	for id := range ids {
		if id == "" || seen[id] {
			t.Fatalf("duplicate or empty session ID %q", id)
		}
		seen[id] = true
	}
}

// TestOwnerHandlers drives the owner-side state machine directly inside
// one session.
func TestOwnerHandlers(t *testing.T) {
	db := testDB(t)
	o, err := NewOwner(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	const sid = "q1"
	if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	l := db.List(1)

	resp, err := o.Handle(sid, SortedReq{Pos: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(SortedResp).Entry; got != l.At(1) {
		t.Errorf("sorted(1) = %+v, want %+v", got, l.At(1))
	}

	item := l.At(5).Item
	resp, err = o.Handle(sid, LookupReq{Item: item, WantPos: true})
	if err != nil {
		t.Fatal(err)
	}
	if lr := resp.(LookupResp); lr.Pos != 5 || lr.Score != l.At(5).Score || !lr.HasPos {
		t.Errorf("lookup = %+v", lr)
	}

	// Probe reads the first unseen position: sorted accesses don't mark —
	// only probe and mark do — so the first probe must read position 1.
	resp, err = o.Handle(sid, ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if pr := resp.(ProbeResp); pr.Entry != l.At(1) || pr.BestScore != l.At(1).Score || pr.Empty {
		t.Errorf("probe = %+v", pr)
	}

	// Marking position 3 leaves 2 unseen: best stays 1, next probe is 2.
	resp, err = o.Handle(sid, MarkReq{Item: l.At(3).Item})
	if err != nil {
		t.Fatal(err)
	}
	if mr := resp.(MarkResp); mr.BestScore != l.At(1).Score || mr.Score != l.At(3).Score {
		t.Errorf("mark = %+v", mr)
	}
	resp, err = o.Handle(sid, ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if pr := resp.(ProbeResp); pr.Entry != l.At(2) || pr.BestScore != l.At(3).Score {
		t.Errorf("probe after mark = %+v", pr)
	}

	st, err := o.SessionStats(sid)
	if err != nil {
		t.Fatal(err)
	}
	if st.Index != 1 || st.N != db.N() || st.M != db.M() {
		t.Errorf("stats = %+v", st)
	}
	if st.Accesses.Sorted != 1 || st.Accesses.Random != 2 || st.Accesses.Direct != 2 {
		t.Errorf("access tally = %v", st.Accesses)
	}
	if st.Best != 3 {
		t.Errorf("best = %d, want 3", st.Best)
	}
	if st.MinScore != l.At(db.N()).Score {
		t.Errorf("min score = %v", st.MinScore)
	}

	// Re-opening the same session ID replaces its state (retried opens
	// are idempotent).
	if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	st, err = o.SessionStats(sid)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses.Total() != 0 || st.Best != 0 || st.Depth != 0 {
		t.Errorf("stats after re-open = %+v", st)
	}

	// Malformed requests error instead of panicking.
	for _, req := range []Request{
		SortedReq{Pos: 0}, SortedReq{Pos: db.N() + 1},
		LookupReq{Item: -1}, LookupReq{Item: list.ItemID(db.N())},
		MarkReq{Item: -2}, TopKReq{K: 0},
		FetchReq{Items: []list.ItemID{0, list.ItemID(db.N())}},
	} {
		if _, err := o.Handle(sid, req); err == nil {
			t.Errorf("%#v accepted", req)
		}
	}

	// Unknown and closed sessions are rejected with ErrUnknownSession.
	if _, err := o.Handle("nope", ProbeReq{}); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("unknown session: %v", err)
	}
	o.CloseSession(sid)
	if _, err := o.Handle(sid, ProbeReq{}); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("closed session: %v", err)
	}
	if o.Sessions() != 0 {
		t.Errorf("%d sessions left open", o.Sessions())
	}
	if err := o.Open("", bestpos.BitArrayKind); err == nil {
		t.Error("empty session ID accepted")
	}
}

// TestOwnerSessionIsolation: two sessions on one owner must not share
// protocol state — the redesign's whole point.
func TestOwnerSessionIsolation(t *testing.T) {
	db := testDB(t)
	o, err := NewOwner(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sid := range []string{"a", "b"} {
		if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
			t.Fatal(err)
		}
	}
	l := db.List(0)
	// Session a probes twice; session b must still see position 1 first.
	for i := 1; i <= 2; i++ {
		resp, err := o.Handle("a", ProbeReq{})
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.(ProbeResp).Entry; got != l.At(i) {
			t.Fatalf("a probe %d = %+v", i, got)
		}
	}
	resp, err := o.Handle("b", ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(ProbeResp).Entry; got != l.At(1) {
		t.Errorf("b's first probe = %+v, want position 1: sessions share state", got)
	}
	sa, _ := o.SessionStats("a")
	sb, _ := o.SessionStats("b")
	if sa.Accesses.Direct != 2 || sb.Accesses.Direct != 1 {
		t.Errorf("access tallies bleed across sessions: a=%v b=%v", sa.Accesses, sb.Accesses)
	}
}

// TestOwnerProbeExhaustion: probing past the end answers Empty with the
// piggyback instead of failing, and TopK/Above maintain the scan depth.
func TestOwnerProbeExhaustion(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 3, M: 2, Seed: 1})
	o, err := NewOwner(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	const sid = "s"
	if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, err := o.Handle(sid, ProbeReq{})
		if err != nil {
			t.Fatal(err)
		}
		pr := resp.(ProbeResp)
		if pr.Empty {
			t.Fatalf("probe %d empty", i)
		}
		if i == 2 && !pr.Exhausted {
			t.Error("last probe not exhausted")
		}
	}
	resp, err := o.Handle(sid, ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if pr := resp.(ProbeResp); !pr.Empty || !pr.Exhausted || pr.ResponseScalars() != 1 {
		t.Errorf("over-probe = %+v", pr)
	}
}

// TestLoopbackBasics: dimensions, call order, owner validation, session
// lifecycle.
func TestLoopbackBasics(t *testing.T) {
	db := testDB(t)
	lb, err := NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	if lb.M() != db.M() || lb.N() != db.N() {
		t.Fatalf("dims %d/%d", lb.M(), lb.N())
	}
	s := open(t, lb)
	ctx := context.Background()
	if _, err := s.Do(ctx, 5, ProbeReq{}); err == nil {
		t.Error("bad owner accepted")
	}
	if _, err := s.Stats(ctx, -1); err == nil {
		t.Error("bad stats owner accepted")
	}
	resps, err := s.DoAll(ctx, []Call{
		{Owner: 0, Req: SortedReq{Pos: 1}},
		{Owner: 0, Req: SortedReq{Pos: 2}},
		{Owner: 2, Req: SortedReq{Pos: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resps[1].(SortedResp).Entry; got != db.List(0).At(2) {
		t.Errorf("call order broken: %+v", got)
	}
	if s.Elapsed() != 0 {
		t.Errorf("loopback elapsed %v", s.Elapsed())
	}
	st, err := s.Stats(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses.Sorted != 2 {
		t.Errorf("owner 0 tally %v", st.Accesses)
	}
	// A canceled ctx aborts before the owner is touched.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Do(canceled, 0, ProbeReq{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Do: %v", err)
	}
	// Closing the session releases the owner state; its ID stops working.
	sid := s.ID()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := lb.owners[0].Handle(sid, ProbeReq{}); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("closed loopback session still handled: %v", err)
	}
}

// TestConcurrentClockMaxNotSum: the per-session virtual clock is the
// latency Loopback's contract — the owners are priced as if they served
// a batch concurrently, so a batch costs its slowest owner's serialized
// exchanges, a lone exchange costs one round-trip, and failed exchanges
// cost nothing.
func TestConcurrentClockMaxNotSum(t *testing.T) {
	db := testDB(t)
	rtt := 10 * time.Millisecond
	lb, err := NewLatencyLoopback(db, ConstantLatency(rtt))
	if err != nil {
		t.Fatal(err)
	}
	s := open(t, lb)
	ctx := context.Background()

	// One exchange per owner: one RTT, not three.
	if _, err := s.DoAll(ctx, []Call{
		{Owner: 0, Req: SortedReq{Pos: 1}},
		{Owner: 1, Req: SortedReq{Pos: 1}},
		{Owner: 2, Req: SortedReq{Pos: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Elapsed(); got != rtt {
		t.Errorf("balanced batch cost %v, want %v", got, rtt)
	}

	// Skewed batch: owner 0 serves three exchanges, the others one.
	if _, err := s.DoAll(ctx, []Call{
		{Owner: 0, Req: SortedReq{Pos: 2}},
		{Owner: 0, Req: SortedReq{Pos: 3}},
		{Owner: 0, Req: SortedReq{Pos: 4}},
		{Owner: 1, Req: SortedReq{Pos: 2}},
		{Owner: 2, Req: SortedReq{Pos: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Elapsed(); got != rtt+3*rtt {
		t.Errorf("skewed batch: clock %v, want %v", got, rtt+3*rtt)
	}

	// A lone exchange adds one RTT.
	if _, err := s.Do(ctx, 1, SortedReq{Pos: 3}); err != nil {
		t.Fatal(err)
	}
	if got := s.Elapsed(); got != 5*rtt {
		t.Errorf("after Do: clock %v, want %v", got, 5*rtt)
	}

	// A failed exchange costs nothing, and neither does a batch it aborts.
	if _, err := s.Do(ctx, 1, SortedReq{Pos: 0}); err == nil {
		t.Fatal("bad position accepted")
	}
	if _, err := s.DoAll(ctx, []Call{
		{Owner: 0, Req: SortedReq{Pos: 5}},
		{Owner: 2, Req: SortedReq{Pos: -1}},
	}); err == nil {
		t.Fatal("bad position accepted in batch")
	}
	if got := s.Elapsed(); got != 5*rtt {
		t.Errorf("failed exchanges moved the clock to %v, want %v", got, 5*rtt)
	}

	// Traced spans carry the modeled cost, not real handler time.
	rec := NewSpanRecorder()
	s.(SpanRecording).SetSpanRecorder(rec)
	if _, err := s.Do(ctx, 2, SortedReq{Pos: 3}); err != nil {
		t.Fatal(err)
	}
	if sp := rec.Spans(); len(sp) != 1 || sp[0].Duration != rtt || sp[0].URL != "loopback" {
		t.Errorf("latency span = %+v, want one %v loopback span", sp, rtt)
	}

	// A second session starts its own clock at zero, and a plain
	// Loopback has no clock at all.
	s2 := open(t, lb)
	if got := s2.Elapsed(); got != 0 {
		t.Errorf("fresh session clock %v", got)
	}
	plain, err := NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	s3 := open(t, plain)
	if _, err := s3.DoAll(ctx, []Call{{Owner: 0, Req: SortedReq{Pos: 1}}}); err != nil {
		t.Fatal(err)
	}
	if got := s3.Elapsed(); got != 0 {
		t.Errorf("plain loopback clock %v", got)
	}
}

// TestConcurrentPerOwnerOrder: a batch's calls to one owner must reach
// it in submission order — BPA2's owner-side tracker depends on it.
func TestConcurrentPerOwnerOrder(t *testing.T) {
	db := testDB(t)
	lb, err := NewLatencyLoopback(db, ConstantLatency(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	s := open(t, lb)
	// Probes to the same owner must come back in position order 1,2,3...
	calls := make([]Call, 6)
	for i := range calls {
		calls[i] = Call{Owner: 1, Req: ProbeReq{}}
	}
	resps, err := s.DoAll(context.Background(), calls)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		if got := resp.(ProbeResp).Entry; got != db.List(1).At(i+1) {
			t.Fatalf("probe %d returned %+v, want position %d", i, got, i+1)
		}
	}
}

// TestConcurrentSessionsIndependent: two sessions sharing the owners
// must see independent protocol state and independent virtual clocks.
func TestConcurrentSessionsIndependent(t *testing.T) {
	db := testDB(t)
	rtt := time.Millisecond
	lb, err := NewLatencyLoopback(db, ConstantLatency(rtt))
	if err != nil {
		t.Fatal(err)
	}
	a, b := open(t, lb), open(t, lb)
	ctx := context.Background()
	if _, err := a.Do(ctx, 0, ProbeReq{}); err != nil {
		t.Fatal(err)
	}
	resp, err := b.Do(ctx, 0, ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(ProbeResp).Entry; got != db.List(0).At(1) {
		t.Errorf("session b's first probe = %+v, want position 1", got)
	}
	if _, err := a.Do(ctx, 1, ProbeReq{}); err != nil {
		t.Fatal(err)
	}
	if a.Elapsed() != 2*rtt || b.Elapsed() != rtt {
		t.Errorf("clocks a=%v b=%v, want %v and %v", a.Elapsed(), b.Elapsed(), 2*rtt, rtt)
	}
}

// TestConcurrentCancelNoLeak: canceling a latency Loopback exchange
// returns ctx.Err() before any owner is touched, charges nothing, leaves
// no goroutine behind, and leaves the session usable for live contexts.
func TestConcurrentCancelNoLeak(t *testing.T) {
	db := testDB(t)
	rtt := time.Millisecond
	lb, err := NewLatencyLoopback(db, ConstantLatency(rtt))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	s := open(t, lb)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.DoAll(ctx, []Call{
		{Owner: 0, Req: SortedReq{Pos: 1}},
		{Owner: 1, Req: SortedReq{Pos: 1}},
		{Owner: 2, Req: SortedReq{Pos: 1}},
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled DoAll: %v", err)
	}
	if _, err := s.Do(ctx, 0, SortedReq{Pos: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Do: %v", err)
	}
	if got := s.Elapsed(); got != 0 {
		t.Errorf("canceled exchanges charged %v", got)
	}
	st, err := s.Stats(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses.Total() != 0 {
		t.Errorf("canceled exchanges reached the owner: %v", st.Accesses)
	}
	if _, err := s.Do(context.Background(), 0, SortedReq{Pos: 1}); err != nil {
		t.Errorf("Do after canceled batch: %v", err)
	}
	if got := s.Elapsed(); got != rtt {
		t.Errorf("clock after live Do = %v, want %v", got, rtt)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked: %d, want <= %d", n, base)
	}
}

// TestLatencyModels exercises the stock models.
func TestLatencyModels(t *testing.T) {
	req, resp := FetchReq{Items: []list.ItemID{1, 2}}, FetchResp{Scores: []float64{1, 2}}
	if got := ConstantLatency(time.Second)(1, req, resp); got != time.Second {
		t.Errorf("constant = %v", got)
	}
	po := PerOwnerLatency([]time.Duration{time.Millisecond, time.Minute})
	if got := po(1, req, resp); got != time.Minute {
		t.Errorf("per-owner = %v", got)
	}
	// 2 request scalars + 2 response scalars at 1ms each over a 10ms link.
	if got := LinkLatency(10*time.Millisecond, time.Millisecond)(0, req, resp); got != 14*time.Millisecond {
		t.Errorf("link = %v", got)
	}
}

// startHTTPOwners serves every list of db over httptest.
func startHTTPOwners(t *testing.T, db *list.Database) ([]string, []*Server) {
	t.Helper()
	urls := make([]string, db.M())
	servers := make([]*Server, db.M())
	for i := range urls {
		srv, err := NewServer(db, i)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		servers[i] = srv
	}
	return urls, servers
}

// TestHTTPRoundTrip: every message kind survives the wire against a real
// handler stack, and the session control plane works.
func TestHTTPRoundTrip(t *testing.T) {
	db := testDB(t)
	urls, servers := startHTTPOwners(t, db)
	hc, err := DialOwners(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	if hc.M() != db.M() || hc.N() != db.N() {
		t.Fatalf("dims %d/%d", hc.M(), hc.N())
	}
	s := open(t, hc)
	ctx := context.Background()

	l := db.List(0)
	resp, err := s.Do(ctx, 0, SortedReq{Pos: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(SortedResp).Entry; got != l.At(2) {
		t.Errorf("sorted over HTTP = %+v, want %+v", got, l.At(2))
	}
	resp, err = s.Do(ctx, 0, LookupReq{Item: l.At(4).Item, WantPos: true})
	if err != nil {
		t.Fatal(err)
	}
	if lr := resp.(LookupResp); lr.Pos != 4 || lr.Score != l.At(4).Score {
		t.Errorf("lookup over HTTP = %+v", lr)
	}
	// Mark before any probe: the piggyback is +Inf and must survive the
	// wire.
	resp, err = s.Do(ctx, 1, MarkReq{Item: db.List(1).At(2).Item})
	if err != nil {
		t.Fatal(err)
	}
	if mr := resp.(MarkResp); !math.IsInf(mr.BestScore, 1) {
		t.Errorf("mark piggyback = %+v, want +Inf", mr)
	}
	resp, err = s.Do(ctx, 1, ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if pr := resp.(ProbeResp); pr.Entry != db.List(1).At(1) {
		t.Errorf("probe over HTTP = %+v", pr)
	}
	resp, err = s.Do(ctx, 2, TopKReq{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr := resp.(TopKResp); len(tr.Entries) != 3 || tr.Entries[0] != db.List(2).At(1) {
		t.Errorf("topk over HTTP = %+v", tr)
	}
	resp, err = s.Do(ctx, 2, AboveReq{T: db.List(2).At(10).Score})
	if err != nil {
		t.Fatal(err)
	}
	if ar := resp.(AboveResp); len(ar.Entries) == 0 {
		t.Error("above over HTTP returned nothing")
	}
	items := []list.ItemID{l.At(1).Item, l.At(2).Item}
	resp, err = s.Do(ctx, 0, FetchReq{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if fr := resp.(FetchResp); len(fr.Scores) != 2 || fr.Scores[0] != l.At(1).Score {
		t.Errorf("fetch over HTTP = %+v", fr)
	}

	st, err := s.Stats(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses.Total() == 0 {
		t.Error("stats lost the access tally")
	}
	if s.Elapsed() <= 0 {
		t.Error("no elapsed time recorded")
	}

	// Closing the session releases the owner state; its messages 404.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if servers[0].Owner().Sessions() != 0 {
		t.Errorf("owner holds %d sessions after close", servers[0].Owner().Sessions())
	}
	if _, err := s.Do(ctx, 0, SortedReq{Pos: 1}); err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Errorf("closed session still answered: %v", err)
	}

	// Remote owner errors surface as client errors with the owner index.
	s2 := open(t, hc)
	if _, err := s2.Do(ctx, 0, SortedReq{Pos: 10_000}); err == nil || !strings.Contains(err.Error(), "owner 0") {
		t.Errorf("bad position over HTTP: %v", err)
	}
	if _, err := s2.Do(ctx, 9, ProbeReq{}); err == nil {
		t.Error("bad owner accepted")
	}
}

// TestHTTPConcurrentSessions: N sessions over the same owners, driven
// concurrently, must behave like N private clusters.
func TestHTTPConcurrentSessions(t *testing.T) {
	db := testDB(t)
	urls, _ := startHTTPOwners(t, db)
	hc, err := DialOwners(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			s, err := hc.Open(ctx, bestpos.BitArrayKind)
			if err != nil {
				errs[w] = err
				return
			}
			defer s.Close()
			// Each session probes its own private cursor: every probe i
			// must return position i+1 whatever the other sessions do.
			for i := 0; i < 5; i++ {
				resp, err := s.Do(ctx, 0, ProbeReq{})
				if err != nil {
					errs[w] = err
					return
				}
				if got := resp.(ProbeResp).Entry; got != db.List(0).At(i+1) {
					errs[w] = fmt.Errorf("session state interleaved: probe %d returned %+v", i, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", w, err)
		}
	}
}

// TestHTTPRetryTransient: a single 500 from an owner must be absorbed by
// the client's one retry; a persistent failure must surface the owner
// index.
func TestHTTPRetryTransient(t *testing.T) {
	// A one-list cluster needs a one-list database to agree on M.
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 60, M: 1, Seed: 5})
	srvOne, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fail atomic.Int32
	tsOne := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() > 0 && strings.HasPrefix(r.URL.Path, "/rpc/") {
			fail.Add(-1)
			http.Error(w, `{"error":"synthetic owner crash"}`, http.StatusInternalServerError)
			return
		}
		srvOne.Handler().ServeHTTP(w, r)
	}))
	defer tsOne.Close()
	hc, err := DialOwners([]string{tsOne.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s := open(t, hc)
	ctx := context.Background()

	// One failure: absorbed by the retry.
	fail.Store(1)
	if _, err := s.Do(ctx, 0, SortedReq{Pos: 1}); err != nil {
		t.Errorf("single 500 not retried: %v", err)
	}
	// Two consecutive failures: the single retry is spent, the error
	// surfaces and names the owner.
	fail.Store(2)
	if _, err := s.Do(ctx, 0, SortedReq{Pos: 2}); err == nil || !strings.Contains(err.Error(), "owner 0") {
		t.Errorf("persistent 500: %v", err)
	}
	fail.Store(0)
	// 4xx responses are the caller's fault and must NOT be retried.
	if _, err := s.Do(ctx, 0, SortedReq{Pos: 10_000}); err == nil {
		t.Error("bad position accepted")
	}

	// Cursor-advancing exchanges must NOT be retried: the client cannot
	// know whether the owner executed the lost request, and a replayed
	// probe would silently skip a list entry. One transient failure on a
	// probe therefore surfaces instead of being absorbed.
	fail.Store(1)
	if _, err := s.Do(ctx, 0, ProbeReq{}); err == nil || !strings.Contains(err.Error(), "owner 0") {
		t.Errorf("probe after transient failure: %v (must fail, not retry)", err)
	}
	fail.Store(0)
	// The failed attempt never reached the owner, so the session's
	// cursor is intact: the next probe reads position 1.
	resp, err := s.Do(ctx, 0, ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(ProbeResp).Entry; got != one.List(0).At(1) {
		t.Errorf("probe after failed probe = %+v, want position 1", got)
	}
}

// TestRequestReplayability pins which message kinds the HTTP client may
// retry: everything except the cursor-advancing probe and above.
func TestRequestReplayability(t *testing.T) {
	replayable := map[Kind]bool{
		KindSorted: true, KindLookup: true, KindMark: true,
		KindTopK: true, KindFetch: true,
		KindProbe: false, KindAbove: false,
	}
	for _, req := range []Request{
		SortedReq{}, LookupReq{}, ProbeReq{}, MarkReq{}, TopKReq{}, AboveReq{}, FetchReq{},
	} {
		if got := req.Replayable(); got != replayable[req.Kind()] {
			t.Errorf("%s replayable = %v, want %v", req.Kind(), got, replayable[req.Kind()])
		}
	}
}

// TestHTTPCancel: a canceled context aborts an HTTP exchange promptly
// with ctx.Err() even while the owner hangs.
func TestHTTPCancel(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 60, M: 1, Seed: 5})
	srv, err := NewServer(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/rpc/") {
			<-release
		}
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(slow)
	defer ts.Close()
	defer close(release)
	hc, err := DialOwners([]string{ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s := open(t, hc)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = s.Do(ctx, 0, SortedReq{Pos: 1})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("hung exchange: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v", d)
	}
}

// TestDialValidation: misconfigured clusters are rejected at dial time.
func TestDialValidation(t *testing.T) {
	db := testDB(t)
	urls, _ := startHTTPOwners(t, db)

	if _, err := DialOwners(nil, nil); err == nil {
		t.Error("empty cluster accepted")
	}
	// Owners out of order: URL position must match list index.
	if _, err := DialOwners([]string{urls[1], urls[0], urls[2]}, nil); err == nil ||
		!strings.Contains(err.Error(), "order") {
		t.Errorf("shuffled owners accepted: %v", err)
	}
	// Partial cluster: owner reports a 3-list database, cluster has 2.
	if _, err := DialOwners(urls[:2], nil); err == nil {
		t.Error("partial cluster accepted")
	}
	// Unreachable owner (the single retry must not mask it).
	if _, err := DialOwners([]string{"http://127.0.0.1:1"}, nil); err == nil {
		t.Error("unreachable owner accepted")
	}
	// Mismatched list lengths across owners.
	other := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 10, M: 3, Seed: 5})
	srv, err := NewServer(other, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := DialOwners([]string{urls[0], urls[1], ts.URL}, nil); err == nil {
		t.Error("mismatched list length accepted")
	}
}

// TestNormalizeOwnerURL: bare host:port grows a scheme, URLs pass through.
func TestNormalizeOwnerURL(t *testing.T) {
	cases := map[string]string{
		"localhost:9001":         "http://localhost:9001",
		" localhost:9001/ ":      "http://localhost:9001",
		"http://a.example":       "http://a.example",
		"https://b.example:8443": "https://b.example:8443",
	}
	for in, want := range cases {
		if got := NormalizeOwnerURL(in); got != want {
			t.Errorf("NormalizeOwnerURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestOwnerHandleBatch: a batch executes its inner requests in order,
// atomically, with exactly the owner-side effects of the messages sent
// one by one — and an inner failure aborts with the failing index while
// the prefix's work stays done.
func TestOwnerHandleBatch(t *testing.T) {
	db := testDB(t)
	o, err := NewOwner(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	const sid = "b"
	if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	l := db.List(0)
	resp, err := o.Handle(sid, BatchReq{Reqs: []Request{
		ProbeReq{}, // reads position 1
		ProbeReq{}, // order matters: must read position 2, not 1 again
		LookupReq{Item: l.At(5).Item, WantPos: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	br := resp.(BatchResp)
	if len(br.Resps) != 3 {
		t.Fatalf("batch answered %d of 3", len(br.Resps))
	}
	if got := br.Resps[0].(ProbeResp).Entry; got != l.At(1) {
		t.Errorf("batch probe 1 = %+v", got)
	}
	if got := br.Resps[1].(ProbeResp).Entry; got != l.At(2) {
		t.Errorf("batch probe 2 = %+v, want position 2", got)
	}
	if got := br.Resps[2].(LookupResp); got.Pos != 5 {
		t.Errorf("batch lookup = %+v", got)
	}

	// Inner failure: the error names the index, the prefix's accesses
	// stay charged (the work was done), and the session stays usable.
	_, err = o.Handle(sid, BatchReq{Reqs: []Request{ProbeReq{}, SortedReq{Pos: -1}}})
	if err == nil || !strings.Contains(err.Error(), "batch[1]") {
		t.Errorf("failing batch: %v", err)
	}
	st, err := o.SessionStats(sid)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses.Direct != 3 {
		t.Errorf("direct accesses after batches = %d, want 3 (2 + aborted batch's prefix)", st.Accesses.Direct)
	}

	// Nested batches are rejected.
	if _, err := o.Handle(sid, BatchReq{Reqs: []Request{BatchReq{Reqs: []Request{ProbeReq{}}}}}); err == nil {
		t.Error("nested batch accepted")
	}
}

// TestBatchMatchesUnbatched: the same request sequence, batched and
// unbatched, must leave two sessions in identical states — coalescing is
// a wire optimization, not a semantic change.
func TestBatchMatchesUnbatched(t *testing.T) {
	db := testDB(t)
	o, err := NewOwner(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		SortedReq{Pos: 1},
		LookupReq{Item: db.List(0).At(7).Item, WantPos: true},
		ProbeReq{},
		MarkReq{Item: db.List(0).At(3).Item},
		TopKReq{K: 4},
		AboveReq{T: db.List(0).At(9).Score},
	}
	for _, sid := range []string{"one", "batched"} {
		if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
			t.Fatal(err)
		}
	}
	var single []Response
	for _, req := range reqs {
		resp, err := o.Handle("one", req)
		if err != nil {
			t.Fatal(err)
		}
		single = append(single, resp)
	}
	resp, err := o.Handle("batched", BatchReq{Reqs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(BatchResp).Resps; !reflect.DeepEqual(got, single) {
		t.Errorf("batched responses differ:\n%v\nvs unbatched\n%v", got, single)
	}
	a, _ := o.SessionStats("one")
	b, _ := o.SessionStats("batched")
	if a.Accesses != b.Accesses || a.Best != b.Best || a.Depth != b.Depth {
		t.Errorf("session state diverged: unbatched %+v vs batched %+v", a, b)
	}
}

// TestSessionTTLEviction: sessions idle past the TTL are reclaimed, the
// eviction count is exposed, and live sessions survive the sweep.
func TestSessionTTLEviction(t *testing.T) {
	db := testDB(t)
	o, err := NewOwner(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Generous TTL-to-touch ratio: the live session is touched every
	// ~10ms against a 200ms idle bound, so only a 200ms scheduler stall
	// could falsely evict it — headroom for loaded CI runners and -race.
	o.SetSessionTTL(200 * time.Millisecond)
	for _, sid := range []string{"idle", "live"} {
		if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
			t.Fatal(err)
		}
	}
	// Keep "live" warm past the idle bound of "idle".
	deadline := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := o.Handle("live", SortedReq{Pos: 1}); err != nil {
			t.Fatalf("live session evicted: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := o.Handle("idle", ProbeReq{}); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("idle session survived the TTL: %v", err)
	}
	if n := o.Evictions(); n != 1 {
		t.Errorf("evictions = %d, want 1", n)
	}
	if n := o.Sessions(); n != 1 {
		t.Errorf("%d sessions left, want 1", n)
	}
	if st := o.Info(); st.Evictions != 1 || st.OpenSessions != 1 {
		t.Errorf("Info() = evictions %d, open %d", st.Evictions, st.OpenSessions)
	}
	// TTL 0 disables eviction entirely.
	o.SetSessionTTL(0)
	time.Sleep(50 * time.Millisecond)
	if _, err := o.Handle("live", SortedReq{Pos: 1}); err != nil {
		t.Errorf("eviction ran with TTL disabled: %v", err)
	}
}

// TestHTTPStatsExposesEvictions: the /stats handshake carries the
// eviction tally over the wire.
func TestHTTPStatsExposesEvictions(t *testing.T) {
	db := testDB(t)
	urls, servers := startHTTPOwners(t, db)
	servers[0].Owner().SetSessionTTL(10 * time.Millisecond)
	if err := servers[0].Owner().Open("gone", bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	// Any open sweeps; the idle session must be reclaimed.
	if err := servers[0].Owner().Open("fresh", bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(urls[0] + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st OwnerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Evictions != 1 {
		t.Errorf("/stats evictions = %d, want 1", st.Evictions)
	}
	if st.OpenSessions != 1 {
		t.Errorf("/stats openSessions = %d, want 1", st.OpenSessions)
	}
}

// TestBatchWithProbeNotRetried: a batch containing a cursor-advancing
// request must not be replayed after a transient failure — same contract
// as the bare message.
func TestBatchWithProbeNotRetried(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 60, M: 1, Seed: 5})
	srvOne, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fail atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() > 0 && strings.HasPrefix(r.URL.Path, "/rpc/") {
			fail.Add(-1)
			http.Error(w, `{"error":"synthetic owner crash"}`, http.StatusInternalServerError)
			return
		}
		srvOne.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	hc, err := DialOwners([]string{ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s := open(t, hc)
	ctx := context.Background()

	// All-replayable batch: absorbed by the retry.
	fail.Store(1)
	if _, err := s.Do(ctx, 0, BatchReq{Reqs: []Request{SortedReq{Pos: 1}, SortedReq{Pos: 2}}}); err != nil {
		t.Errorf("replayable batch not retried: %v", err)
	}
	// Batch with a probe: fails fast instead of replaying.
	fail.Store(1)
	if _, err := s.Do(ctx, 0, BatchReq{Reqs: []Request{SortedReq{Pos: 1}, ProbeReq{}}}); err == nil {
		t.Error("probe-carrying batch was retried")
	}
	fail.Store(0)
	// The failed attempt never reached the owner: the next probe still
	// reads position 1.
	resp, err := s.Do(ctx, 0, ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(ProbeResp).Entry; got != one.List(0).At(1) {
		t.Errorf("probe after failed batch = %+v, want position 1", got)
	}
}

// TestServerRejectsBadRequests: the handler maps malformed input to 4xx.
// The data plane accepts only the binary codec: any other Content-Type
// is a 415 whose error names the expected type.
func TestServerRejectsBadRequests(t *testing.T) {
	db := testDB(t)
	srv, err := NewServer(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Owner().Open("s", bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	frame := func(req Request) string {
		b, err := AppendRequestBinary(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	const bin, js = ContentTypeBinary, ContentTypeJSON
	for _, c := range []struct {
		method, path, ct, body string
		want                   int
	}{
		{http.MethodPost, "/rpc/zzz?sid=s", bin, "{}", http.StatusBadRequest},
		{http.MethodPost, "/rpc/sorted?sid=s", bin, "not a frame", http.StatusBadRequest},
		{http.MethodPost, "/rpc/sorted?sid=s", bin, frame(SortedReq{Pos: 0}), http.StatusBadRequest},
		{http.MethodPost, "/rpc/lookup?sid=s", bin, frame(SortedReq{Pos: 1}), http.StatusBadRequest}, // kind mismatch
		{http.MethodPost, "/rpc/sorted", bin, frame(SortedReq{Pos: 1}), http.StatusBadRequest},       // no sid
		{http.MethodPost, "/rpc/sorted?sid=zz", bin, frame(SortedReq{Pos: 1}), http.StatusNotFound},  // unknown sid
		{http.MethodPost, "/rpc/sorted?sid=s", js, `{"pos":1}`, http.StatusUnsupportedMediaType},
		{http.MethodPost, "/rpc/sorted?sid=s", "", frame(SortedReq{Pos: 1}), http.StatusUnsupportedMediaType},
		{http.MethodGet, "/rpc/sorted?sid=s", "", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/session/open", js, `{"sid":"x","tracker":99}`, http.StatusBadRequest},
		{http.MethodPost, "/session/open", js, `{"tracker":0}`, http.StatusBadRequest}, // empty sid
		{http.MethodGet, "/session/open", "", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/session/close", "", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/stats", js, "{}", http.StatusMethodNotAllowed},
		{http.MethodGet, "/stats?sid=zz", "", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if c.ct != "" {
			req.Header.Set("Content-Type", c.ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body httpError
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s (%q): status %d, want %d", c.method, c.path, c.ct, resp.StatusCode, c.want)
		}
		if c.want == http.StatusUnsupportedMediaType && (derr != nil || !strings.Contains(body.Error, ContentTypeBinary)) {
			t.Errorf("415 error payload %+v (decode %v) does not name %s", body, derr, ContentTypeBinary)
		}
	}

	// NewServer validates the list index.
	if _, err := NewServer(db, 7); err == nil {
		t.Error("bad list index accepted")
	}
	if _, err := NewServer(nil, 0); err == nil {
		t.Error("nil database accepted")
	}
}
