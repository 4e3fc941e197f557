package dist

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/score"
	"topk/internal/transport"
)

// handoffGate fronts one replica with the faults the handoff edge cases
// need: it dies after serving killAfter /rpc calls (never when
// negative), can refuse every /session/sync with a 500, and can tear
// the response of its tearProbe-th exchange that carries a probe (bare
// or riding in a batch), of its tearMarks-th batch of marks alone or of
// its tearAbove-th above-scan — the owner applies the exchange, the
// client gets half a frame, and the replica dies unless survive is set.
type handoffGate struct {
	inner      http.Handler
	killAfter  int64
	tearProbe  int64
	tearMarks  int64
	tearAbove  int64
	survive    bool
	refuseSync atomic.Bool

	rpcs, probes, markBatches, aboves, syncs atomic.Int64
	torn                                     atomic.Int64 // logical requests in the torn exchange
	dead                                     atomic.Bool
}

func (g *handoffGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	switch {
	case r.URL.Path == "/session/sync":
		g.syncs.Add(1)
		if g.refuseSync.Load() {
			http.Error(w, `{"error":"sync refused"}`, http.StatusInternalServerError)
			return
		}
	case strings.HasPrefix(r.URL.Path, "/rpc/"):
		if n := g.rpcs.Add(1); g.killAfter >= 0 && n > g.killAfter {
			g.dead.Store(true)
			panic(http.ErrAbortHandler)
		}
		if g.tears(r) {
			rec := httptest.NewRecorder()
			g.inner.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			body := rec.Body.Bytes()
			_, _ = w.Write(body[:len(body)/2])
			w.(http.Flusher).Flush()
			g.dead.Store(!g.survive)
			panic(http.ErrAbortHandler)
		}
	}
	g.inner.ServeHTTP(w, r)
}

// tears counts an /rpc exchange against the armed tear and reports
// whether this is the one to tear. It reads the request body to see
// what the exchange carries, and leaves it readable for the owner.
func (g *handoffGate) tears(r *http.Request) bool {
	if g.tearProbe == 0 && g.tearMarks == 0 && g.tearAbove == 0 {
		return false
	}
	body, err := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return false
	}
	req, err := transport.DecodeRequestBinary(body)
	if err != nil {
		return false
	}
	reqs := []transport.Request{req}
	if b, ok := req.(transport.BatchReq); ok {
		reqs = b.Reqs
	}
	var tear bool
	switch {
	case slices.ContainsFunc(reqs, func(q transport.Request) bool { return q.Kind() == transport.KindProbe }):
		tear = g.probes.Add(1) == g.tearProbe
	case req.Kind() == transport.KindAbove:
		tear = g.aboves.Add(1) == g.tearAbove
	case len(reqs) > 1:
		tear = g.markBatches.Add(1) == g.tearMarks
	}
	if tear {
		g.torn.Store(int64(len(reqs)))
	}
	return tear
}

// gatedCluster serves every list of db from reps gated replicas, dialed
// with the primary policy and no prober, so the pin is replica 0 and the
// handoff order is replica 1, then 2. gate(li, ri) configures one gate
// before it serves.
func gatedCluster(t *testing.T, db *list.Database, reps int, gate func(li, ri int, g *handoffGate)) (*transport.HTTPClient, [][]*handoffGate) {
	t.Helper()
	topo := make(transport.Topology, db.M())
	gates := make([][]*handoffGate, db.M())
	for li := range topo {
		for ri := 0; ri < reps; ri++ {
			srv, err := transport.NewServer(db, li)
			if err != nil {
				t.Fatal(err)
			}
			g := &handoffGate{inner: srv.Handler(), killAfter: -1}
			if gate != nil {
				gate(li, ri, g)
			}
			ts := httptest.NewServer(g)
			t.Cleanup(ts.Close)
			topo[li] = append(topo[li], ts.URL)
			gates[li] = append(gates[li], g)
		}
	}
	hc, err := transport.Dial(context.Background(), transport.DialConfig{
		Topology:       topo,
		Policy:         transport.RoutePrimary,
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hc.Close() })
	return hc, gates
}

// sameRun fails the test unless got matches the oracle's answers, Net
// accounting, access counts and final positions. Counts alone can miss
// a sibling that resumed from the wrong state: BPA2 re-probing an
// already-seen position spends the same number of probes and marks.
func sameRun(t *testing.T, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Errorf("answers differ:\n%v\nvs loopback\n%v", got.Items, want.Items)
	}
	if !reflect.DeepEqual(got.BestPositions, want.BestPositions) || got.StopPosition != want.StopPosition ||
		got.Threshold != want.Threshold {
		t.Errorf("best positions %v, stop %d, threshold %v; loopback %v, %d, %v",
			got.BestPositions, got.StopPosition, got.Threshold, want.BestPositions, want.StopPosition, want.Threshold)
	}
	if !reflect.DeepEqual(got.Net, want.Net) {
		t.Errorf("Net differs: %+v vs loopback %+v", got.Net, want.Net)
	}
	if got.Accesses != want.Accesses {
		t.Errorf("accesses differ: %v vs loopback %v", got.Accesses, want.Accesses)
	}
}

// handoffCases are the cursor-bearing runs whose pin on list 0 dies
// mid-query: BPA2's probe cursor and TPUT's phase-2 scan depth.
var handoffCases = []struct {
	name      string
	run       func(context.Context, transport.Transport, Options) (*Result, error)
	killAfter int64 // /rpc calls list 0's replica 0 serves before dying
}{
	{"dist-bpa2", BPA2Over, 2},
	{"tput-above", TPUTOver, 1},
}

// TestHandoffSkipsRefusingSibling: with three replicas, a first sibling
// that refuses the handoff sync is passed over and the next one takes
// the session; the run still matches the loopback oracle.
func TestHandoffSkipsRefusingSibling(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 200, M: 3, Seed: 5})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{K: 8, Scoring: score.Sum{}}
	for _, c := range handoffCases {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.run(ctx, lb, opts)
			if err != nil {
				t.Fatal(err)
			}
			hc, gates := gatedCluster(t, db, 3, func(li, ri int, g *handoffGate) {
				if li == 0 && ri == 0 {
					g.killAfter = c.killAfter
				}
				if li == 0 && ri == 1 {
					g.refuseSync.Store(true)
				}
			})
			got, err := c.run(ctx, hc, opts)
			if err != nil {
				t.Fatalf("query did not survive the pin's death: %v", err)
			}
			sameRun(t, got, want)
			g := gates[0]
			if !g[0].dead.Load() || g[1].syncs.Load() == 0 || g[2].syncs.Load() != 1 {
				t.Errorf("pin dead %v, syncs at replica 1: %d, at replica 2: %d; want dead, >= 1, 1",
					g[0].dead.Load(), g[1].syncs.Load(), g[2].syncs.Load())
			}
			if g[1].rpcs.Load() != 0 || g[2].rpcs.Load() == 0 {
				t.Errorf("after the handoff replica 1 served %d exchanges, replica 2 %d; want 0 and > 0",
					g[1].rpcs.Load(), g[2].rpcs.Load())
			}
			if got.Recovery.Handoffs != 1 || got.Recovery.FailedReplicas != 2 {
				t.Errorf("recovery = %+v, want 1 handoff and 2 failed replicas", got.Recovery)
			}
		})
	}
}

// TestHandoffAllSiblingsRefuse: when every sibling refuses the handoff
// sync, the run fails with the typed OwnerFailedError, and the restart
// policy reruns the query on the survivors to the oracle's result.
func TestHandoffAllSiblingsRefuse(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 200, M: 3, Seed: 5})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{K: 8, Scoring: score.Sum{}}
	for _, c := range handoffCases {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.run(ctx, lb, opts)
			if err != nil {
				t.Fatal(err)
			}
			hc, gates := gatedCluster(t, db, 3, func(li, ri int, g *handoffGate) {
				if li == 0 && ri == 0 {
					g.killAfter = c.killAfter
				}
				if li == 0 && ri > 0 {
					g.refuseSync.Store(true)
				}
			})
			var errs []error
			got, err := RunWithRestart(ctx, func() (*Result, error) {
				res, err := c.run(ctx, hc, opts)
				errs = append(errs, err)
				return res, err
			}, RestartConfig{Policy: RestartOnFailure, MaxRestarts: 2})
			if err != nil {
				t.Fatalf("restart did not recover the query: %v", err)
			}
			var ofe *transport.OwnerFailedError
			if len(errs) != 2 || !errors.As(errs[0], &ofe) || ofe.List != 0 || ofe.Replica != 0 {
				t.Fatalf("attempt errors = %v, want an OwnerFailedError naming list 0 replica 0, then success", errs)
			}
			sameRun(t, got, want)
			if g := gates[0]; g[1].syncs.Load() == 0 || g[2].syncs.Load() == 0 {
				t.Errorf("handoff syncs at replica 1: %d, at replica 2: %d; want both tried",
					g[1].syncs.Load(), g[2].syncs.Load())
			}
			if got.Recovery.Restarts != 1 || got.Recovery.Handoffs != 0 {
				t.Errorf("recovery = %+v, want 1 restart and 0 handoffs", got.Recovery)
			}
		})
	}
}

// TestHandoffAfterTornProbe: the pin applies a probe, its response is
// torn in flight, and the pin dies. The session's copy of the list's
// state excludes the probe it never acknowledged, so the sibling replays
// it from the same position and the run matches the oracle — the
// pin's extra access is never counted.
func TestHandoffAfterTornProbe(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 200, M: 3, Seed: 5})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{K: 8, Scoring: score.Sum{}}
	want, err := BPA2Over(ctx, lb, opts)
	if err != nil {
		t.Fatal(err)
	}
	hc, gates := gatedCluster(t, db, 2, func(li, ri int, g *handoffGate) {
		if li == 0 && ri == 0 {
			g.tearProbe = 3
		}
	})
	got, err := BPA2Over(ctx, hc, opts)
	if err != nil {
		t.Fatalf("query did not survive the torn probe: %v", err)
	}
	if !gates[0][0].dead.Load() {
		t.Fatal("the tear never fired")
	}
	sameRun(t, got, want)
	if got.Recovery.Handoffs != 1 || got.Recovery.FailedReplicas != 1 {
		t.Errorf("recovery = %+v, want 1 handoff and 1 failed replica", got.Recovery)
	}
}

// TestHandoffAfterTornBatch tears the two batch shapes BPA2's schedule
// sends: on list 1, a batch whose probe rides behind the mark of list
// 0's probe; on list 0, an end-of-round wave of back-marks. Either way
// the pin applied the batch and died before the client read the
// answer; the sibling resumes from the acknowledged state and the run
// matches the loopback oracle with one handoff.
func TestHandoffAfterTornBatch(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 200, M: 3, Seed: 5})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{K: 8, Scoring: score.Sum{}}
	want, err := BPA2Over(ctx, lb, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		list int
		arm  func(g *handoffGate)
	}{
		{"riding-probe", 1, func(g *handoffGate) { g.tearProbe = 3 }},
		{"back-marks", 0, func(g *handoffGate) { g.tearMarks = 3 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			hc, gates := gatedCluster(t, db, 2, func(li, ri int, g *handoffGate) {
				if li == c.list && ri == 0 {
					c.arm(g)
				}
			})
			got, err := BPA2Over(ctx, hc, opts)
			if err != nil {
				t.Fatalf("query did not survive the torn batch: %v", err)
			}
			if g := gates[c.list][0]; !g.dead.Load() || g.torn.Load() < 2 {
				t.Fatalf("dead %v after tearing %d requests; want a torn batch", g.dead.Load(), g.torn.Load())
			}
			sameRun(t, got, want)
			if got.Recovery.Handoffs != 1 || got.Recovery.FailedReplicas != 1 {
				t.Errorf("recovery = %+v, want 1 handoff and 1 failed replica", got.Recovery)
			}
		})
	}
}

// TestRestoreAfterTornExchange: on a flat one-replica cluster the owner
// applies a cursor-advancing exchange — BPA2's third probe on list 0,
// or TPUT's above-scan there — and its response is torn in flight, but
// the replica lives. The session restores its acknowledged state at the
// same replica, which rolls the torn exchange back, and re-sends: the
// run matches the loopback oracle with no handoff.
func TestRestoreAfterTornExchange(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 200, M: 3, Seed: 5})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{K: 8, Scoring: score.Sum{}}
	for _, c := range []struct {
		name string
		run  func(context.Context, transport.Transport, Options) (*Result, error)
		arm  func(g *handoffGate)
	}{
		{"dist-bpa2-probe", BPA2Over, func(g *handoffGate) { g.tearProbe = 3 }},
		{"tput-above", TPUTOver, func(g *handoffGate) { g.tearAbove = 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.run(ctx, lb, opts)
			if err != nil {
				t.Fatal(err)
			}
			hc, gates := gatedCluster(t, db, 1, func(li, ri int, g *handoffGate) {
				if li == 0 {
					g.survive = true
					c.arm(g)
				}
			})
			got, err := c.run(ctx, hc, opts)
			if err != nil {
				t.Fatalf("query did not survive the torn exchange: %v", err)
			}
			if g := gates[0][0]; g.torn.Load() == 0 || g.dead.Load() || g.syncs.Load() != 1 {
				t.Fatalf("torn %d requests, dead %v, %d restores; want a tear, a live replica and 1 restore",
					g.torn.Load(), g.dead.Load(), g.syncs.Load())
			}
			sameRun(t, got, want)
			if got.Recovery.Handoffs != 0 {
				t.Errorf("recovery = %+v, want 0 handoffs", got.Recovery)
			}
		})
	}
}
