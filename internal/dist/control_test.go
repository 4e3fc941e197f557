package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/score"
	"topk/internal/store/stripe"
	"topk/internal/transport"
)

// pathCounter fronts one owner replica and counts the requests it
// receives per endpoint. tearFirst, when set, tears the response of the
// first /rpc exchange: the owner applies it, the client reads half a
// frame. marked records, for each /rpc request carrying the tracker
// marker, how many sessions the owner held after serving it.
type pathCounter struct {
	inner     http.Handler
	owner     *transport.Owner
	tearFirst bool

	mu     sync.Mutex
	counts map[string]int
	marked []int
}

func (c *pathCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if strings.HasPrefix(path, "/rpc/") {
		path = "/rpc"
	}
	c.mu.Lock()
	c.counts[path]++
	tear := c.tearFirst && path == "/rpc" && c.counts[path] == 1
	c.mu.Unlock()
	if path == "/rpc" && r.URL.Query().Has("tracker") {
		defer func() {
			c.mu.Lock()
			c.marked = append(c.marked, c.owner.Sessions())
			c.mu.Unlock()
		}()
	}
	if tear {
		rec := httptest.NewRecorder()
		c.inner.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		body := rec.Body.Bytes()
		_, _ = w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}
	c.inner.ServeHTTP(w, r)
}

// take returns the per-endpoint counts since the last take and resets
// them.
func (c *pathCounter) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.counts
	c.counts = map[string]int{}
	return out
}

// countedCluster serves every list of db from reps counted replicas and
// dials them under policy, with no health prober.
func countedCluster(t *testing.T, db *list.Database, reps int, policy transport.RoutingPolicy) (*transport.HTTPClient, [][]*pathCounter) {
	t.Helper()
	topo := make(transport.Topology, db.M())
	counters := make([][]*pathCounter, db.M())
	for li := range topo {
		for ri := 0; ri < reps; ri++ {
			srv, err := transport.NewServer(db, li)
			if err != nil {
				t.Fatal(err)
			}
			c := &pathCounter{inner: srv.Handler(), owner: srv.Owner(), counts: map[string]int{}}
			ts := httptest.NewServer(c)
			t.Cleanup(ts.Close)
			topo[li] = append(topo[li], ts.URL)
			counters[li] = append(counters[li], c)
		}
	}
	hc, err := transport.Dial(context.Background(), transport.DialConfig{
		Topology:       topo,
		Policy:         policy,
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hc.Close() })
	return hc, counters
}

// TestQueryControlRequests: dialing costs one /stats per replica; a
// query over HTTP then costs its /rpc exchanges plus one /session/close
// per replica it contacted — no /session/open and no /stats, over flat
// and replicated topologies alike — still reports its accesses (from
// the receipts), and leaves no session behind at any owner.
func TestQueryControlRequests(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 500, M: 3, Seed: 11})
	opts := Options{K: 10, Scoring: score.Sum{}}
	for _, topo := range []struct {
		name   string
		reps   int
		policy transport.RoutingPolicy
	}{
		{"flat", 1, transport.RoutePrimary},
		{"replicated-round-robin", 2, transport.RouteRoundRobin},
	} {
		hc, counters := countedCluster(t, db, topo.reps, topo.policy)
		for li, cs := range counters {
			for ri, c := range cs {
				if got := c.take(); got["/stats"] != 1 {
					t.Errorf("%s: dial handshake made %d /stats at list %d replica %d, want 1",
						topo.name, got["/stats"], li, ri)
				}
			}
		}
		for _, p := range overProtocols {
			t.Run(topo.name+"/"+p.name, func(t *testing.T) {
				res, err := p.run(context.Background(), hc, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Accesses.Total() == 0 {
					t.Error("no accesses reported without /stats")
				}
				rpcs := 0
				for li, cs := range counters {
					for ri, c := range cs {
						got := c.take()
						if got["/stats"] != 0 || got["/session/open"] != 0 {
							t.Errorf("list %d replica %d: %d /stats and %d /session/open requests, want 0",
								li, ri, got["/stats"], got["/session/open"])
						}
						want := 0
						if got["/rpc"] > 0 {
							want = 1
						}
						if got["/session/close"] != want {
							t.Errorf("list %d replica %d: %d closes after %d exchanges, want %d",
								li, ri, got["/session/close"], got["/rpc"], want)
						}
						rpcs += got["/rpc"]
						if n := c.owner.Sessions(); n != 0 {
							t.Errorf("list %d replica %d holds %d sessions after Close", li, ri, n)
						}
					}
				}
				if int64(rpcs) != res.Net.Exchanges {
					t.Errorf("%d /rpc requests, Net.Exchanges = %d", rpcs, res.Net.Exchanges)
				}
			})
		}
	}
}

// TestSessionCreatedOnce: the response of the first exchange a
// one-replica list serves is torn after the owner applied it, so that
// exchange created the session there. The retry finds the session and
// leaves exactly one; the run is bit-identical to Loopback. A stateless
// retry still carries the tracker marker; a sessionful one follows a
// restore, which finds the session, so it travels unmarked.
func TestSessionCreatedOnce(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 300, M: 3, Seed: 5})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{K: 8, Scoring: score.Sum{}}
	// The first exchange is a sorted read (TA) or a top-k fetch (TPUT);
	// a flat list retries either on the same replica.
	for _, p := range []struct {
		name   string
		run    func(context.Context, transport.Transport, Options) (*Result, error)
		marked string
	}{{"dist-ta", TAOver, "[1 1]"}, {"tput", TPUTOver, "[1]"}} {
		t.Run(p.name, func(t *testing.T) {
			want, err := p.run(ctx, lb, opts)
			if err != nil {
				t.Fatal(err)
			}
			hc, counters := countedCluster(t, db, 1, transport.RoutePrimary)
			c := counters[0][0]
			c.mu.Lock()
			c.tearFirst = true
			c.mu.Unlock()
			got, err := p.run(ctx, hc, opts)
			if err != nil {
				t.Fatalf("query did not survive the torn first exchange: %v", err)
			}
			sameRun(t, got, want)
			c.mu.Lock()
			marked := fmt.Sprint(c.marked)
			c.mu.Unlock()
			if marked != p.marked {
				t.Errorf("sessions after each marked exchange = %s, want %s", marked, p.marked)
			}
			if n := c.owner.Sessions(); n != 0 {
				t.Errorf("owner holds %d sessions after Close", n)
			}
		})
	}
}

// TestTPUTNegativeScoreAtOwner: TPUT over a list holding a negative
// score fails with transport.ErrNegativeScore over Loopback and HTTP,
// whether the owner serves the list from RAM, from a stripe file, or
// from a mutable list an update has just driven below zero.
func TestTPUTNegativeScoreAtOwner(t *testing.T) {
	neg, err := list.FromColumns([][]float64{{1, -2, 3, 0.5}, {0.5, 1, 2, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := stripe.WriteBytes(neg, stripe.WriteOptions{StripeCap: 2, PosPageCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := stripe.OpenReader(bytes.NewReader(raw), int64(len(raw)), stripe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	disk, err := sdb.Database()
	if err != nil {
		t.Fatal(err)
	}
	// mutable returns a database of mutable copies of pos's lists; drop
	// is the update that takes item 1 of list 0 to -1.
	pos := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 50, M: 2, Seed: 3})
	mutable := func() *list.Database {
		lists := make([]list.Reader, pos.M())
		for i := range lists {
			m, err := list.MutableFromReader(pos.List(i))
			if err != nil {
				t.Fatal(err)
			}
			lists[i] = m
		}
		db, err := list.NewReaderDatabase(lists...)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	drop := -1 - pos.List(0).ScoreOf(1)

	ctx := context.Background()
	opts := Options{K: 2, Scoring: score.Sum{}}
	runs := []struct {
		name string
		run  func(context.Context, transport.Transport, Options) (*Result, error)
	}{{"tput", TPUTOver}, {"tput-a", TPUTAOver}}
	refused := func(t *testing.T, tr transport.Transport) {
		t.Helper()
		for _, r := range runs {
			if _, err := r.run(ctx, tr, opts); !errors.Is(err, transport.ErrNegativeScore) {
				t.Errorf("%s: err = %v, want ErrNegativeScore", r.name, err)
			}
		}
	}
	accepted := func(t *testing.T, tr transport.Transport) {
		t.Helper()
		for _, r := range runs {
			if _, err := r.run(ctx, tr, opts); err != nil {
				t.Fatalf("%s before the update: %v", r.name, err)
			}
		}
	}

	for name, db := range map[string]*list.Database{"ram": neg, "stripe": disk} {
		t.Run(name+"/loopback", func(t *testing.T) {
			lb, err := transport.NewLoopback(db)
			if err != nil {
				t.Fatal(err)
			}
			refused(t, lb)
		})
		t.Run(name+"/http", func(t *testing.T) { refused(t, httpCluster(t, db)) })
	}
	t.Run("mutable/loopback", func(t *testing.T) {
		db := mutable()
		lb, err := transport.NewLoopback(db)
		if err != nil {
			t.Fatal(err)
		}
		accepted(t, lb)
		if _, err := db.List(0).(*list.Mutable).Apply([]list.Update{{Item: 1, Delta: drop}}); err != nil {
			t.Fatal(err)
		}
		refused(t, lb)
	})
	t.Run("mutable/http", func(t *testing.T) {
		hc := httpCluster(t, mutable())
		accepted(t, hc)
		if _, err := hc.UpdateAll(ctx, 0, "neg", 1, []transport.ScoreUpdate{{Item: 1, Delta: drop}}); err != nil {
			t.Fatal(err)
		}
		refused(t, hc)
	})
}
