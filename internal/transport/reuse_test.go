package transport

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"sync"
	"testing"
	"time"

	"topk/internal/bestpos"
	"topk/internal/gen"
)

// dialCounter wraps a RoundTripper and counts, per owner host, the
// requests that got a connection no earlier request had used — the
// dials.
type dialCounter struct {
	in    http.RoundTripper
	mu    sync.Mutex
	dials map[string]int
}

func (d *dialCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	ct := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if !info.Reused {
			d.mu.Lock()
			d.dials[host]++
			d.mu.Unlock()
		}
	}}
	return d.in.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), ct)))
}

func (d *dialCounter) CloseIdleConnections() {
	d.in.(interface{ CloseIdleConnections() }).CloseIdleConnections()
}

// TestConnectionReuseNoSyncs: concurrent callers running sessionful
// queries — open, exchanges, stats, close — over a two-replica-per-list
// cluster dial each replica at most once per caller, dial handshake
// included, and with no failure no owner applies a /session/sync.
// HTTPClient.Close releases the idle connections.
func TestConnectionReuseNoSyncs(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 200, M: 3, Seed: 4})
	const reps, callers, queries = 2, 2, 4
	topo := make(Topology, db.M())
	for li := range topo {
		for ri := 0; ri < reps; ri++ {
			srv, err := NewServer(db, li)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			topo[li] = append(topo[li], ts.URL)
		}
	}
	base := runtime.NumGoroutine()
	syncs := mOwnerSessionSyncs.Value()
	// The default pool, with an idle timeout long enough that a slow
	// -race run cannot idle a connection out between two queries.
	pool := defaultHTTPClient().Transport.(*http.Transport)
	pool.IdleConnTimeout = time.Minute
	dc := &dialCounter{in: pool, dials: map[string]int{}}
	ctx := context.Background()
	hc, err := Dial(ctx, DialConfig{
		Topology:       topo,
		Client:         &http.Client{Transport: dc},
		Policy:         RouteRoundRobin,
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	query := func() error {
		s, err := hc.Open(ctx, bestpos.BitArrayKind)
		if err != nil {
			return err
		}
		defer s.Close()
		for round := 0; round < 5; round++ {
			calls := make([]Call, db.M())
			for li := range calls {
				calls[li] = Call{Owner: li, Req: ProbeReq{}}
			}
			if _, err := s.DoAll(ctx, calls); err != nil {
				return err
			}
			for li := 0; li < db.M(); li++ {
				if _, err := s.Do(ctx, li, MarkReq{Item: db.List(0).At(10 + round).Item}); err != nil {
					return err
				}
				if _, err := s.Do(ctx, li, SortedReq{Pos: 20 + round}); err != nil {
					return err
				}
			}
		}
		for li := 0; li < db.M(); li++ {
			if _, err := s.Stats(ctx, li); err != nil {
				return err
			}
		}
		return s.Close()
	}
	errs := make(chan error, callers*queries)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				errs <- query()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	dc.mu.Lock()
	for li, urls := range topo {
		for ri, u := range urls {
			host := u[len("http://"):]
			if n := dc.dials[host]; n > callers {
				t.Errorf("list %d replica %d dialed %d times, want <= %d (one per concurrent caller)", li, ri, n, callers)
			}
		}
	}
	dc.mu.Unlock()
	if d := mOwnerSessionSyncs.Value() - syncs; d != 0 {
		t.Errorf("owners applied %d session syncs without a failure, want 0", d)
	}

	hc.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("goroutines after Close: %d, want <= %d (idle connections not released)", g, base)
	}
}
