package topk

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

	"topk/internal/transport"
)

// TestParseRestartPolicy: every policy's String round-trips, plus the
// accepted aliases; unknown names are rejected.
func TestParseRestartPolicy(t *testing.T) {
	for _, p := range RestartPolicies() {
		got, err := ParseRestartPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseRestartPolicy(%q) = %v, %v", p.String(), got, err)
		}
		got, err = ParseRestartPolicy("  " + strings.ToUpper(p.String()) + " ")
		if err != nil || got != p {
			t.Errorf("ParseRestartPolicy(noisy %q) = %v, %v", p.String(), got, err)
		}
	}
	for name, want := range map[string]RestartPolicy{
		"":                 RestartOff,
		"restart-failed":   RestartFailed,
		"failed-protocols": RestartFailed,
	} {
		if got, err := ParseRestartPolicy(name); err != nil || got != want {
			t.Errorf("ParseRestartPolicy(%q) = %v, %v, want %v", name, got, err, want)
		}
	}
	if _, err := ParseRestartPolicy("zzz"); err == nil {
		t.Error("unknown restart policy accepted")
	}
}

// TestParseTopologyErrors: malformed topologies are rejected with the
// offending list index and token named, so a fat-fingered -owners flag
// is debuggable from the message alone.
func TestParseTopologyErrors(t *testing.T) {
	cases := []struct {
		in   string
		want []string // substrings the error must carry
	}{
		{"", []string{"empty topology"}},
		{"  ", []string{"empty topology"}},
		{"a,", []string{"list 1", "empty"}},
		{",a", []string{"list 0", "empty"}},
		{"a, ,b", []string{"list 1", "empty"}},
		{"a||b", []string{"list 0", "token 1", `"a||b"`}},
		{"|a", []string{"list 0", "token 0", `"|a"`}},
		{"a|b,c|", []string{"list 1", "token 1", `"c|"`}},
		{"a, b | |c", []string{"list 1", "token 1"}},
	}
	for _, c := range cases {
		_, err := ParseTopology(c.in)
		if err == nil {
			t.Errorf("ParseTopology(%q) accepted", c.in)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("ParseTopology(%q) error %q does not name %q", c.in, err, w)
			}
		}
	}
}

// hiccupGate fails exactly one /rpc call (the nth it sees, 1-based)
// with a 500 and serves everything else — the smallest disturbance that
// kills a query when transient retries are disabled.
type hiccupGate struct {
	inner http.Handler
	n     int64
	seen  atomic.Int64
}

func (g *hiccupGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/rpc/") && g.seen.Add(1) == g.n {
		http.Error(w, `{"error":"injected hiccup"}`, http.StatusInternalServerError)
		return
	}
	g.inner.ServeHTTP(w, r)
}

// deadAfterGate serves n /rpc calls and then aborts every connection
// for good, control plane included — a crashed process.
type deadAfterGate struct {
	inner     http.Handler
	remaining atomic.Int64
	dead      atomic.Bool
}

func (g *deadAfterGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	if strings.HasPrefix(r.URL.Path, "/rpc/") && g.remaining.Add(-1) < 0 {
		g.dead.Store(true)
		panic(http.ErrAbortHandler)
	}
	g.inner.ServeHTTP(w, r)
}

// sickAfterGate serves n /rpc calls and then 500s every later one while
// keeping the control plane alive — a process whose data plane is
// wedged: restarted queries can still open sessions against it, and
// every attempt dies mid-query.
type sickAfterGate struct {
	inner     http.Handler
	remaining atomic.Int64
	sick      atomic.Bool
}

func (g *sickAfterGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/rpc/") && g.remaining.Add(-1) < 0 {
		g.sick.Store(true)
		http.Error(w, `{"error":"wedged data plane"}`, http.StatusInternalServerError)
		return
	}
	g.inner.ServeHTTP(w, r)
}

// dialFlatWithGates serves every list of db from one owner wrapped in
// gate(li) and dials the flat topology with the given config overrides.
func dialFlatWithGates(t *testing.T, db *Database, cfg ClusterConfig, gate func(li int, h http.Handler) http.Handler) *Cluster {
	t.Helper()
	topo := make([][]string, db.M())
	for li := 0; li < db.M(); li++ {
		srv, err := transport.NewServer(db.db, li)
		if err != nil {
			t.Fatal(err)
		}
		h := http.Handler(srv.Handler())
		if gate != nil {
			h = gate(li, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		topo[li] = []string{ts.URL}
	}
	cfg.Topology = topo
	c, err := DialClusterConfig(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRestartAccountingParity is the restart acceptance test: for EVERY
// protocol, a query whose first attempt is killed mid-flight and rerun
// by the restart policy must report primary accounting (Net, answers)
// bit-identical to an undisturbed run — the abandoned attempt's traffic
// never leaks into the completing run's books; only Recovery says it
// happened. The cluster is flat (one replica per list), so there is no
// failover or handoff to soften the kill: restart is the only recovery.
func TestRestartAccountingParity(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: 200, M: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{K: 8}
	for _, p := range Protocols() {
		t.Run(p.String(), func(t *testing.T) {
			want, err := db.ExecDistributed(ctx, q, p)
			if err != nil {
				t.Fatal(err)
			}
			// Fail the 2nd data-plane call list 0's owner sees, once.
			// Retries are disabled, so the hiccup kills the attempt;
			// RestartAlways covers the stateless protocols too, whose flat
			// failures are plain transport errors.
			c := dialFlatWithGates(t, db,
				ClusterConfig{Retries: -1, Restart: RestartAlways},
				func(li int, h http.Handler) http.Handler {
					if li == 0 {
						return &hiccupGate{inner: h, n: 2}
					}
					return h
				})
			got, err := c.Exec(ctx, q, p)
			if err != nil {
				t.Fatalf("restarted query failed: %v", err)
			}
			if got.Stats.Recovery.Restarts != 1 {
				t.Fatalf("restarts = %d, want 1 — the hiccup never fired and the test proved nothing", got.Stats.Recovery.Restarts)
			}
			for i := range want.Items {
				if got.Items[i].Item != want.Items[i].Item || got.Items[i].Score != want.Items[i].Score {
					t.Errorf("answer %d: %+v vs undisturbed %+v", i, got.Items[i], want.Items[i])
				}
			}
			gn, wn := got.Stats.Net, want.Stats.Net
			gn.Elapsed, wn.Elapsed = 0, 0 // real time vs simulated zero
			if !reflect.DeepEqual(gn, wn) {
				t.Errorf("primary accounting diverged after restart:\n%+v\nvs undisturbed\n%+v", gn, wn)
			}
		})
	}
}

// TestRestartExhaustedError: a permanently dead owner exhausts the
// restart budget; the typed error reports the attempts spent and still
// exposes the owner failure naming list and replica.
func TestRestartExhaustedError(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: 120, M: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c := dialFlatWithGates(t, db,
		ClusterConfig{Retries: -1, Restart: RestartFailed, MaxRestarts: 1},
		func(li int, h http.Handler) http.Handler {
			if li != 1 {
				return h
			}
			g := &sickAfterGate{inner: h}
			g.remaining.Store(1)
			return g
		})
	// BPA2's probes are sessionful: the wedged owner surfaces as the
	// typed owner failure on every attempt, which RestartFailed keeps
	// retrying until the budget runs out.
	_, err = c.Exec(context.Background(), Query{K: 5}, DistBPA2)
	var ree *RestartExhaustedError
	if !errors.As(err, &ree) {
		t.Fatalf("exhausted budget surfaced as %v, want *RestartExhaustedError", err)
	}
	if ree.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (1 + MaxRestarts 1)", ree.Attempts)
	}
	var ofe *OwnerFailedError
	if !errors.As(err, &ofe) {
		t.Fatalf("RestartExhaustedError does not expose *OwnerFailedError: %v", err)
	}
	if ofe.List != 1 || ofe.Replica != 0 {
		t.Errorf("owner failure names list %d replica %d, want list 1 replica 0", ofe.List, ofe.Replica)
	}
	if !strings.Contains(err.Error(), "restart budget exhausted") {
		t.Errorf("error text = %q", err)
	}
}

// TestRestartWithHandoffDisabled: when no sibling accepts a session's
// handoff, a replicated cluster recovers a killed sessionful query only
// through the restart policy. The secondary's /session/sync answers
// 500, so the handoff sync that follows the pin's death is refused.
func TestRestartWithHandoffDisabled(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: 200, M: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{K: 6}
	want, err := db.ExecDistributed(ctx, q, DistBPA2)
	if err != nil {
		t.Fatal(err)
	}
	// Two replicas for list 0; the primary dies after two data-plane
	// calls, the secondary refuses every handoff sync. With no sibling
	// to take it, the session cannot move, so the first attempt dies
	// with the typed owner failure — and the restart reruns the query,
	// which pins to the surviving replica.
	topo := make([][]string, db.M())
	var gate *deadAfterGate
	var syncFailures atomic.Int32
	for li := 0; li < db.M(); li++ {
		reps := 1
		if li == 0 {
			reps = 2
		}
		for ri := 0; ri < reps; ri++ {
			srv, err := transport.NewServer(db.db, li)
			if err != nil {
				t.Fatal(err)
			}
			h := http.Handler(srv.Handler())
			switch {
			case li == 0 && ri == 0:
				gate = &deadAfterGate{inner: h}
				gate.remaining.Store(2)
				h = gate
			case li == 0:
				inner := h
				h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/session/sync" {
						syncFailures.Add(1)
						http.Error(w, `{"error":"sync refused"}`, http.StatusInternalServerError)
						return
					}
					inner.ServeHTTP(w, r)
				})
			}
			ts := httptest.NewServer(h)
			t.Cleanup(ts.Close)
			topo[li] = append(topo[li], ts.URL)
		}
	}
	c, err := DialClusterConfig(ctx, ClusterConfig{
		Topology: topo,
		Restart:  RestartFailed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	got, err := c.Exec(ctx, q, DistBPA2)
	if err != nil {
		t.Fatalf("restart did not recover the killed query: %v", err)
	}
	if !gate.dead.Load() {
		t.Fatal("the kill never fired")
	}
	if syncFailures.Load() == 0 {
		t.Fatal("the secondary never refused a sync: the session never tried to hand off")
	}
	if got.Stats.Recovery.Restarts != 1 || got.Stats.Recovery.Handoffs != 0 {
		t.Errorf("recovery = %+v, want 1 restart, 0 handoffs", got.Stats.Recovery)
	}
	gn, wn := got.Stats.Net, want.Stats.Net
	gn.Elapsed, wn.Elapsed = 0, 0
	if !reflect.DeepEqual(gn, wn) {
		t.Errorf("primary accounting diverged: %+v vs %+v", gn, wn)
	}

	// Per-query overrides beat the cluster default: forcing the policy
	// off on the same (now one-legged) cluster still works — the dead
	// replica is out of the routing, so no restart is needed.
	if res, err := c.Exec(ctx, q, DistBPA2, WithRestart(RestartOff)); err != nil {
		t.Errorf("healthy rerun with WithRestart(off): %v", err)
	} else if res.Stats.Recovery.Restarts != 0 {
		t.Errorf("healthy rerun spent %d restarts", res.Stats.Recovery.Restarts)
	}
}

// TestExecOptionOverrides: WithRestart/WithMaxRestarts override the
// ClusterConfig defaults per query, and WithTimeout bounds the run.
func TestExecOptionOverrides(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: 120, M: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Cluster default says restart; the per-query option turns it off,
	// so the hiccup surfaces instead of being absorbed.
	c := dialFlatWithGates(t, db,
		ClusterConfig{Retries: -1, Restart: RestartAlways},
		func(li int, h http.Handler) http.Handler {
			if li == 0 {
				return &hiccupGate{inner: h, n: 1}
			}
			return h
		})
	if _, err := c.Exec(ctx, Query{K: 4}, DistBPA2, WithRestart(RestartOff)); err == nil {
		t.Error("WithRestart(RestartOff) did not override the cluster default")
	}
	// A fresh hiccup on the next query is absorbed by the default again.
	if _, err := c.Exec(ctx, Query{K: 4}, DistBPA2); err != nil {
		t.Errorf("cluster-default restart did not absorb the hiccup: %v", err)
	}

	// WithMaxRestarts(-1) zeroes the budget: the first failure exhausts.
	c2 := dialFlatWithGates(t, db,
		ClusterConfig{Retries: -1, Restart: RestartAlways},
		func(li int, h http.Handler) http.Handler {
			if li == 0 {
				return &hiccupGate{inner: h, n: 1}
			}
			return h
		})
	_, err = c2.Exec(ctx, Query{K: 4}, DistBPA2, WithMaxRestarts(-1))
	var ree *RestartExhaustedError
	if !errors.As(err, &ree) || ree.Attempts != 1 {
		t.Errorf("WithMaxRestarts(-1) = %v, want *RestartExhaustedError after 1 attempt", err)
	}

	// WithTimeout bounds the whole query like a caller-side deadline.
	c3 := dialFlatWithGates(t, db, ClusterConfig{}, nil)
	if _, err := c3.Exec(ctx, Query{K: 4}, DistBPA2, WithTimeout(time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("WithTimeout(1ns) = %v, want context.DeadlineExceeded", err)
	}
	if _, err := c3.Exec(ctx, Query{K: 4}, DistBPA2, WithTimeout(30*time.Second)); err != nil {
		t.Errorf("generous WithTimeout failed the query: %v", err)
	}
	// ExecDistributed accepts the same options.
	if _, err := db.ExecDistributed(ctx, Query{K: 4}, DistBPA2, WithRestart(RestartAlways), WithTimeout(30*time.Second)); err != nil {
		t.Errorf("ExecDistributed with options: %v", err)
	}
}
