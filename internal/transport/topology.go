package transport

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"topk/internal/obs"
)

// This file is the replica-aware half of the HTTP backend: the cluster
// topology (which URLs serve which list), the per-replica connection
// state the client keeps (health, EWMA latency, failover tallies), the
// routing policies that pick a replica per exchange, and the background
// health prober. The replicas of a list serve identical data but do NOT
// share per-session protocol state, which is what splits the traffic in
// two:
//
//   - stateless exchanges (sorted, lookup, fetch — all replayable) may
//     be served by any replica holding the session and fail over to a
//     sibling when their replica dies mid-query;
//   - sessionful exchanges (probe, mark, topk, above — anything that
//     reads or advances a per-session cursor or tracker) pin the session
//     to one replica per list; if that replica dies, the query fails
//     fast with a typed OwnerFailedError instead of silently resuming on
//     a replica whose cursors never advanced.

// Topology maps every list to its replica set: Topology[i] holds the
// base URLs of the owner processes serving list i. Every replica of a
// list must own the same list of the same database; a flat single-owner
// cluster is simply a topology of one-replica lists.
type Topology [][]string

// SingleTopology lifts a flat owner set (urls[i] serves list i) into a
// one-replica-per-list topology — the shape DialOwners and the
// pre-replica DialCluster API dial.
func SingleTopology(urls []string) Topology {
	tp := make(Topology, len(urls))
	for i, u := range urls {
		tp[i] = []string{u}
	}
	return tp
}

// Validate rejects empty topologies, lists with no replicas and blank
// URLs — the shapes Dial cannot route.
func (tp Topology) Validate() error {
	if len(tp) == 0 {
		return fmt.Errorf("transport: no owner URLs")
	}
	for i, reps := range tp {
		if len(reps) == 0 {
			return fmt.Errorf("transport: list %d has no replicas", i)
		}
		for j, u := range reps {
			if strings.TrimSpace(u) == "" {
				return fmt.Errorf("transport: list %d replica %d: empty URL", i, j)
			}
		}
	}
	return nil
}

// Replicated reports whether any list has more than one replica — the
// switch that arms session pinning, failover and the client-side access
// ledger.
func (tp Topology) Replicated() bool {
	for _, reps := range tp {
		if len(reps) > 1 {
			return true
		}
	}
	return false
}

// RoutingPolicy selects which replica of a list serves a stateless
// exchange (and which replica a session pins its sessionful traffic to,
// decided once per session per list).
type RoutingPolicy uint8

const (
	// RoutePrimary always prefers the lowest-index healthy replica:
	// replicas beyond the first are pure standbys. The default.
	RoutePrimary RoutingPolicy = iota
	// RouteRoundRobin rotates stateless exchanges across the healthy
	// replicas of each list.
	RouteRoundRobin
	// RouteFastest prefers the healthy replica with the lowest EWMA
	// round-trip latency, measured from health probes and data-plane
	// exchanges.
	RouteFastest
)

// String returns the policy name ParseRoutingPolicy accepts.
func (p RoutingPolicy) String() string {
	switch p {
	case RoutePrimary:
		return "primary"
	case RouteRoundRobin:
		return "round-robin"
	case RouteFastest:
		return "fastest"
	default:
		return fmt.Sprintf("RoutingPolicy(%d)", uint8(p))
	}
}

// ParseRoutingPolicy resolves a policy name, case-insensitively.
func ParseRoutingPolicy(name string) (RoutingPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "primary":
		return RoutePrimary, nil
	case "round-robin", "roundrobin", "rr":
		return RouteRoundRobin, nil
	case "fastest":
		return RouteFastest, nil
	default:
		return 0, fmt.Errorf("transport: unknown routing policy %q (want primary, round-robin or fastest)", name)
	}
}

// OwnerFailedError reports a replica failing mid-query on traffic the
// session could not move: sessionful exchanges (probe, above, mark,
// topk, or a batch carrying one) live on the cursors and trackers of
// the pinned replica, and when it dies the session hands off to its
// synced mirror sibling. This error surfaces only when no synced mirror
// exists — a flat single-replica list, handoff disabled, or every
// sibling already failed. It names the list and the replica so an
// operator knows which process to look at; callers should rerun the
// query (or let the dist restart driver do it) — a fresh session pins
// to a live replica.
type OwnerFailedError struct {
	// List is the list index whose pinned replica failed.
	List int
	// Replica is the index of the failed replica within the list's
	// replica set.
	Replica int
	// URL is the failed replica's base URL.
	URL string
	// Err is the underlying transport failure.
	Err error
}

// Error names owner (list), replica and URL.
func (e *OwnerFailedError) Error() string {
	return fmt.Sprintf("transport: owner %d replica %d (%s) failed mid-query: %v", e.List, e.Replica, e.URL, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *OwnerFailedError) Unwrap() error { return e.Err }

// replica is the client-side state of one owner process: its URL, the
// last known health verdict, an EWMA of observed round-trip latency and
// the failure/failover tallies. All fields are atomics — the prober,
// concurrent sessions and Health snapshots touch them without locks.
type replica struct {
	list  int
	index int
	url   string

	// validated records that the replica passed the shape handshake
	// (right list index, list length, cluster width) — at dial
	// time or, for replicas that were down then, by the health prober
	// before it first marks them healthy. route never selects an
	// unvalidated replica: a misconfigured process that comes up late
	// must not silently serve a different list.
	validated atomic.Bool
	healthy   atomic.Bool
	// ewma holds the smoothed round-trip latency in nanoseconds, 0 until
	// first measured. Updated from the dial handshake, health probes and
	// every successful data-plane exchange (alpha 1/4).
	ewma atomic.Int64
	// failures counts transport-level failures observed on the data
	// plane (connection errors, per-attempt timeouts, 5xx).
	failures atomic.Int64
	// failovers counts exchanges this replica served after a sibling
	// replica failed them first.
	failovers atomic.Int64

	// brk is the replica's circuit breaker: consecutive data-plane or
	// probe failures open it and routing stops offering the replica
	// traffic until a half-open probe succeeds (breaker.go).
	brk breaker

	// probeFails counts consecutive failed health probes and nextProbe
	// (unix nanos) is when the prober may try again: a persistently-down
	// replica is probed at an exponentially decaying, capped cadence
	// instead of being hammered every interval.
	probeFails atomic.Int64
	nextProbe  atomic.Int64

	// mHealthy, mEwma and mBreaker are this replica's cached obs gauge
	// handles (topk_client_replica_healthy, topk_client_probe_ewma_seconds,
	// topk_client_breaker_open), installed at dial so the hot path never
	// touches the registry. nil on replicas built outside Dial (tests).
	mHealthy *obs.Gauge
	mEwma    *obs.Gauge
	mBreaker *obs.Gauge
}

// noteFailure tallies one transport-level failure against the replica.
func (r *replica) noteFailure() {
	r.failures.Add(1)
	mClientReplicaFails.Inc()
}

// observe folds one latency sample into the EWMA.
func (r *replica) observe(d time.Duration) {
	if d <= 0 {
		d = 1
	}
	for {
		old := r.ewma.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/4
			if next <= 0 {
				next = 1
			}
		}
		if r.ewma.CompareAndSwap(old, next) {
			if r.mEwma != nil {
				r.mEwma.Set(time.Duration(next).Seconds())
			}
			return
		}
	}
}

// tripFailure feeds one failure into the replica's circuit breaker,
// logging and counting the open transition when this failure trips it.
// Fed by the data plane and the health prober alike — K consecutive
// failures from either stop traffic to the replica.
func (t *HTTPClient) tripFailure(r *replica) {
	if !r.brk.failure(time.Now()) {
		return
	}
	if r.mBreaker != nil {
		r.mBreaker.Set(1)
	}
	mClientBreakerOpened.Inc()
	t.log.Warn("circuit breaker opened", "list", r.list, "replica", r.index, "url", r.url,
		"cooldown", time.Duration(r.brk.cooldown.Load()))
}

// tripSuccess feeds one success into the breaker, closing it (and
// readmitting the replica to routing) when it was open.
func (t *HTTPClient) tripSuccess(r *replica) {
	if !r.brk.success() {
		return
	}
	if r.mBreaker != nil {
		r.mBreaker.Set(0)
	}
	mClientBreakerClosed.Inc()
	t.log.Info("circuit breaker closed", "list", r.list, "replica", r.index, "url", r.url)
}

// noteHealth records a replica health verdict; only an actual change
// of verdict moves the transition counter, the per-replica gauge and
// the structured log — the hot path's redundant "still healthy"
// confirmations cost one atomic swap.
func (t *HTTPClient) noteHealth(r *replica, healthy bool) {
	if r.healthy.Swap(healthy) == healthy {
		return
	}
	if healthy {
		if r.mHealthy != nil {
			r.mHealthy.Set(1)
		}
		mClientHealthUp.Inc()
		t.log.Info("replica healthy", "list", r.list, "replica", r.index, "url", r.url)
		return
	}
	if r.mHealthy != nil {
		r.mHealthy.Set(0)
	}
	mClientHealthDown.Inc()
	t.log.Warn("replica unhealthy", "list", r.list, "replica", r.index, "url", r.url)
}

// ReplicaHealth is one replica's state as seen by the client — the
// verbose-output and monitoring snapshot.
type ReplicaHealth struct {
	// List and Replica locate the replica in the topology.
	List    int
	Replica int
	// URL is the replica's base URL.
	URL string
	// Healthy is the last verdict of the health prober or data plane.
	Healthy bool
	// Latency is the EWMA round-trip latency (0 if never measured).
	Latency time.Duration
	// Failures counts observed data-plane failures; Failovers counts
	// exchanges this replica served after a sibling failed them.
	Failures  int64
	Failovers int64
	// Breaker is the circuit breaker's phase: "closed" (traffic flows),
	// "open" (cooling down, routing avoids the replica) or "half-open"
	// (the next exchange is the readmission probe).
	Breaker string
}

// Health snapshots the per-replica connection state, lists in order,
// replicas in topology order within each list.
func (t *HTTPClient) Health() []ReplicaHealth {
	var out []ReplicaHealth
	now := time.Now()
	for _, reps := range t.lists {
		for _, r := range reps {
			out = append(out, ReplicaHealth{
				List:      r.list,
				Replica:   r.index,
				URL:       r.url,
				Healthy:   r.healthy.Load(),
				Latency:   time.Duration(r.ewma.Load()),
				Failures:  r.failures.Load(),
				Failovers: r.failovers.Load(),
				Breaker:   r.brk.state(now),
			})
		}
	}
	return out
}

// DefaultHealthInterval is the background prober's cadence when the dial
// config leaves it zero. Short enough that a replica crash is noticed
// within a few queries, long enough that idle clusters cost nothing
// measurable.
const DefaultHealthInterval = 3 * time.Second

// healthProbeTimeout caps one /healthz probe: a hung replica must not
// stall the sweep past the next tick.
const healthProbeTimeout = 2 * time.Second

// probeBackoffCap bounds the probe backoff of a persistently-down
// replica: however long it has been failing, the prober looks again at
// least this often, so a revived process is readmitted within a
// bounded wait.
const probeBackoffCap = 30 * time.Second

// startProber launches the background health loop: every interval it
// probes /healthz of every due replica in parallel, restoring replicas
// the data plane marked dead and demoting ones that stopped answering.
// Replicas that keep failing their probes are re-checked at an
// exponentially decaying, capped cadence instead of every tick. Close
// stops the loop and waits for it.
func (t *HTTPClient) startProber(interval time.Duration) {
	t.healthEvery = interval
	ctx, cancel := context.WithCancel(context.Background())
	t.probeCancel = cancel
	t.proberDone = make(chan struct{})
	go func() {
		defer close(t.proberDone)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				t.sweepHealth(ctx)
			}
		}
	}()
}

// sweepHealth probes every due replica once, in parallel. A replica in
// probe backoff (nextProbe in the future) is skipped — a down host
// must not be hammered at the full cadence forever.
func (t *HTTPClient) sweepHealth(ctx context.Context) {
	now := time.Now().UnixNano()
	var wg sync.WaitGroup
	for _, reps := range t.lists {
		for _, r := range reps {
			if now < r.nextProbe.Load() {
				continue
			}
			wg.Add(1)
			go func(r *replica) {
				defer wg.Done()
				t.probeReplica(ctx, r)
			}(r)
		}
	}
	wg.Wait()
}

// probeFailed schedules a failing replica's next probe with
// exponential backoff: the gap doubles with each consecutive failure,
// capped at probeBackoffCap. It also feeds the failure to the circuit
// breaker, so a replica that dies between queries is already fenced
// when the next query starts.
func (t *HTTPClient) probeFailed(r *replica) {
	fails := r.probeFails.Add(1)
	gap := t.healthEvery
	if gap <= 0 {
		gap = DefaultHealthInterval
	}
	if fails > 16 {
		fails = 16
	}
	for i := int64(0); i < fails && gap < probeBackoffCap; i++ {
		gap *= 2
	}
	if gap > probeBackoffCap {
		gap = probeBackoffCap
	}
	r.nextProbe.Store(time.Now().Add(gap).UnixNano())
	t.tripFailure(r)
}

// probeRecovered clears a replica's probe backoff after a successful
// probe.
func (r *replica) probeRecovered() {
	r.probeFails.Store(0)
	r.nextProbe.Store(0)
}

// probeReplica performs one health round-trip and updates the replica's
// verdict and EWMA. A replica that was down at dial time — never
// handshake-validated — or that has been failing probes (its process
// may have been replaced while it was down) is probed through /stats
// instead and must pass the same shape validation Dial applies before
// it counts as healthy again: reviving a misconfigured process
// unchecked would let it silently serve the wrong list.
func (t *HTTPClient) probeReplica(ctx context.Context, r *replica) {
	if !r.validated.Load() || r.probeFails.Load() > 0 {
		t.validateReplica(ctx, r)
		return
	}
	pctx, cancel := context.WithTimeout(ctx, healthProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, r.url+"/healthz", nil)
	if err != nil {
		t.noteHealth(r, false)
		return
	}
	start := time.Now()
	resp, err := t.hc.Do(req)
	if err == nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}
	if ctx.Err() != nil {
		return // the client is closing; no verdict from an aborted probe
	}
	if err == nil && resp.StatusCode == http.StatusOK {
		r.probeRecovered()
		r.observe(time.Since(start))
		t.noteHealth(r, true)
		return
	}
	t.probeFailed(r)
	t.noteHealth(r, false)
}

// validateReplica runs the dial-time shape handshake against a replica
// that has never passed it (or is being readmitted after failed
// probes), promoting it to validated+healthy only on success. A
// replica that answers with the wrong shape is unroutable until it
// validates again — and one that had been validated is demoted, since
// the process behind the URL evidently changed. Probe successes here
// deliberately do not close the circuit breaker: readmission to the
// data plane goes through the breaker's half-open probe exchange.
func (t *HTTPClient) validateReplica(ctx context.Context, r *replica) {
	pctx, cancel := context.WithTimeout(ctx, healthProbeTimeout)
	defer cancel()
	start := time.Now()
	st, err := t.replicaInfo(pctx, r)
	if ctx.Err() != nil {
		return
	}
	if err != nil {
		t.probeFailed(r)
		t.noteHealth(r, false)
		return
	}
	if err := t.checkShape(r, st); err != nil {
		r.validated.Store(false)
		t.probeFailed(r)
		t.noteHealth(r, false)
		return
	}
	r.validated.Store(true)
	r.probeRecovered()
	r.observe(time.Since(start))
	t.noteHealth(r, true)
}

// route picks the replica of list to address next under the client's
// policy. allowed filters to the replicas this session may use (those
// that hold its state), tried excludes replicas that already failed the
// exchange being routed. Healthy candidates with a closed (or
// half-open) breaker are preferred; when none exist the policy runs
// over the unhealthy remainder — a verdict can be stale, and attempting
// a "dead" replica is how a single-replica list keeps working at all —
// and only when even those are gone over the breaker-blocked ones, so
// an open breaker diverts traffic rather than failing a list that has
// no alternative. Returns nil only when allowed+tried leave nothing.
func (t *HTTPClient) route(list int, allowed []bool, tried []bool) *replica {
	var healthy, rest, fenced []*replica
	now := time.Now()
	for _, r := range t.lists[list] {
		if !r.validated.Load() {
			continue // never handshake-validated: shape unknown
		}
		if allowed != nil && !allowed[r.index] {
			continue
		}
		if tried != nil && tried[r.index] {
			continue
		}
		switch {
		case r.brk.blocked(now):
			fenced = append(fenced, r)
		case r.healthy.Load():
			healthy = append(healthy, r)
		default:
			rest = append(rest, r)
		}
	}
	cands := healthy
	if len(cands) == 0 {
		cands = rest
	}
	if len(cands) == 0 {
		cands = fenced
	}
	switch len(cands) {
	case 0:
		return nil
	case 1:
		return cands[0]
	}
	switch t.policy {
	case RouteRoundRobin:
		return cands[int(t.rr[list].Add(1)-1)%len(cands)]
	case RouteFastest:
		best := cands[0]
		for _, r := range cands[1:] {
			be, re := best.ewma.Load(), r.ewma.Load()
			// An unmeasured replica (0) counts as fastest: explore it so
			// it gets a measurement.
			if re == 0 && be != 0 || re != 0 && be != 0 && re < be {
				best = r
			}
		}
		return best
	default: // RoutePrimary
		return cands[0]
	}
}
