package topk

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"topk/internal/bestpos"
	"topk/internal/dist"
	"topk/internal/list"
	"topk/internal/transport"
)

// Protocol selects a distributed top-k protocol for ExecDistributed and
// Cluster.Exec.
type Protocol uint8

const (
	// DistBPA2 is the paper's Section 5 protocol: list owners manage
	// their own best positions; the originator keeps only the answer set
	// and m best-position scores. The default.
	DistBPA2 Protocol = iota
	// DistBPA ships seen positions to the query originator (the design
	// the paper improves on in Section 5).
	DistBPA
	// DistTA is the Threshold Algorithm run over the network.
	DistTA
	// TPUT is the Three Phase Uniform Threshold baseline (Cao & Wang,
	// PODC 2004); requires Sum scoring and non-negative scores.
	TPUT
	// TPUTA is TPUT with the phase-2 threshold split adaptively across
	// the lists from the phase-1 boundary scores, so cold lists hand
	// their scan budget to hot ones. Same requirements as TPUT.
	TPUTA
)

// String returns the protocol name.
func (p Protocol) String() string {
	switch p {
	case DistBPA2:
		return "dist-bpa2"
	case DistBPA:
		return "dist-bpa"
	case DistTA:
		return "dist-ta"
	case TPUT:
		return "tput"
	case TPUTA:
		return "tput-a"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// Protocols lists the available distributed protocols.
func Protocols() []Protocol { return []Protocol{DistBPA2, DistBPA, DistTA, TPUT, TPUTA} }

// ParseProtocol resolves a protocol name ("bpa2", "dist-bpa2", "tput-a",
// ...) case-insensitively, accepting the names String returns with or
// without the "dist-" prefix — so every String() output parses back,
// including "dist-tput".
func ParseProtocol(name string) (Protocol, error) {
	cleaned := strings.TrimPrefix(strings.ToLower(strings.TrimSpace(name)), "dist-")
	switch cleaned {
	case "bpa2":
		return DistBPA2, nil
	case "bpa":
		return DistBPA, nil
	case "ta":
		return DistTA, nil
	case "tput":
		return TPUT, nil
	case "tput-a", "tputa":
		return TPUTA, nil
	default:
		return 0, fmt.Errorf("topk: unknown protocol %q (want bpa2, bpa, ta, tput or tput-a)", name)
	}
}

// NetStats is the network profile of a distributed run — the paper's
// cost metrics. It describes the protocol, not the outages the run
// outlived: a query that survived replica deaths via handoff or
// restart reports the same NetStats as an undisturbed run (see
// DistStats.Recovery for the disturbance).
type NetStats struct {
	// Messages counts point-to-point logical messages (a request/response
	// exchange is two). Unaffected by wire coalescing — it is the paper's
	// cost metric.
	Messages int64
	// Payload counts scalar values carried in responses plus
	// variable-length request batches.
	Payload int64
	// Rounds counts protocol rounds.
	Rounds int
	// Exchanges counts wire round-trips after per-round coalescing: a
	// round's fan-out to one owner travels as one batched exchange, so
	// this is what a latency-bound deployment pays.
	Exchanges int64
	// PerOwner[i] counts the messages exchanged with the owner of list
	// i, in both directions.
	PerOwner []int64
	// TotalAccesses aggregates the list accesses owners performed.
	TotalAccesses int64
	// Elapsed is the transport's wall-clock measure of the run: zero for
	// the in-process simulation, real time for a cluster run.
	Elapsed time.Duration
}

// RecoveryStats tallies the failures a run absorbed without failing
// the query. All-zero on an undisturbed run. Kept apart from NetStats
// on purpose: recovery never perturbs the primary accounting, so a
// killed-and-recovered query reports NetStats (and answers) identical
// to an undisturbed one, with the disturbance recorded here.
type RecoveryStats struct {
	// Restarts counts full protocol reruns the restart policy spent
	// before the query completed (see ClusterConfig.Restart).
	Restarts int
	// Handoffs counts pinned-session promotions to a synced sibling
	// replica performed mid-protocol after a pinned replica died.
	Handoffs int
	// FailedReplicas counts distinct replicas that failed during the
	// query, including replicas that failed attempts a restart
	// abandoned.
	FailedReplicas int
	// Backpressure counts exchanges an overloaded owner shed with a
	// typed retry-after answer that the client absorbed by waiting and
	// re-sending. Admission-control friction, not failure: a shed
	// exchange never perturbs answers or NetStats.
	Backpressure int
}

// TraceSpan is one wire exchange of a traced distributed run (see
// WithTrace): where it went, what it carried, and what it cost. Spans
// describe the execution, not the protocol: replica choice, byte counts
// and durations vary by backend and schedule, while the span count
// equals NetStats.Exchanges and the Msgs total equals half of
// NetStats.Messages (spans count request/response pairs once).
type TraceSpan struct {
	// Seq is the exchange's position in session order, from 0.
	Seq int `json:"seq"`
	// Round is the protocol round the exchange belongs to (1-based;
	// 0 for pre-round traffic).
	Round int `json:"round"`
	// Owner is the list whose owner served the exchange.
	Owner int `json:"owner"`
	// Replica is the serving replica's index within the list's replica
	// set; -1 for the in-process backend.
	Replica int `json:"replica"`
	// URL is the serving replica's base URL ("loopback" for the
	// in-process backend).
	URL string `json:"url"`
	// Kind is the wire message kind ("sorted", "lookup", "probe", ...;
	// "batch" for a round-coalesced envelope).
	Kind string `json:"kind"`
	// Msgs counts the logical request messages carried: 1, or the batch
	// size for a coalesced exchange.
	Msgs int `json:"msgs"`
	// ReqBytes and RespBytes are the encoded wire sizes; zero for the
	// in-process backend, which never serializes.
	ReqBytes  int `json:"req_bytes"`
	RespBytes int `json:"resp_bytes"`
	// Duration is the exchange's round-trip time: real time over HTTP,
	// the handler time of the in-process simulation.
	Duration time.Duration `json:"duration"`
	// Attempts counts wire attempts spent (1 plus retries).
	Attempts int `json:"attempts"`
	// FailedOver reports that a different replica than first targeted
	// answered; Handoff that the session re-pinned to a mirror during
	// the exchange.
	FailedOver bool `json:"failed_over,omitempty"`
	Handoff    bool `json:"handoff,omitempty"`
	// Err is the terminal failure, if the exchange had one.
	Err string `json:"err,omitempty"`
}

// traceSpansOf converts the transport's spans to the public type.
func traceSpansOf(spans []transport.Span) []TraceSpan {
	if spans == nil {
		return nil
	}
	out := make([]TraceSpan, len(spans))
	for i, sp := range spans {
		out[i] = TraceSpan{
			Seq: sp.Seq, Round: sp.Round, Owner: sp.Owner, Replica: sp.Replica,
			URL: sp.URL, Kind: string(sp.Kind), Msgs: sp.Msgs,
			ReqBytes: sp.ReqBytes, RespBytes: sp.RespBytes, Duration: sp.Duration,
			Attempts: sp.Attempts, FailedOver: sp.FailedOver, Handoff: sp.Handoff, Err: sp.Err,
		}
	}
	return out
}

// DistStats reports the accounting of a distributed run: the stable
// network profile in Net and the failures the run absorbed in
// Recovery.
type DistStats struct {
	// Net is the network profile — identical to an undisturbed run even
	// when the query was restarted or handed off.
	Net NetStats
	// Recovery tallies the failures the run absorbed; all-zero when
	// nothing failed.
	Recovery RecoveryStats
	// Trace holds one span per wire exchange when the query ran with
	// WithTrace; nil otherwise. On a restarted query it covers the
	// completing attempt — the one Net accounts for.
	Trace []TraceSpan
}

// DistResult is a completed distributed query.
type DistResult struct {
	Protocol Protocol
	Items    []ScoredItem
	Stats    DistStats
}

// runnerFor maps a protocol to its transport-level runner.
func runnerFor(protocol Protocol) (func(context.Context, transport.Transport, dist.Options) (*dist.Result, error), error) {
	switch protocol {
	case DistBPA2:
		return dist.BPA2Over, nil
	case DistBPA:
		return dist.BPAOver, nil
	case DistTA:
		return dist.TAOver, nil
	case TPUT:
		return dist.TPUTOver, nil
	case TPUTA:
		return dist.TPUTAOver, nil
	default:
		return nil, fmt.Errorf("topk: unknown protocol %d", uint8(protocol))
	}
}

// distStatsOf adapts a dist result's accounting. PerOwner is copied:
// the runner's slice is live internal accounting state, and handing it
// out would let a caller's mutation corrupt anything else derived from
// the same run (the DHT pricing reads it too).
func distStatsOf(res *dist.Result) DistStats {
	return DistStats{
		Net: NetStats{
			Messages:      res.Net.Messages,
			Payload:       res.Net.Payload,
			Rounds:        res.Net.Rounds,
			Exchanges:     res.Net.Exchanges,
			PerOwner:      append([]int64(nil), res.Net.PerOwner...),
			TotalAccesses: res.Accesses.Total(),
			Elapsed:       res.Elapsed,
		},
		Recovery: RecoveryStats{
			Restarts:       res.Recovery.Restarts,
			Handoffs:       res.Recovery.Handoffs,
			FailedReplicas: res.Recovery.FailedReplicas,
			Backpressure:   res.Recovery.Backpressure,
		},
		Trace: traceSpansOf(res.Trace),
	}
}

// OwnerFailedError reports a list owner replica failing mid-query on
// traffic the transport could not recover in place: BPA2's probes,
// TPUT's phase-2 scans and the other sessionful exchanges live on the
// cursors of exactly one pinned replica. Normally a pinned replica's
// death is absorbed by the session handoff — the session re-pins to a
// sibling that mirrors its state — so this error surfaces only when no
// synced sibling exists: a flat (unreplicated) list, or every sibling
// already failed (including a sibling that dropped out of sync). The
// error names the list and replica; rerunning the query opens a fresh
// session pinned to a live replica — ClusterConfig.Restart (or
// WithRestart) does that rerun automatically. Stateless traffic (TA/BPA
// sorted reads and lookups, TPUT phase-3 fetches) never surfaces this —
// it fails over and the query completes.
type OwnerFailedError struct {
	// List is the list whose replica failed.
	List int
	// Replica is the failed replica's index within the list's replica
	// set.
	Replica int
	// URL is the failed replica's base URL.
	URL string
	// Err is the underlying failure.
	Err error
}

// Error names list, replica and URL.
func (e *OwnerFailedError) Error() string {
	return fmt.Sprintf("topk: owner %d replica %d (%s) failed mid-query: %v", e.List, e.Replica, e.URL, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *OwnerFailedError) Unwrap() error { return e.Err }

// liftOwnerFailure translates the transport layer's typed replica
// failure into the public OwnerFailedError, passing every other error
// through.
func liftOwnerFailure(err error) error {
	var ofe *transport.OwnerFailedError
	if errors.As(err, &ofe) {
		// Wrap the underlying cause, not the whole chain: the transport
		// error's message already names list, replica and URL, and the
		// public error repeats them.
		return &OwnerFailedError{List: ofe.List, Replica: ofe.Replica, URL: ofe.URL, Err: ofe.Err}
	}
	return err
}

// RestartPolicy decides when a cluster query that failed on a dying
// replica is automatically rerun from scratch on the surviving
// replicas (see ClusterConfig.Restart and WithRestart). Restart
// composes with the transport's session handoff: handoff repairs a
// run in place without losing protocol state; restart is the coarser
// fallback that throws the partial run away and reruns the whole
// protocol. Either way the completing run's answers and primary
// accounting (Stats.Net) are bit-identical to an undisturbed run;
// only Stats.Recovery records the disturbance.
type RestartPolicy uint8

const (
	// RestartOff never reruns: the first failure surfaces to the
	// caller unchanged. The default.
	RestartOff RestartPolicy = iota
	// RestartFailed reruns only queries that died with an
	// *OwnerFailedError — the failed-protocol case where a rerun on
	// the surviving replicas can succeed.
	RestartFailed
	// RestartAlways reruns on any non-cancellation error, including
	// plain transport errors from flat (unreplicated) topologies where
	// there is no failover machinery to classify the failure.
	RestartAlways
)

// String returns the policy name ParseRestartPolicy accepts.
func (p RestartPolicy) String() string {
	switch p {
	case RestartOff:
		return "off"
	case RestartFailed:
		return "failed"
	case RestartAlways:
		return "always"
	default:
		return fmt.Sprintf("RestartPolicy(%d)", uint8(p))
	}
}

// RestartPolicies lists the available restart policies.
func RestartPolicies() []RestartPolicy {
	return []RestartPolicy{RestartOff, RestartFailed, RestartAlways}
}

// ParseRestartPolicy resolves a restart policy name ("off", "failed",
// "always"), case-insensitively; "" is RestartOff.
func ParseRestartPolicy(name string) (RestartPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "off":
		return RestartOff, nil
	case "failed", "restart-failed", "failed-protocols":
		return RestartFailed, nil
	case "always":
		return RestartAlways, nil
	default:
		return 0, fmt.Errorf("topk: unknown restart policy %q (want off, failed or always)", name)
	}
}

// DefaultMaxRestarts is the rerun budget used when
// ClusterConfig.MaxRestarts (or WithMaxRestarts) is zero.
const DefaultMaxRestarts = 2

// RestartExhaustedError reports that a restart policy ran out of
// budget: every attempt failed and the policy was not allowed another.
// Err is the last attempt's failure — when the attempts died on a
// replica it wraps an *OwnerFailedError naming the list and replica.
type RestartExhaustedError struct {
	// Attempts is the total number of runs spent (1 + restarts).
	Attempts int
	// Err is the last attempt's error.
	Err error
}

// Error names the spent budget and the last failure.
func (e *RestartExhaustedError) Error() string {
	return fmt.Sprintf("topk: restart budget exhausted after %d attempts: %v", e.Attempts, e.Err)
}

// Unwrap exposes the last attempt's failure to errors.Is/As.
func (e *RestartExhaustedError) Unwrap() error { return e.Err }

// execSettings is the resolved per-Exec configuration: ClusterConfig
// defaults overridden by ExecOptions.
type execSettings struct {
	restart     RestartPolicy
	maxRestarts int
	timeout     time.Duration
	trace       bool
}

// ExecOption overrides a per-query execution setting of Cluster.Exec
// or Database.ExecDistributed; the cluster-level defaults come from
// ClusterConfig.
type ExecOption func(*execSettings)

// WithRestart overrides the restart policy for one query.
func WithRestart(p RestartPolicy) ExecOption {
	return func(s *execSettings) { s.restart = p }
}

// WithMaxRestarts overrides the rerun budget for one query: the query
// is attempted at most 1+n times. 0 means DefaultMaxRestarts; negative
// means no reruns.
func WithMaxRestarts(n int) ExecOption {
	return func(s *execSettings) { s.maxRestarts = n }
}

// WithTimeout bounds one query with a deadline, as if the caller had
// wrapped ctx in context.WithTimeout; d <= 0 means no bound. The bound
// covers the whole query including any restarts.
func WithTimeout(d time.Duration) ExecOption {
	return func(s *execSettings) { s.timeout = d }
}

// WithTrace records one TraceSpan per wire exchange into
// DistStats.Trace: round, owner, replica, kind, logical messages,
// bytes, duration and any failover or handoff the exchange absorbed.
// Tracing never perturbs the query's answers or primary accounting
// (Stats.Net) — it observes the exchanges the protocol was going to
// make anyway — but it allocates per exchange, so it is off by default.
func WithTrace() ExecOption {
	return func(s *execSettings) { s.trace = true }
}

// resolveExec applies opts over the cluster-level defaults and
// normalizes the rerun budget (0 → DefaultMaxRestarts, negative → 0).
func resolveExec(defaults execSettings, opts []ExecOption) execSettings {
	s := defaults
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	if s.maxRestarts == 0 {
		s.maxRestarts = DefaultMaxRestarts
	} else if s.maxRestarts < 0 {
		s.maxRestarts = 0
	}
	return s
}

// distRestartConfig maps the public policy onto the restart driver's.
func distRestartConfig(s execSettings) dist.RestartConfig {
	cfg := dist.RestartConfig{MaxRestarts: s.maxRestarts}
	switch s.restart {
	case RestartFailed:
		cfg.Policy = dist.RestartOnFailure
	case RestartAlways:
		cfg.Policy = dist.RestartAlways
	default:
		cfg.Policy = dist.RestartOff
	}
	return cfg
}

// runOver executes a protocol over a transport — rerunning it per the
// resolved restart settings — and adapts the result. name resolves
// item IDs to display names (nil leaves names empty — a cluster
// originator holds no dictionary).
func runOver(ctx context.Context, t transport.Transport, q Query, protocol Protocol, name func(Item) string, settings execSettings) (*DistResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if settings.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, settings.timeout)
		defer cancel()
	}
	if q.K < 1 || q.K > t.N() {
		return nil, fmt.Errorf("topk: k=%d out of range [1,%d]", q.K, t.N())
	}
	scoring := q.Scoring
	if scoring == nil {
		scoring = Sum()
	}
	run, err := runnerFor(protocol)
	if err != nil {
		return nil, err
	}
	opts := dist.Options{
		K:       q.K,
		Scoring: adaptScoring(scoring),
		Tracker: bestpos.Kind(q.Tracker),
		Trace:   settings.trace,
	}
	res, err := dist.RunWithRestart(ctx, func() (*dist.Result, error) {
		return run(ctx, t, opts)
	}, distRestartConfig(settings))
	if err != nil {
		var ee *dist.ExhaustedError
		if errors.As(err, &ee) {
			return nil, &RestartExhaustedError{Attempts: ee.Attempts, Err: liftOwnerFailure(ee.Err)}
		}
		return nil, liftOwnerFailure(err)
	}
	out := &DistResult{Protocol: protocol}
	out.Items = make([]ScoredItem, len(res.Items))
	for i, it := range res.Items {
		si := ScoredItem{Item: Item(it.Item), Score: it.Score}
		if name != nil {
			si.Name = name(si.Item)
		}
		out.Items[i] = si
	}
	out.Stats = distStatsOf(res)
	return out, nil
}

// ExecDistributed executes the query in the simulated distributed
// setting of the paper: one owner node per list, a query originator, and
// message accounting. The simulation is deterministic and in-process;
// Stats reports what would travel over a real network. ctx is honored at
// per-exchange granularity. opts override per-query execution settings
// (the in-process transport cannot fail, so restart options are
// accepted but moot; WithTimeout applies). For real HTTP owners see
// DialCluster.
func (db *Database) ExecDistributed(ctx context.Context, q Query, protocol Protocol, opts ...ExecOption) (*DistResult, error) {
	t, err := transport.NewLoopback(db.db)
	if err != nil {
		return nil, err
	}
	return runOver(ctx, t, q, protocol, db.NameOf, resolveExec(execSettings{}, opts))
}

// RoutingPolicy selects which replica of a list serves each exchange of
// a cluster query (see ClusterConfig.Policy).
type RoutingPolicy uint8

const (
	// RoutePrimary always prefers the lowest-index healthy replica of
	// each list; later replicas are pure standbys. The default.
	RoutePrimary RoutingPolicy = iota
	// RouteRoundRobin rotates stateless exchanges across the healthy
	// replicas of each list.
	RouteRoundRobin
	// RouteFastest prefers the healthy replica with the lowest smoothed
	// (EWMA) round-trip latency.
	RouteFastest
)

// String returns the policy name ParseRoutingPolicy accepts.
func (p RoutingPolicy) String() string { return transport.RoutingPolicy(p).String() }

// RoutingPolicies lists the available routing policies.
func RoutingPolicies() []RoutingPolicy {
	return []RoutingPolicy{RoutePrimary, RouteRoundRobin, RouteFastest}
}

// ParseRoutingPolicy resolves a policy name ("primary", "round-robin"/
// "rr", "fastest"), case-insensitively; "" is RoutePrimary.
func ParseRoutingPolicy(name string) (RoutingPolicy, error) {
	p, err := transport.ParseRoutingPolicy(name)
	if err != nil {
		return 0, fmt.Errorf("topk: unknown routing policy %q (want primary, round-robin or fastest)", name)
	}
	return RoutingPolicy(p), nil
}

// ParseTopology parses the CLI cluster syntax into a replica topology:
// lists are comma-separated and a list's replicas are |-separated, so
//
//	host:a|host:b,host:c
//
// is a two-list cluster whose first list is served by the two replicas
// host:a and host:b. Each element is a host:port or a full URL;
// whitespace around separators is ignored. The flat single-owner syntax
// ("host:a,host:c") parses to a one-replica-per-list topology.
func ParseTopology(s string) ([][]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("topk: empty topology")
	}
	lists := strings.Split(s, ",")
	topo := make([][]string, len(lists))
	for i, l := range lists {
		if strings.TrimSpace(l) == "" {
			return nil, fmt.Errorf("topk: topology list %d is empty (lists are comma-separated; got list token %q)", i, l)
		}
		for j, tok := range strings.Split(l, "|") {
			r := strings.TrimSpace(tok)
			if r == "" {
				return nil, fmt.Errorf("topk: topology list %d: empty replica address at token %d of %q (replicas are |-separated)", i, j, strings.TrimSpace(l))
			}
			topo[i] = append(topo[i], r)
		}
	}
	return topo, nil
}

// ClusterConfig declares a cluster connection: the replica topology and
// the policies that drive it. The zero value of every field except
// Topology is a sensible default, so
//
//	topk.DialClusterConfig(ctx, topk.ClusterConfig{Topology: topo})
//
// behaves like DialCluster with failover armed.
type ClusterConfig struct {
	// Topology maps every list to its replica set: Topology[i] holds the
	// addresses ("host:port" or full URLs) of the owner processes
	// serving list i. Every replica of a list must serve the same list
	// of the same database; the dial handshake validates it. See
	// ParseTopology for the CLI syntax.
	Topology [][]string
	// Policy routes each stateless exchange across a list's healthy
	// replicas (and picks the replica each query session pins its
	// cursor-bearing traffic to). Default RoutePrimary.
	Policy RoutingPolicy
	// HealthInterval is the cadence of the background health prober that
	// demotes unreachable replicas and revives recovered ones. 0 means
	// the default (a few seconds); negative disables background probing
	// — the data plane still demotes replicas that fail exchanges. The
	// prober runs only when some list actually has replicas to choose
	// between; a flat topology spawns no background work.
	HealthInterval time.Duration
	// RequestTimeout bounds every HTTP attempt (default 30s).
	RequestTimeout time.Duration
	// Retries is the transient-failure budget of a replayable exchange:
	// how many extra attempts it may spend, against a sibling replica
	// when one is routable. 0 means the default (1); negative disables
	// retries.
	Retries int
	// BackoffBase and BackoffCap shape the full-jitter exponential
	// backoff slept before each retry: the a-th re-attempt sleeps a
	// uniform draw from (0, min(BackoffCap, BackoffBase<<(a-1))], so a
	// retry storm decorrelates instead of stampeding a recovering
	// owner. Zero means the defaults (2ms base, 250ms cap); a negative
	// BackoffBase restores immediate retries.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerThreshold is each replica's circuit-breaker trip point:
	// after this many consecutive failures (data plane or health probe)
	// the breaker opens and routing avoids the replica until a half-open
	// probe exchange succeeds; each failed probe doubles the cooldown,
	// capped. 0 means the default (5); negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the first open interval (default 1s).
	BreakerCooldown time.Duration
	// Restart is the default restart policy of this cluster's queries:
	// when a query dies on a failing replica, rerun it from scratch on
	// the survivors instead of surfacing the error. Default RestartOff.
	// Override per query with WithRestart.
	Restart RestartPolicy
	// MaxRestarts bounds the reruns one query may spend: at most
	// 1+MaxRestarts attempts. 0 means DefaultMaxRestarts; negative means
	// no reruns. Override per query with WithMaxRestarts.
	MaxRestarts int
	// Logger receives the cluster client's structured recovery log:
	// replica health transitions, mirror promotions and session
	// handoffs, at slog.LevelInfo and below. nil discards them.
	Logger *slog.Logger
}

// Cluster is a connection to real list owners serving the distributed
// protocols over HTTP — one or more owner processes per list, each
// started with cmd/topk-owner. A Cluster is safe for concurrent use:
// every Exec opens its own owner-side query session (seen positions,
// scan cursors, access tallies keyed by a session ID carried in every
// message), so any number of originator goroutines can query the same
// owners at once with answers and accounting identical to running them
// serially.
//
// When a list has several replicas, session opens fan out to all of
// them, stateless traffic is routed by the configured policy and fails
// over mid-query when a replica dies, and cursor-bearing traffic is
// pinned per session with its state deltas mirrored to a sibling — a
// pinned replica's death hands the session off to the synced sibling
// and the query completes. Only when no synced sibling remains does the
// death surface as *OwnerFailedError, and ClusterConfig.Restart can
// absorb even that by rerunning the query on the survivors. Answers and
// primary accounting (Stats.Net) stay bit-identical to a single-owner
// run in every case; Stats.Recovery records what failed underneath.
type Cluster struct {
	t *transport.HTTPClient
	// defaults are the dial-time per-query settings (restart policy and
	// budget from ClusterConfig) that ExecOptions override.
	defaults execSettings
}

// DialClusterConfig connects to the owner processes of a declarative
// cluster topology. The dial handshake — bounded by ctx — validates
// every reachable replica (list index, list length, cluster width);
// replicas that are down at dial time are tolerated as long as each
// list has at least one reachable replica, and revived by the
// background health prober when they return. Close the returned cluster
// to stop the prober and release connections.
func DialClusterConfig(ctx context.Context, cfg ClusterConfig) (*Cluster, error) {
	t, err := transport.Dial(ctx, transport.DialConfig{
		Topology:         cfg.Topology,
		Policy:           transport.RoutingPolicy(cfg.Policy),
		HealthInterval:   cfg.HealthInterval,
		RequestTimeout:   cfg.RequestTimeout,
		Retries:          cfg.Retries,
		BackoffBase:      cfg.BackoffBase,
		BackoffCap:       cfg.BackoffCap,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
		Logger:           cfg.Logger,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{
		t:        t,
		defaults: execSettings{restart: cfg.Restart, maxRestarts: cfg.MaxRestarts},
	}, nil
}

// DialCluster connects to a flat owner set; owners[i] ("host:port" or a
// full URL) must serve list i. It is exactly
// DialClusterConfig(context.Background(), ClusterConfig{Topology: one
// replica per list}): every owner must agree on the list length and the
// number of lists, all sessions share one pooled HTTP client, every
// request is bounded by a per-request timeout and — when replaying it
// cannot change what the query observes — retried once on transient
// failures (connection errors, 5xx), with the failing owner named in
// the returned error. For replicated lists, routing policies and
// mid-query failover, see DialClusterConfig.
func DialCluster(owners []string) (*Cluster, error) {
	topo := make([][]string, len(owners))
	for i, o := range owners {
		topo[i] = []string{o}
	}
	return DialClusterConfig(context.Background(), ClusterConfig{Topology: topo})
}

// N returns the shared list length of the cluster.
func (c *Cluster) N() int { return c.t.N() }

// M returns the number of owners (lists).
func (c *Cluster) M() int { return c.t.M() }

// ReplicaHealth is one replica's connection state as the cluster client
// sees it — what topk-query's verbose mode prints.
type ReplicaHealth struct {
	// List and Replica locate the replica in the topology.
	List    int
	Replica int
	// URL is the replica's base URL.
	URL string
	// Healthy is the latest verdict of the health prober or data plane.
	Healthy bool
	// Latency is the smoothed (EWMA) round-trip latency; 0 if never
	// measured.
	Latency time.Duration
	// Failures counts data-plane failures observed on this replica;
	// Failovers counts exchanges it served after a sibling failed them.
	Failures  int64
	Failovers int64
	// Breaker is the replica's circuit-breaker phase: "closed" (traffic
	// flows), "open" (cooling down after consecutive failures; routing
	// avoids the replica) or "half-open" (the next exchange is the
	// readmission probe).
	Breaker string
}

// Health snapshots the per-replica connection state: health verdicts,
// EWMA latencies and failover tallies, lists in order and replicas in
// topology order within each list.
func (c *Cluster) Health() []ReplicaHealth {
	hs := c.t.Health()
	out := make([]ReplicaHealth, len(hs))
	for i, h := range hs {
		// Field-identical structs: the conversion turns any future field
		// drift between the two into a compile error instead of a silent
		// zero value.
		out[i] = ReplicaHealth(h)
	}
	return out
}

// Exec executes the query against the cluster's owners inside its own
// query session. The answers and the primary Stats accounting
// (Stats.Net) are identical to the in-process Database.ExecDistributed
// on the same data — the protocols cannot tell the backends apart, and
// with replicated lists they cannot tell how the traffic was routed,
// handed off or restarted — but Stats.Net.Elapsed is real network
// time and Stats.Recovery reports any failures the run absorbed. ctx
// cancels or bounds the run at per-exchange granularity; the
// owner-side session is released either way. opts override the
// cluster's per-query defaults (WithRestart, WithMaxRestarts,
// WithTimeout). Item names are left empty: the originator holds no
// dictionary.
func (c *Cluster) Exec(ctx context.Context, q Query, protocol Protocol, opts ...ExecOption) (*DistResult, error) {
	return runOver(ctx, c.t, q, protocol, nil, resolveExec(c.defaults, opts))
}

// Close stops the cluster's background health prober and releases its
// connections.
func (c *Cluster) Close() error { return c.t.Close() }

// ScoreUpdate is one (item, delta) score change of a live update feed:
// item's local score at the addressed owner moves by Delta. Items are
// the dense 0-based IDs the cluster's queries report.
type ScoreUpdate struct {
	Item  int32
	Delta float64
}

// UpdateAck is the cluster-wide acknowledgement of one update batch.
type UpdateAck struct {
	// Applied reports the batch was applied fresh by at least one
	// replica; false means every replica had already seen the (feed, seq)
	// pair — a retried or reordered batch, acknowledged without effect.
	Applied bool
	// Version is the highest per-list update version across the list's
	// replicas after the batch.
	Version uint64
	// Crossings names the standing queries whose owner-side filters
	// flagged this batch as a potential top-k change (union across
	// replicas, sorted) — the live coordinator re-evaluates exactly
	// these.
	Crossings []string
}

// SendUpdate applies one batch of score updates to the list of owner
// index owner, fanned out to every replica so the replicas stay
// interchangeable. Batches of one feed carry strictly increasing
// sequence numbers; a batch at or below a replica's last applied
// sequence is acknowledged without being re-applied, which makes
// re-sending after a partial failure (or a transport retry) safe.
// Owners serving read-only lists reject updates — start them with
// updates enabled (topk-owner -mutable).
func (c *Cluster) SendUpdate(ctx context.Context, owner int, feed string, seq uint64, updates []ScoreUpdate) (UpdateAck, error) {
	ups := make([]transport.ScoreUpdate, len(updates))
	for i, u := range updates {
		ups[i] = transport.ScoreUpdate{Item: list.ItemID(u.Item), Delta: u.Delta}
	}
	resp, err := c.t.UpdateAll(ctx, owner, feed, seq, ups)
	if err != nil {
		return UpdateAck{}, err
	}
	return UpdateAck{Applied: resp.Applied, Version: resp.Version, Crossings: resp.Crossings}, nil
}

// SetLiveFilter installs a standing query's notification filter at
// every replica of owner index owner: updates that touch a watched item
// — or accumulate at least slack of positive drift on any other item —
// are flagged as crossings in their UpdateAck; everything else is
// provably unable to change the query's top-k and stays silent. The
// live coordinator (internal/live) derives slack and watch from the
// standing query's current ranking; most callers never call this
// directly.
func (c *Cluster) SetLiveFilter(ctx context.Context, owner int, query string, slack float64, watch []int32) error {
	ids := make([]list.ItemID, len(watch))
	for i, d := range watch {
		ids[i] = list.ItemID(d)
	}
	return c.t.SetFilter(ctx, owner, query, slack, ids)
}

// ClearLiveFilter removes a standing query's filter at every replica of
// owner index owner (idempotent).
func (c *Cluster) ClearLiveFilter(ctx context.Context, owner int, query string) error {
	return c.t.ClearFilter(ctx, owner, query)
}
