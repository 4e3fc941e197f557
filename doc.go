// Package topk answers top-k queries over sorted lists, implementing the
// Best Position Algorithms of Akbarinia, Pacitti and Valduriez ("Best
// Position Algorithms for Top-k Queries", VLDB 2007) together with the
// classic baselines they improve on.
//
// # Model
//
// A database is a set of m sorted lists over the same n data items: every
// item appears in every list with a local score, and each list is sorted
// by descending local score (Section 2 of the paper). A top-k query asks
// for the k items whose overall score — a monotone function f of the m
// local scores, typically their sum — is highest.
//
// # Algorithms
//
//   - Naive: full scan, O(m*n). Correctness baseline.
//   - FA: Fagin's Algorithm. Scans until k items are seen in all lists.
//   - TA: the Threshold Algorithm, stopping on the threshold computed
//     from the last scores seen under sorted access.
//   - BPA: the paper's Best Position Algorithm. Tracks the positions seen
//     in each list and stops on the score at the "best position" (the
//     deepest contiguously seen prefix). Never worse than TA, up to
//     (m-1) times cheaper.
//   - BPA2: the paper's optimized variant. Probes each list directly at
//     its first unseen position, never touching a position twice, and
//     keeps the position bookkeeping at the lists rather than the query
//     coordinator. The default.
//   - NRA / CA: the No-Random-Access and Combined algorithms of Fagin,
//     Lotem and Naor — the rest of the design space the paper's
//     algorithms live in. They guarantee the top-k item set but may
//     report score bounds instead of exact scores (Result.Inexact).
//
// # Quick start
//
// Every entry point takes a context.Context: cancellation and deadlines
// are honored at access granularity, so a served query can be abandoned
// the moment its client disconnects.
//
//	db, err := topk.FromColumns([][]float64{
//	    {0.9, 0.3, 0.6},  // list 1: local scores of items 0, 1, 2
//	    {0.2, 0.8, 0.7},  // list 2
//	})
//	if err != nil { ... }
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	res, err := db.Exec(ctx, topk.Query{K: 2})
//	if err != nil { ... }
//	for _, it := range res.Items {
//	    fmt.Println(it.Item, it.Score)
//	}
//
// Result.Stats reports the paper's cost metrics (sorted/random/direct
// access counts and the weighted execution cost) so the algorithms can be
// compared on any workload.
//
// When k is not known upfront, ProgressiveCtx enumerates answers rank by
// rank — the any-time iterator shape of ranked enumeration: each Next
// returns the next certified answer, a canceled or expired ctx ends the
// stream (Next false, Err reports why), and everything delivered before
// the deadline remains a correct prefix of the ranking.
//
// # Distributed execution
//
// ExecDistributed executes the query in the paper's distributed setting
// (implemented by internal/dist): each sorted list lives at its own owner
// node and the query originator exchanges explicit request/response
// messages with the owners. Five protocols are available, differing in
// where the bookkeeping lives and what travels:
//
//	protocol   exchanges                 positions travel  bookkeeping at
//	DistTA     2 messages per access     no                originator
//	DistBPA    2 messages per access     yes (payload)     originator
//	DistBPA2   2 messages per access     never             list owners
//	TPUT       3 batched phases          no                originator
//	TPUTA      3 batched phases          no                originator
//
// DistBPA2 is the paper's Section 5 design — owners manage their own
// best positions, the originator keeps only the answer set and the m
// best-position scores — and the default. TPUT (Cao & Wang) trades
// per-access exchanges for three fixed batched round trips; it requires
// Sum scoring over non-negative scores. TPUTA is its adaptive
// refinement: the phase-2 threshold budget is reshaped from the phase-1
// boundary scores, so lists with nothing to contribute hand their share
// to the dense ones and the aggregate scan never deepens.
// DistResult.Stats reports messages, response payload, protocol rounds,
// per-owner traffic and the transport's wall-clock.
//
// # Sessions and transports
//
// Every distributed run executes inside its own query session: a unique
// session ID, carried in every message, keys all owner-side state (seen
// positions, scan cursors, access tallies). Owners therefore serve any
// number of concurrent originators — N goroutines querying one Cluster
// produce answers and accounting bit-identical to running them serially
// — and a canceled ctx aborts a run at per-exchange granularity while
// releasing its owner-side session.
//
// The protocols are pure originator logic over internal/transport's
// message vocabulary, so one protocol runs unchanged over both
// backends with bit-identical answers, traffic accounting and access
// counts — only the wall-clock measure differs:
//
//	backend     delivery                  rounds cost (wall-clock)
//	Loopback    in-process, sequential    zero (simulation default), or with
//	                                      a latency model: max over owners
//	                                      per fan-out, virtual clock, no
//	                                      sleeping
//	HTTP        real owner servers,       real network time
//	            binary wire
//
// Under a latency model a protocol round costs its slowest owner, not
// the sum of all owners, which is what makes the round structure
// measurable: TPUT/TPUTA finish in three fan-outs at any latency, TA/BPA
// pay a round-trip chain per sorted depth, and BPA2 pays fewer,
// probe-chained rounds (BenchmarkTransport sweeps this at 1ms/10ms/50ms
// per exchange; BenchmarkConcurrentSessions measures queries/sec as
// concurrent originators grow).
//
// # Round coalescing and the wire codec
//
// The transport hot path is coalesced per round: all the logical
// messages a protocol round sends to one owner travel as a single
// batched exchange for that owner, executed atomically against the
// query's session, with responses in request order. TA and BPA, which
// trigger m-1 lookups per owner per round, collapse from m round-trips
// per round to two; BPA2 and TPUT already address each owner at most
// once per fan-out and are untouched. Batching is per-owner, per-round,
// single-session wire mechanics: DistStats.Net.Messages, Payload and
// PerOwner keep charging the logical messages (the paper's cost
// metrics), while DistStats.Net.Exchanges counts the wire round-trips a
// deployment actually pays.
//
// On the HTTP backend each exchange travels as one length-prefixed
// little-endian binary frame (Content-Type application/x-topk-binary;
// owners answer any other data-plane Content-Type with 415), which
// carries scores — the +Inf best-position piggyback included — as raw
// IEEE-754 bits. JSON stays on the control plane (sessions, stats,
// filters) and on the debug endpoints. Whole-query wire traffic on the
// seeded uniform workload (n=2000, m=4, k=10):
//
//	protocol   binary bytes/query
//	dist-ta        141,984
//	dist-bpa       156,672
//	dist-bpa2      136,640
//	tput            72,412
//	tput-a          72,412
//
// (TestBinaryCodecQueryBytes pins these; BenchmarkCodec prices the
// encode/decode path. Answers and all accounting are bit-identical
// across backends — the parity suite pins it.)
//
// The HTTP backend is a real cluster: cmd/topk-owner serves one list
// per process, and DialCluster (or topk-query -owners) drives the same
// protocols against it:
//
//	topk-owner -gen uniform -n 10000 -m 2 -seed 7 -list 0 -addr localhost:9001 &
//	topk-owner -gen uniform -n 10000 -m 2 -seed 7 -list 1 -addr localhost:9002 &
//	topk-query -owners localhost:9001,localhost:9002 -k 10 -protocol bpa2
//
// returns the same top-k as the centralized run on the same data, and
// any number of such originators may run at once over one pooled HTTP
// client (connections are reused across sessions rather than
// re-handshaken per exchange). The client bounds every request with a
// per-request timeout and retries once on transient owner failures
// (connection errors, 5xx), naming the failing owner in the error;
// exchanges that advance an owner-side cursor (BPA2's probe, TPUT's
// phase-2 scan, or any batch containing one) are never replayed — a
// retry there could silently skip list entries, so those fail fast
// instead. Owners evict sessions left idle past a TTL (topk-owner
// -session-ttl, default 15m) so crashed originators cannot starve the
// per-owner session limit; evictions are reported in /stats.
// cmd/topk-serve -owners exposes a remote cluster through the /v1/dist
// JSON endpoint, one session per API request.
//
// # Replica topologies, routing policies and mid-query failover
//
// A single live owner per list makes every owner a single point of
// failure. ClusterConfig declares a replica-aware topology instead —
// per-list replica sets, a routing policy, the health-check cadence and
// the per-request timeout/retry budget — dialed with DialClusterConfig;
// ParseTopology accepts the CLI syntax (replicas |-separated within a
// list, lists comma-separated), and DialCluster remains the flat
// one-replica-per-list shape. Every replica of a list serves the same
// list of the same database (validated at dial time); a background
// prober polls replica health and an EWMA of round-trip latency.
//
// The routing policy picks the replica for each exchange:
//
//	policy       stateless exchanges route to          default
//	primary      lowest-index healthy replica          yes
//	round-robin  healthy replicas, rotating
//	fastest      healthy replica with lowest EWMA
//
// Query sessions open on every replica of every list, so failover never
// loses session identity; cursor-bearing ("sessionful") traffic pins
// each session to one replica per list, chosen by the policy. What a
// replica crash does mid-query depends on what the traffic was and on
// the recovery machinery below:
//
//	traffic                        state touched     on replica failure
//	sorted, lookup, fetch          none              fails over to a sibling;
//	  (TA, BPA, TPUT phase 1+3)                      query completes, answers
//	                                                 and accounting unchanged
//	mark, topk (replayable but     tracker, depth    session handoff: the pin's
//	  cursor-bearing)                                mirrored state resumes on a
//	                                                 sibling, the exchange is
//	                                                 re-sent there
//	probe, above (non-replayable)  tracker, depth    session handoff; safe even
//	  (BPA2, TPUT phase 2)                           without replayability — the
//	                                                 mirror is only ever behind
//	                                                 by the failed exchange
//
// With no synced sibling left to hand off to, sessionful
// failures surface as *OwnerFailedError naming the list and replica,
// and the restart policy decides whether the query is transparently
// rerun on the survivors.
//
// # Recovery: session handoff and automatic restart
//
// Two mechanisms together make replica death invisible to callers —
// zero failed queries as long as each list keeps one live replica.
//
// Session handoff (owner side, always on): after every successful
// sessionful exchange the client synchronously mirrors the pinned replica's state
// delta — positions newly seen, scan depth — to one sibling replica of
// that list, over uncharged control-plane endpoints (POST /session/sync,
// GET /session/state). The mirror is therefore always exactly the pin's
// state as of the last exchange that succeeded. If the pin dies, the
// session re-pins to the mirror and resumes; because the failed exchange
// was never applied-and-acknowledged anywhere the client kept, no cursor
// advances twice and no list entry is skipped, even for the
// non-replayable probe/above traffic. A fresh mirror is then promoted
// from the remaining siblings by copying the new pin's full state.
//
// Query restart (originator side, opt-in): ClusterConfig.Restart — or
// per-query WithRestart — reruns a query that still failed (for
// example, a list whose every replica died and came back, or a flat
// single-replica topology). RestartFailed reruns only replica-failure
// errors (*OwnerFailedError anywhere in the chain); RestartAlways also
// reruns plain transport errors; each rerun is a fresh session on the
// surviving replicas, bounded by MaxRestarts (default
// DefaultMaxRestarts). When the budget runs out the last error is
// wrapped in *RestartExhaustedError, still naming the failing list and
// replica. WithTimeout bounds the whole attempt chain.
//
// Recovery never perturbs the paper's cost accounting. DistStats is
// split into Net — the primary metrics, bit-identical to an undisturbed
// single-owner run whatever handoffs or restarts happened, because the
// client-side ledger charges each logical access exactly once and
// restarted attempts report only the final run — and Recovery, which
// tallies Restarts, Handoffs and FailedReplicas for the run. /v1/dist
// reports the same split as "net" and "recovery" JSON blocks and accepts a
// restart= query parameter; topk-query prints the recovery line under
// -verbose, or whenever any recovery happened.
//
// Answers, Messages, Payload, Rounds and access counts stay
// bit-identical to a single-owner run whatever routed, failed over,
// handed off or restarted — the parity suite pins this over replicated
// topologies with a replica killed at every possible instant of every
// protocol, under every routing policy. A runnable two-replica cluster
// (list 0 doubly served, same data everywhere):
//
//	topk-owner -gen uniform -n 10000 -m 2 -seed 7 -list 0 -replica a -addr localhost:9001 &
//	topk-owner -gen uniform -n 10000 -m 2 -seed 7 -list 0 -replica b -addr localhost:9101 &
//	topk-owner -gen uniform -n 10000 -m 2 -seed 7 -list 1 -replica a -addr localhost:9002 &
//	topk-query -owners 'localhost:9001|localhost:9101,localhost:9002' \
//	    -k 10 -policy fastest -restart failed -verbose
//
// Kill the localhost:9001 owner mid-run — with `kill` at any instant —
// and the query completes on localhost:9101 with identical answers and
// identical network accounting; the recovery line reports the handoff
// (e.g. "recovery: restarts=0 handoffs=1 failed-replicas=1"), -verbose
// prints each replica's health verdict, EWMA latency and failover
// tallies (Cluster.Health programmatically), and each owner advertises
// its -replica label in /stats.
//
// # Hardening: faults, deadlines, breakers and admission control
//
// Failover and handoff assume failures announce themselves — a closed
// connection, a 5xx. A real network also delays, stalls, partitions,
// tears frames mid-byte and flips bits, and a real owner is sometimes
// merely overloaded rather than dead. The client earns its answers
// through all of it; per fault, the defense and what the caller sees:
//
//	fault on the wire         defense                              caller sees
//	connection drop, 5xx      full-jitter exponential backoff      nothing; answers and
//	                          (ClusterConfig.BackoffBase/Cap),     accounting unchanged
//	                          then failover / handoff
//	torn or bit-flipped       end-to-end frame checksum: every     nothing; the corrupt frame
//	frame                     /rpc response carries the CRC-32     is a typed transient error,
//	                          of its body (X-Topk-Frame-Crc),      re-fetched like a drop —
//	                          verified before decoding             never a silently wrong score
//	owner hang or stall       per-attempt timeout, plus the        nothing, or the caller's own
//	                          deadline budget shipped on the       context error at its deadline
//	                          wire (X-Topk-Budget-Ms): owners
//	                          abandon work nobody waits for
//	flapping replica          per-replica circuit breaker: K       nothing; routing fences the
//	                          consecutive failures open it         replica, a half-open probe
//	                          (ClusterConfig.BreakerThreshold/     exchange readmits it after
//	                          BreakerCooldown), cooldown doubles   the cooldown
//	                          while probes keep failing
//	overloaded owner          admission control (topk-owner        nothing; the shed is waited
//	                          -max-inflight): exchanges beyond     out as backpressure — no
//	                          the bound are shed with 429 +        health or breaker penalty,
//	                          X-Topk-Retry-After-Ms BEFORE any     tallied in
//	                          work, so a re-send is always safe    Recovery.Backpressure
//
// Third-party clients of the owner wire get the same contract: a 429
// carries X-Topk-Retry-After-Ms (milliseconds to wait; the owner has
// contractually run none of the request, so re-sending is safe for
// every message kind, cursor-bearing or not); requests may carry
// X-Topk-Budget-Ms (relative milliseconds the client will keep
// waiting); data-plane responses carry X-Topk-Frame-Crc (IEEE CRC-32
// of the body, lower-case hex) to verify before decoding.
//
// The fault injector itself ships in the tree (internal/chaos): a
// seeded, deterministic schedule of delays, drops, stalls, truncated
// frames, flipped bits, spurious 5xx and replica partitions, insertable
// on either side of the wire. Owners arm it with -chaos:
//
//	topk-owner -gen uniform -n 10000 -m 2 -seed 7 -list 0 \
//	    -chaos 'seed=42,all=0.02' -addr localhost:9001
//
// and the chaos acceptance suite (TestChaosParity, plus the opt-in
// TOPK_CHAOS_SOAK=1 endurance run CI executes under the race detector)
// drives every protocol under every routing policy through it: each
// query must either complete bit-identically to the undisturbed
// loopback reference or fail with a typed error before its deadline —
// never a hang, never a leaked goroutine, never a silently wrong
// answer.
//
// Both daemons shut down gracefully on SIGTERM: the listener closes at
// once, in-flight requests get -drain-timeout (default 10s) to finish,
// then sessions and cluster connections are released; a second signal
// kills. topk-owner -stripe also takes -verify, which checks every
// stripe checksum end to end and exits instead of serving — the
// pre-flight for a file restored from backup.
//
// RunDHT layers the same protocols over a simulated Chord-style DHT
// (internal/dht): each list is placed at the overlay node owning its
// key's hash, and every protocol message is priced in routing hops under
// either a cached-connection or a fully-routed cost model, driven by the
// per-owner message counts the protocols report.
//
// # Observability
//
// The cluster is observable at three grains — process metrics, per-query
// traces and per-daemon profiles — none of which may perturb the paper's
// accounting: every parity suite runs with metrics on, and the traced
// run of a query is asserted bit-identical (answers, Net, accesses) to
// the untraced one.
//
// Endpoints:
//
//	GET /metrics              topk-owner, topk-serve   Prometheus text exposition (?format=json for a JSON snapshot)
//	GET /v1/health            topk-serve (cluster mode) Cluster.Health per replica: health verdict, breaker state, EWMA latency, failure/failover tallies
//	GET /v1/dist?trace=1      topk-serve               per-exchange span trace in the "trace" JSON block
//	/debug/pprof/*            topk-owner, topk-serve   opt-in via -pprof addr (separate listener, e.g. -pprof localhost:6060)
//
// Metrics come from internal/obs, a dependency-free registry of atomic
// counters, gauges and fixed-bucket histograms shared process-wide
// (obs.Default); handles are resolved once at init or dial, so an
// instrumented exchange costs a few atomic adds, and
// obs.Default.SetEnabled(false) freezes every handle behind one atomic
// load (BenchmarkObservabilityOverhead gates the enabled cost under 5%
// of originator throughput; measured within noise). The catalogue, all
// prefixed topk_ (full details atop internal/transport/metrics.go):
//
//	topk_owner_exchanges_total{kind} / _exchange_seconds{kind} / _exchange_errors_total{kind}
//	topk_owner_wire_bytes_total{codec,direction}                 (codec is always "binary")
//	topk_owner_sessions_open / _opened_total / _closed_total / _evicted_total / _session_syncs_total
//	topk_client_exchanges_total{kind} / _exchange_seconds{kind} / _exchange_errors_total{kind}
//	topk_client_wire_bytes_total{codec,direction} / _exchange_bytes  (codec is always "binary")
//	topk_client_retries_total / _failovers_total / _handoffs_total / _mirror_promotions_total
//	topk_client_replica_failures_total / _health_transitions_total{to}
//	topk_client_replica_healthy{list,replica} / _probe_ewma_seconds{list,replica}
//	topk_client_sessions_open / _opened_total
//	topk_owner_inflight_exchanges / _shed_total / _deadline_abandoned_total
//	topk_client_breaker_open{list,replica} / _breaker_transitions_total{to} / _backpressure_waits_total
//	topk_dist_restarts_total
//
// go run ./internal/tools/promcheck URL validates a live scrape (CI does
// this against a freshly booted topk-owner).
//
// Tracing is per query and opt-in: WithTrace (or Options.Trace in
// internal/dist, trace=1 on /v1/dist, -trace on topk-query) records one
// span per wire exchange — round, owner, replica, URL, message kind,
// logical messages, request/response bytes, duration, and the recovery
// annotations (attempts, failover, handoff) — surfaced as
// DistStats.Trace. Against the runnable cluster above:
//
//	topk-query -owners 'localhost:9001|localhost:9101,localhost:9002' \
//	    -k 10 -protocol tput -trace
//
// prints the span table after the answers, one row per exchange —
// TPUT's three fixed rounds become topk/above/fetch spans; a failover or
// handoff absorbed mid-exchange shows up in the notes column:
//
//	trace (6 exchanges):
//	 seq  round  owner  replica  kind     msgs     req-B    resp-B        time  notes
//	   0      1      0        0  topk        1         9        45       143µs
//	   1      1      1        0  topk        1         9        45       302µs
//	   2      2      0        0  above       1        13     60429     3.535ms
//	   ...
//
// Both daemons log lifecycle events (session open/close/evict, health
// transitions, handoff promotions) via log/slog behind -log-level
// (debug, info, warn, error, off); -pprof addr serves the standard
// net/http/pprof mux on a separate listener for CPU and heap profiles
// under load.
//
// # Storage
//
// Four interchangeable ways to put a database in front of the
// algorithms; owners accept each behind exactly one flag, and every
// input yields bit-identical answers and access counts:
//
//	-gen     generate in process      RAM-resident   deterministic per (spec, seed); no file at all
//	-csv     CSV column form          RAM-resident   interop with external tools (topk-gen -csv writes it)
//	-db      binary format            RAM-resident   compact, CRC-checked; loaded in one pass with bounded scratch
//	-stripe  striped columnar store   disk-resident  served from the file through a bounded cache; warm restarts
//
// The stripe format (internal/store/stripe) cuts each sorted list into
// fixed-capacity columnar stripes — entries by position, with per-stripe
// min/max score fences — plus id→position pages for random access, all
// indexed by a footer. Opening reads only the footer: data blocks are
// fetched on demand with pread into an LRU cache whose byte budget is
// -stripe-cache (default 64 MiB). The budget is a hard ceiling on the
// accounted decoded bytes resident — insertion evicts first, and a block
// larger than the whole budget is served uncached — so an owner's memory
// stays bounded no matter how large its lists are. Score fences let a
// threshold seek touch one stripe instead of scanning; none of this
// changes what an algorithm is charged, which is how the parity suites
// can hold disk-backed runs bit-identical to RAM ones.
//
// A warm-restarting owner, end to end:
//
//	topk-gen -kind uniform -n 1000000 -m 4 -stripe -o lists.stripe
//	topk-owner -stripe lists.stripe -stripe-cache 33554432 -list 0 -addr localhost:9001
//	# ... kill it; restarting reopens the footer only — no reload,
//	# first queries repopulate the cache on demand:
//	topk-owner -stripe lists.stripe -stripe-cache 33554432 -list 0 -addr localhost:9001
//
// Cache traffic joins the metrics catalogue below:
//
//	topk_stripe_cache_hits_total / _misses_total / _evictions_total
//	topk_stripe_cache_resident_bytes   (gauge; summed over open stripe DBs, never above the summed budgets)
//
// # Live: continuous top-k over streaming updates
//
// The live plane turns the one-shot distributed query into a standing
// one: owners accept score updates, a coordinator keeps each registered
// query's top-k current, and subscribers are pushed a delta whenever
// the ranking (membership, order, or any member's score) changes.
//
// Updates travel as a fifth wire kind next to topk/above/fetch/sorted.
// An owner started with -mutable (RAM-backed inputs only; -stripe
// owners are read-only) applies batches of per-item score deltas to
// its sorted list. Each batch carries a feed name and a caller-owned,
// strictly increasing sequence number; an owner acks seq <= its last
// applied one without re-applying, so retrying an Apply after a lost
// response is idempotent end to end — the rule that keeps at-least-once
// delivery from double-counting a delta. The ack reports the owner's
// new list version (also on /v1/info and /metrics) and which standing
// queries crossed their notification filter.
//
// The coordinator (internal/live, served by topk-serve -live) avoids
// re-running the query on every update with Mäcker-style owner-side
// filters. After each evaluation it runs with k+1 internally, takes the
// aggregate gap g between ranks k and k+1, and arms every owner with
// the current top-k watch set and a slack of g/m (sum-like scorings;
// other scorings get slack 0, which is still sound, just never
// suppressive). An owner accumulates per-query, per-item drift and
// reports a crossing only when a watched member moved or an outsider's
// upward drift reached the slack — every update that cannot have
// changed the ranking is absorbed at the owner for the cost of the
// update message itself. Crossings trigger a distributed re-evaluation
// and filter re-arm; the Accounting counters (surfaced on
// /v1/live/stats) keep suppressed vs naive re-evaluation counts so the
// saving is measurable, and BenchmarkLive pins it (suppressed ingest is
// ~20x cheaper than the crossing path, 0 vs ~50 control messages per
// update). Chaos-tested: under seeded drops, 5xx, torn frames and
// flipped bits, retried Applys plus a final Refresh converge to the
// oracle ranking bit-identically, or fail with a typed error — never
// silently wrong.
//
// Subscribers attach over Server-Sent Events. A live cluster, end to
// end:
//
//	topk-gen -kind uniform -n 100000 -m 2 -seed 7 -o lists.topk
//	topk-owner -db lists.topk -list 0 -mutable -addr localhost:9001
//	topk-owner -db lists.topk -list 1 -mutable -addr localhost:9002
//	topk-serve -db lists.topk -owners localhost:9001,localhost:9002 -live -addr localhost:8080
//	topk-query -follow -serve http://localhost:8080 -query hot -k 10   # renders deltas as they arrive
//	curl -N 'localhost:8080/v1/live?k=10&query=hot'                    # same stream, raw SSE
//	curl -X POST localhost:8080/v1/update -d '{"feed":"trades","seq":1,
//	    "updates":[{"owner":0,"updates":[{"item":42,"delta":0.5}]},
//	               {"owner":1,"updates":[{"item":42,"delta":0.5}]}]}'
//
// GET /v1/live subscribes (parameters of /v1/dist plus query=name;
// subscribing to an unregistered name registers it), streaming a hello
// event, one snapshot delta, then a delta per ranking revision — items,
// entered/left/moved changes, and a monotonic revision counter. POST
// /v1/update ingests a feed batch and reports which queries
// re-evaluated vs suppressed; GET /v1/live/stats exposes the standing
// queries and the Accounting counters. In process, the same plane is
// Cluster.SendUpdate plus live.New / Coordinator.Register /
// Standing.Subscribe. Slow subscribers are dropped (channel closed)
// rather than allowed to stall the push path.
//
// The live families join the metrics catalogue:
//
//	topk_live_updates_applied_total / _update_batches_total
//	topk_live_reevaluations_total / _notifications_total / _suppressed_total
//	topk_live_subscribers (gauge) / _subscribers_dropped_total
//	topk_live_push_seconds (histogram)
//
// # Development
//
// The module has no dependencies outside the standard library. CI (see
// .github/workflows/ci.yml) runs gofmt, go vet, go build and go test
// over the whole tree, the race detector over internal/transport,
// internal/dist, internal/dht and internal/store (which covers the
// concurrent-session and cancellation suites), the named chaos
// hardening steps (the seeded fault-injection acceptance suite plus a
// 30-second soak, both under -race), the named live-plane suite under
// -race, and one iteration of every benchmark
// (go test -bench=. -benchtime=1x -run='^$' ./...) so the
// figure-regeneration benchmarks cannot silently rot.
//
// Beyond one-shot queries: Query.Parallel executes TA/BPA/BPA2 with one
// goroutine per list owner (identical answers and counts); Query.Sortable
// handles sources that answer lookups but cannot be scanned (the TAz and
// BPAz variants); NewMonitor maintains a continuous top-k over
// sliding-window score streams with ranking-change detection; and
// cmd/topk-serve exposes a database over an HTTP JSON API.
package topk
