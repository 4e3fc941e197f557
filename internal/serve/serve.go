// Package serve exposes a topk.Database over an HTTP JSON API — the
// shape a monitoring console or web front-end would consume. It is the
// service layer of cmd/topk-serve.
//
// Endpoints (all GET):
//
//	/healthz           liveness probe
//	/v1/info           database dimensions
//	/v1/algorithms     available algorithm names
//	/v1/topk           run a query: k, alg, scoring, weights, theta,
//	                   tracker, sortable (per-list flags for the
//	                   restricted-access TAz/BPAz variants)
//	/v1/dist           run a query under a distributed protocol (k,
//	                   protocol, scoring, weights, tracker, restart —
//	                   off/failed/always, the per-query restart policy;
//	                   trace=1 adds a per-exchange span trace)
//	                   and return answers plus the network accounting
//	                   (messages, payload, rounds, per-owner traffic)
//	                   and a recovery block (restarts, handoffs, failed
//	                   replicas — all zero on an undisturbed run).
//	                   Served from the in-process simulation, or — when
//	                   the server was built with NewWithCluster — from a
//	                   remote HTTP owner cluster, one query session per
//	                   request
//	/v1/explain        the round-by-round threshold walkthrough as text
//	/v1/health         the cluster client's per-replica health snapshot
//	                   (404 without a cluster)
//	/v1/live           subscribe to a standing continuous top-k query
//	                   (same parameters as /v1/dist plus query= to name
//	                   it); an SSE stream of ranking deltas, starting
//	                   with a full snapshot. Requires EnableLive
//	/v1/live/stats     the live coordinator's accounting: standing
//	                   queries, re-evaluations vs the naive per-batch
//	                   count, suppressions, live-plane traffic
//	/v1/update         POST one update batch {feed, seq, updates} into
//	                   the live plane; re-POSTing the same (feed, seq)
//	                   after a failure is safe
//	/metrics           process-wide metrics, Prometheus text exposition
//	                   (JSON with ?format=json)
//
// Errors are JSON {"error": "..."} with a 4xx/5xx status. The handler is
// safe for concurrent use: the underlying database is immutable, every
// query runs on private state, and cluster-backed /v1/dist requests each
// open their own owner-side session. Query execution is bounded by the
// request context, so a client that disconnects aborts its query instead
// of burning the server.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"topk"
	"topk/internal/live"
	"topk/internal/obs"
	"topk/internal/transport"
)

// Server serves one immutable database, optionally backed by a remote
// owner cluster for /v1/dist, optionally with a live coordinator for
// the continuous top-k plane (EnableLive).
type Server struct {
	db      *topk.Database
	cluster *topk.Cluster
	live    *live.Coordinator
	mux     *http.ServeMux
}

// New returns a server over db; /v1/dist runs the in-process simulation.
func New(db *topk.Database) (*Server, error) {
	return NewWithCluster(db, nil)
}

// NewWithCluster returns a server over db whose /v1/dist executes
// against the given remote owner cluster instead of the in-process
// simulation. Each request runs in its own query session, so concurrent
// API clients drive concurrent cluster queries. A nil cluster falls back
// to the simulation. The cluster must hold the same shape of data as db
// (same n and m) — /v1/info describes db, and a mismatched cluster would
// let /v1/dist silently answer about a different dataset.
func NewWithCluster(db *topk.Database, cluster *topk.Cluster) (*Server, error) {
	if db == nil {
		return nil, fmt.Errorf("serve: nil database")
	}
	if cluster != nil && (cluster.N() != db.N() || cluster.M() != db.M()) {
		return nil, fmt.Errorf("serve: cluster serves n=%d m=%d, database has n=%d m=%d — same data required",
			cluster.N(), cluster.M(), db.N(), db.M())
	}
	s := &Server{db: db, cluster: cluster, mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/info", s.handleInfo)
	s.mux.HandleFunc("/v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("/v1/topk", s.handleTopK)
	s.mux.HandleFunc("/v1/dist", s.handleDist)
	s.mux.HandleFunc("/v1/explain", s.handleExplain)
	s.mux.HandleFunc("/v1/health", s.handleClusterHealth)
	s.mux.HandleFunc("/v1/live", s.handleLive)
	s.mux.HandleFunc("/v1/live/stats", s.handleLiveStats)
	s.mux.HandleFunc("/v1/update", s.handleUpdate)
	s.mux.Handle("/metrics", obs.Default.Handler())
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// writeJSON encodes v with a status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// execStatus maps a query-execution error to its HTTP status: a dead,
// unreachable or erroring owner behind a cluster-backed /v1/dist is an
// upstream failure (502), a deadline or client disconnect is a timeout
// (504), and everything else is the caller's own bad request (400).
// Owner-side rejections (transport.RemoteError) count as upstream too:
// the originator validated the query before any exchange, so a remote
// refusal means cluster state drifted, not caller fault — except TPUT
// over negative scores (transport.ErrNegativeScore), a precondition
// only the owners can check, which stays the caller's 400. A replica
// failing mid-query on non-failover-able traffic (topk.OwnerFailedError)
// is likewise upstream: the client may simply retry the request — a
// fresh query session pins to a live replica.
func execStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, transport.ErrNegativeScore) {
		return http.StatusBadRequest
	}
	var ofe *topk.OwnerFailedError
	var re *transport.RemoteError
	var ue *url.Error
	var ne net.Error
	if errors.As(err, &ofe) || errors.As(err, &re) || errors.As(err, &ue) || errors.As(err, &ne) {
		return http.StatusBadGateway
	}
	return http.StatusBadRequest
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// requireGet returns false (and replies 405) unless the request is a GET.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return false
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// infoBody describes the database.
type infoBody struct {
	N          int  `json:"n"`
	M          int  `json:"m"`
	Dictionary bool `json:"dictionary"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	_, named := s.db.IDOf(s.db.NameOf(0))
	writeJSON(w, http.StatusOK, infoBody{N: s.db.N(), M: s.db.M(), Dictionary: named})
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	var names []string
	for _, a := range topk.ExtendedAlgorithms() {
		names = append(names, a.String())
	}
	writeJSON(w, http.StatusOK, map[string][]string{"algorithms": names})
}

// itemBody is one answer of a query response.
type itemBody struct {
	Item  int     `json:"item"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// statsBody mirrors topk.Stats in JSON form.
type statsBody struct {
	SortedAccesses int64   `json:"sortedAccesses"`
	RandomAccesses int64   `json:"randomAccesses"`
	DirectAccesses int64   `json:"directAccesses"`
	TotalAccesses  int64   `json:"totalAccesses"`
	Cost           float64 `json:"cost"`
	StopPosition   int     `json:"stopPosition"`
	Rounds         int     `json:"rounds"`
	DurationMicros int64   `json:"durationMicros"`
}

// topkBody is the /v1/topk response.
type topkBody struct {
	Algorithm string     `json:"algorithm"`
	K         int        `json:"k"`
	Items     []itemBody `json:"items"`
	Stats     statsBody  `json:"stats"`
	Inexact   bool       `json:"inexact"`
}

// parseQuery builds a topk.Query from URL parameters.
func (s *Server) parseQuery(r *http.Request) (topk.Query, error) {
	var q topk.Query
	params := r.URL.Query()

	kStr := params.Get("k")
	if kStr == "" {
		return q, fmt.Errorf("missing parameter k")
	}
	k, err := strconv.Atoi(kStr)
	if err != nil {
		return q, fmt.Errorf("bad k %q: %v", kStr, err)
	}
	q.K = k

	if alg := params.Get("alg"); alg != "" {
		q.Algorithm, err = topk.ParseAlgorithm(alg)
		if err != nil {
			return q, err
		}
	}
	var weights []float64
	if ws := params.Get("weights"); ws != "" {
		for _, p := range strings.Split(ws, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return q, fmt.Errorf("bad weight %q: %v", p, err)
			}
			weights = append(weights, v)
		}
	}
	if sc := params.Get("scoring"); sc != "" || len(weights) > 0 {
		if sc == "" {
			sc = "wsum"
		}
		q.Scoring, err = topk.ParseScoring(sc, weights)
		if err != nil {
			return q, err
		}
	}
	if th := params.Get("theta"); th != "" {
		q.Approximation, err = strconv.ParseFloat(th, 64)
		if err != nil {
			return q, fmt.Errorf("bad theta %q: %v", th, err)
		}
	}
	if tr := params.Get("tracker"); tr != "" {
		q.Tracker, err = topk.ParseTracker(tr)
		if err != nil {
			return q, err
		}
	}
	if so := params.Get("sortable"); so != "" {
		for _, p := range strings.Split(so, ",") {
			v, err := strconv.ParseBool(strings.TrimSpace(p))
			if err != nil {
				return q, fmt.Errorf("bad sortable flag %q: %v", p, err)
			}
			q.Sortable = append(q.Sortable, v)
		}
	}
	return q, nil
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	q, err := s.parseQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := s.db.Exec(r.Context(), q)
	if err != nil {
		// Validation failures surface as 400s; the database itself is
		// immutable and cannot fail mid-query, so the only other error
		// is the request context firing (client disconnect), a 504.
		writeError(w, execStatus(err), "%v", err)
		return
	}
	body := topkBody{
		Algorithm: res.Algorithm.String(),
		K:         q.K,
		Inexact:   res.Inexact,
		Stats: statsBody{
			SortedAccesses: res.Stats.SortedAccesses,
			RandomAccesses: res.Stats.RandomAccesses,
			DirectAccesses: res.Stats.DirectAccesses,
			TotalAccesses:  res.Stats.TotalAccesses(),
			Cost:           res.Stats.Cost,
			StopPosition:   res.Stats.StopPosition,
			Rounds:         res.Stats.Rounds,
			DurationMicros: res.Stats.Duration.Microseconds(),
		},
	}
	body.Items = make([]itemBody, len(res.Items))
	for i, it := range res.Items {
		body.Items[i] = itemBody{Item: it.Item, Name: it.Name, Score: it.Score}
	}
	writeJSON(w, http.StatusOK, body)
}

// distNetBody mirrors topk.NetStats in JSON form.
type distNetBody struct {
	Messages      int64   `json:"messages"`
	Payload       int64   `json:"payload"`
	Rounds        int     `json:"rounds"`
	Exchanges     int64   `json:"exchanges"`
	PerOwner      []int64 `json:"perOwner"`
	TotalAccesses int64   `json:"totalAccesses"`
	ElapsedMicros int64   `json:"elapsedMicros"`
}

// distRecoveryBody mirrors topk.RecoveryStats in JSON form — all-zero
// (but always present) on an undisturbed run.
type distRecoveryBody struct {
	Restarts       int `json:"restarts"`
	Handoffs       int `json:"handoffs"`
	FailedReplicas int `json:"failedReplicas"`
}

// distSpanBody mirrors topk.TraceSpan in JSON form, durations in
// microseconds like the rest of the API.
type distSpanBody struct {
	Seq            int    `json:"seq"`
	Round          int    `json:"round"`
	Owner          int    `json:"owner"`
	Replica        int    `json:"replica"`
	URL            string `json:"url"`
	Kind           string `json:"kind"`
	Msgs           int    `json:"msgs"`
	ReqBytes       int    `json:"reqBytes"`
	RespBytes      int    `json:"respBytes"`
	DurationMicros int64  `json:"durationMicros"`
	Attempts       int    `json:"attempts"`
	FailedOver     bool   `json:"failedOver,omitempty"`
	Handoff        bool   `json:"handoff,omitempty"`
	Err            string `json:"err,omitempty"`
}

// distBody is the /v1/dist response.
type distBody struct {
	Protocol string           `json:"protocol"`
	K        int              `json:"k"`
	Items    []itemBody       `json:"items"`
	Net      distNetBody      `json:"net"`
	Recovery distRecoveryBody `json:"recovery"`
	Trace    []distSpanBody   `json:"trace,omitempty"`
}

func (s *Server) handleDist(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	q, err := s.parseQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	protocol := topk.DistBPA2
	if p := r.URL.Query().Get("protocol"); p != "" {
		protocol, err = topk.ParseProtocol(p)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	var opts []topk.ExecOption
	if rp := r.URL.Query().Get("restart"); rp != "" {
		policy, err := topk.ParseRestartPolicy(rp)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		opts = append(opts, topk.WithRestart(policy))
	}
	if tr := r.URL.Query().Get("trace"); tr != "" {
		traced, err := strconv.ParseBool(tr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad trace %q: %v", tr, err)
			return
		}
		if traced {
			opts = append(opts, topk.WithTrace())
		}
	}
	var res *topk.DistResult
	if s.cluster != nil {
		res, err = s.cluster.Exec(r.Context(), q, protocol, opts...)
	} else {
		res, err = s.db.ExecDistributed(r.Context(), q, protocol, opts...)
	}
	if err != nil {
		writeError(w, execStatus(err), "%v", err)
		return
	}
	body := distBody{
		Protocol: res.Protocol.String(),
		K:        q.K,
		Net: distNetBody{
			Messages:      res.Stats.Net.Messages,
			Payload:       res.Stats.Net.Payload,
			Rounds:        res.Stats.Net.Rounds,
			Exchanges:     res.Stats.Net.Exchanges,
			PerOwner:      res.Stats.Net.PerOwner,
			TotalAccesses: res.Stats.Net.TotalAccesses,
			ElapsedMicros: res.Stats.Net.Elapsed.Microseconds(),
		},
		Recovery: distRecoveryBody{
			Restarts:       res.Stats.Recovery.Restarts,
			Handoffs:       res.Stats.Recovery.Handoffs,
			FailedReplicas: res.Stats.Recovery.FailedReplicas,
		},
	}
	body.Items = make([]itemBody, len(res.Items))
	for i, it := range res.Items {
		body.Items[i] = itemBody{Item: int(it.Item), Name: it.Name, Score: it.Score}
	}
	if res.Stats.Trace != nil {
		body.Trace = make([]distSpanBody, len(res.Stats.Trace))
		for i, sp := range res.Stats.Trace {
			body.Trace[i] = distSpanBody{
				Seq: sp.Seq, Round: sp.Round, Owner: sp.Owner, Replica: sp.Replica,
				URL: sp.URL, Kind: sp.Kind, Msgs: sp.Msgs,
				ReqBytes: sp.ReqBytes, RespBytes: sp.RespBytes,
				DurationMicros: sp.Duration.Microseconds(), Attempts: sp.Attempts,
				FailedOver: sp.FailedOver, Handoff: sp.Handoff, Err: sp.Err,
			}
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// healthBody is one replica's entry in the /v1/health response.
type healthBody struct {
	List          int    `json:"list"`
	Replica       int    `json:"replica"`
	URL           string `json:"url"`
	Healthy       bool   `json:"healthy"`
	Breaker       string `json:"breaker"`
	LatencyMicros int64  `json:"latencyMicros"`
	Failures      int64  `json:"failures"`
	Failovers     int64  `json:"failovers"`
}

// handleClusterHealth reports the cluster client's per-replica view:
// health verdicts, EWMA latencies and failover tallies. Without a
// cluster there is nothing to report — 404, distinct from the liveness
// probe /healthz which always answers.
func (s *Server) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, "no cluster behind this server (in-process simulation)")
		return
	}
	hs := s.cluster.Health()
	out := make([]healthBody, len(hs))
	for i, h := range hs {
		out[i] = healthBody{
			List: h.List, Replica: h.Replica, URL: h.URL, Healthy: h.Healthy,
			Breaker:       h.Breaker,
			LatencyMicros: h.Latency.Microseconds(), Failures: h.Failures, Failovers: h.Failovers,
		}
	}
	writeJSON(w, http.StatusOK, map[string][]healthBody{"replicas": out})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	q, err := s.parseQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var buf strings.Builder
	start := time.Now()
	res, err := s.db.Explain(q, &buf)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fmt.Fprintf(w, "%s", buf.String())
	fmt.Fprintf(w, "\ntop-%d (%s, %s):\n", q.K, res.Algorithm, time.Since(start).Round(time.Microsecond))
	for i, it := range res.Items {
		fmt.Fprintf(w, "%3d. %-16s score=%.6g\n", i+1, it.Name, it.Score)
	}
}
