package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"topk/internal/bestpos"
	"topk/internal/list"
	"topk/internal/obs"
)

// The HTTP backend: a real owner server (one list per process) and an
// originator client. Every data-plane message carries its query session
// ID in the `sid` query parameter, so one owner serves any number of
// concurrent originators:
//
//	POST /session/open   control-plane: install fresh per-session state
//	                     {sid, tracker}; idempotent per sid
//	POST /session/close  control-plane: release a session's state {sid}
//	POST /session/sync   control-plane: apply a session-state delta
//	                     mirrored from a sibling replica {sid, positions,
//	                     ranges, depth}; idempotent, never charged
//	GET  /session/state?sid=...  control-plane: export a session's
//	                     replicable state (seen-position ranges + scan
//	                     depth) for mirror promotion
//	POST /rpc/{kind}?sid=...  one exchange; body and response are the
//	                     message structs of this package in the binary
//	                     wire codec (kind "batch" carries a coalesced
//	                     round for this owner)
//	GET  /stats?sid=...  control-plane: the session's OwnerStats;
//	                     without sid, the owner's list metadata
//	                     (the dial handshake, which also reports the
//	                     owner's replica identity)
//	POST /filter/set     live control-plane: install one standing
//	                     query's notification filter {query, slack,
//	                     watch} (see Owner.SetFilter)
//	POST /filter/clear   live control-plane: remove a filter {query}
//	GET  /healthz        liveness — also what the client's background
//	                     health prober polls in replicated topologies
//
// The /rpc data plane speaks one codec, the length-prefixed
// little-endian binary frames of codec.go under ContentTypeBinary; a
// request in any other Content-Type is refused with 415. The binary
// codec ships raw IEEE-754 bits, so scores — the +Inf best-position
// piggyback included — survive the wire bit-identically and the parity
// suite can hold HTTP to the same answers and accounting as the
// in-process backend. The control plane (/session/*, /stats, /filter/*)
// and every error payload speak JSON.
//
// The client side dials a Topology rather than a flat URL list: every
// list may be served by several replica owner processes (topology.go).
// Stateless exchanges are routed per-call by the configured
// RoutingPolicy and fail over between replicas mid-query; sessionful
// exchanges pin each session to one replica per list, mirror its state
// to a sibling, and hand the session off to that sibling when the pin
// dies — OwnerFailedError surfaces only when no synced sibling is left.

// Server is one list owner behind HTTP. Wrap Handler in an http.Server
// (or httptest.Server); cmd/topk-owner is the standalone binary.
type Server struct {
	owner *Owner
	mux   *http.ServeMux
}

// NewServer returns the HTTP owner of list index of db.
func NewServer(db *list.Database, index int) (*Server, error) {
	o, err := NewOwner(db, index)
	if err != nil {
		return nil, err
	}
	s := &Server{owner: o, mux: http.NewServeMux()}
	s.mux.HandleFunc("/rpc/", s.handleRPC)
	s.mux.HandleFunc("/session/open", s.handleOpen)
	s.mux.HandleFunc("/session/close", s.handleClose)
	s.mux.HandleFunc("/session/sync", s.handleSync)
	s.mux.HandleFunc("/session/state", s.handleState)
	s.mux.HandleFunc("/filter/set", s.handleFilterSet)
	s.mux.HandleFunc("/filter/clear", s.handleFilterClear)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	// The process-wide metrics registry: Prometheus text exposition by
	// default, the JSON snapshot under ?format=json.
	s.mux.Handle("/metrics", obs.Default.Handler())
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Owner returns the owner behind the server, for white-box inspection in
// tests (open session counts).
func (s *Server) Owner() *Owner { return s.owner }

// HeaderBudgetMs carries an exchange's deadline budget on the wire:
// the milliseconds of the originator's query deadline this exchange
// may spend, measured from when the request was sent. Relative rather
// than an absolute deadline so it survives clock skew between
// originator and owner; the server turns it into a context deadline so
// handlers abandon work for callers that have already given up.
const HeaderBudgetMs = "X-Topk-Budget-Ms"

// HeaderRetryAfterMs is the owner's backpressure hint on a 429 shed
// response: how many milliseconds the client should wait before
// re-sending. Part of the public retry contract — a shed exchange did
// no work, so re-sending after the pause is always safe, whatever the
// request kind.
const HeaderRetryAfterMs = "X-Topk-Retry-After-Ms"

// HeaderFrameCRC carries the IEEE CRC-32 of a data-plane response body
// (lower-case hex). HTTP alone does not protect the frame end to end —
// a proxy, a torn connection or flipped bits can hand the client a
// body that still decodes into plausible protocol state. The client
// verifies the checksum before decoding, so wire corruption surfaces
// as a typed, retryable transport error instead of silently wrong
// answers.
const HeaderFrameCRC = "X-Topk-Frame-Crc"

// errCorruptFrame classifies a response whose body failed its checksum
// (or could not be read or decoded at all): the exchange reached the
// owner but its answer was damaged in flight. Transient — replayable
// requests re-send, non-replayable sessionful ones hand off to the
// mirror whose state excludes the damaged exchange.
var errCorruptFrame = errors.New("transport: corrupt response frame")

// httpError is the uniform error payload.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // status line already out
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, httpError{Error: fmt.Sprintf(format, args...)})
}

// writeShed answers a request refused by admission control: 429 plus
// the retry-after hint clients treat as backpressure.
func writeShed(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set(HeaderRetryAfterMs, strconv.FormatInt(DefaultRetryAfter.Milliseconds(), 10))
	writeError(w, http.StatusTooManyRequests, format, args...)
}

// writeFrame writes a data-plane response with its end-to-end frame
// checksum (HeaderFrameCRC).
func writeFrame(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set(HeaderFrameCRC, strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 16))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	sid := r.URL.Query().Get("sid")
	if sid == "" {
		// The dial handshake: list metadata, no session state.
		writeJSON(w, http.StatusOK, s.owner.Info())
		return
	}
	st, err := s.owner.SessionStats(sid)
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// statusFor maps an owner error to its HTTP status: unknown sessions
// are 404 (gone, not malformed), an expired deadline budget or vanished
// caller is 504 (the owner abandoned the work, nobody's fault), an
// overloaded owner is 429 (backpressure, safe to re-send), everything
// else a caller-fault 400.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownSession):
		return http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	}
	return http.StatusBadRequest
}

// sessionBody is the /session/open and /session/close request payload.
type sessionBody struct {
	SID     string `json:"sid"`
	Tracker uint8  `json:"tracker"`
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var body sessionBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "bad session body: %v", err)
		return
	}
	kind := bestpos.Kind(body.Tracker)
	found := false
	for _, k := range bestpos.Kinds() {
		if k == kind {
			found = true
			break
		}
	}
	if !found {
		writeError(w, http.StatusBadRequest, "unknown tracker kind %d", body.Tracker)
		return
	}
	if body.SID == "" {
		writeError(w, http.StatusBadRequest, "empty session ID")
		return
	}
	if err := s.owner.Open(body.SID, kind); err != nil {
		// The session limit is owner overload, not a malformed request:
		// shed with the retry-after backpressure hint.
		writeShed(w, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var body sessionBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "bad session body: %v", err)
		return
	}
	s.owner.CloseSession(body.SID)
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// syncBody is the /session/sync request payload and the /session/state
// response: the replicable state of one (session, list) pair. Per-
// exchange deltas travel as single Positions; a full-state promotion
// ships the compressed seen-position Ranges ([lo,hi] inclusive). Depth
// is the scan cursor, merged monotonically.
type syncBody struct {
	SID       string   `json:"sid"`
	Positions []int    `json:"positions,omitempty"`
	Ranges    [][2]int `json:"ranges,omitempty"`
	Depth     int      `json:"depth,omitempty"`
}

// handleSync applies a mirrored session-state delta (see Owner.SyncSession).
func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var body syncBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "bad sync body: %v", err)
		return
	}
	if body.SID == "" {
		writeError(w, http.StatusBadRequest, "empty session ID")
		return
	}
	if err := s.owner.SyncSession(body.SID, body.Positions, body.Ranges, body.Depth); err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleState exports a session's replicable state for mirror promotion
// (see Owner.SessionState).
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	sid := r.URL.Query().Get("sid")
	if sid == "" {
		writeError(w, http.StatusBadRequest, "missing sid parameter")
		return
	}
	ranges, depth, err := s.owner.SessionState(sid)
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, syncBody{SID: sid, Ranges: ranges, Depth: depth})
}

// filterBody is the /filter/set and /filter/clear request payload: one
// standing query's notification filter (see Owner.SetFilter). Clear
// reads only Query.
type filterBody struct {
	Query string        `json:"query"`
	Slack float64       `json:"slack,omitempty"`
	Watch []list.ItemID `json:"watch,omitempty"`
}

// handleFilterSet installs a standing-query notification filter —
// live-plane control traffic, never charged to query accounting.
func (s *Server) handleFilterSet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var body filterBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "bad filter body: %v", err)
		return
	}
	if err := s.owner.SetFilter(body.Query, body.Slack, body.Watch); err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleFilterClear removes a standing-query filter (idempotent).
func (s *Server) handleFilterClear(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var body filterBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "bad filter body: %v", err)
		return
	}
	s.owner.ClearFilter(body.Query)
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// maxRPCBody bounds a data-plane request body. Generous: the largest
// legitimate request is a TPUT phase-3 fetch of every item.
const maxRPCBody = 16 << 20

// appendAll reads r to EOF into dst — the pooled-buffer replacement for
// io.ReadAll on the hot path.
func appendAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// countingWriter counts response-body bytes for the wire-bytes
// metrics; the data plane writes bodies in one Write either way.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleRPC(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != ContentTypeBinary {
		writeError(w, http.StatusUnsupportedMediaType, "transport: /rpc bodies must be %s, got %q", ContentTypeBinary, ct)
		return
	}
	sid := r.URL.Query().Get("sid")
	if sid == "" {
		writeError(w, http.StatusBadRequest, "missing sid parameter (open a session first)")
		return
	}
	kind := Kind(strings.TrimPrefix(r.URL.Path, "/rpc/"))
	// Admission control, before the body is read or any work done: a
	// shed exchange ran nothing, which is what makes the 429 safe to
	// re-send even for non-replayable kinds.
	if !s.owner.TryAcquire() {
		writeShed(w, "transport: %v: %s exchange shed", ErrOverloaded, kind)
		return
	}
	defer s.owner.Release()
	// The exchange's deadline budget: the request context already dies
	// with the caller's connection; the wire budget additionally bounds
	// it to the slice of the originator's query deadline this exchange
	// was given, so a scan is abandoned once nobody can use its result.
	ctx := r.Context()
	if v, err := strconv.ParseInt(r.Header.Get(HeaderBudgetMs), 10, 64); err == nil && v > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(v)*time.Millisecond)
		defer cancel()
	}
	cw := &countingWriter{ResponseWriter: w}
	w = cw
	start := time.Now()
	buf := getBuf()
	defer putBuf(buf)
	// Read one byte past the limit so an oversize body is a clear 413,
	// not a truncated-frame 400 that reads like corruption.
	body, err := appendAll(*buf, io.LimitReader(r.Body, maxRPCBody+1))
	*buf = body
	if err != nil {
		writeError(w, http.StatusBadRequest, "transport: read request body: %v", err)
		return
	}
	if len(body) > maxRPCBody {
		writeError(w, http.StatusRequestEntityTooLarge, "transport: request body exceeds %d bytes", maxRPCBody)
		return
	}
	req, err := DecodeRequestBinary(body)
	if err == nil && req.Kind() != kind {
		err = fmt.Errorf("transport: frame kind %q does not match path kind %q", req.Kind(), kind)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Per-kind serving metrics: charged after the response is written,
	// on the kind the wire actually carried. Never visible to the
	// paper's accounting — the probe's tally is computed inside the
	// handler exactly as before.
	served := false
	defer func() {
		mOwnerWireBytes.add(int64(len(body)), cw.n)
		if !served {
			if c := mOwnerExchangeErrs[kind]; c != nil {
				c.Inc()
			}
			return
		}
		mOwnerExchanges[kind].Inc()
		mOwnerExchangeSec[kind].Observe(time.Since(start).Seconds())
	}()
	resp, err := s.owner.HandleContext(ctx, sid, req)
	if err != nil {
		// Owner errors are malformed requests (bad position, bad item),
		// unknown sessions, or an abandoned deadline budget — statusFor
		// tells the client which (only the last is worth a retry, and
		// only with time left).
		writeError(w, statusFor(err), "%v", err)
		return
	}
	out := getBuf()
	defer putBuf(out)
	enc, err := AppendResponseBinary(*out, resp)
	*out = enc
	if err != nil {
		writeError(w, http.StatusInternalServerError, "transport: encode response: %v", err)
		return
	}
	served = true
	writeFrame(w, ContentTypeBinary, enc)
}

// DialConfig is the declarative shape of a cluster connection: the
// replica topology, the routing policy, the health-check cadence and the
// per-request timeout/retry budget. The zero value of every field but
// Topology is a sensible default.
type DialConfig struct {
	// Topology maps every list to its replica URLs; required.
	Topology Topology
	// Client is the underlying http.Client; nil gets a pooled transport
	// tuned for many concurrent originators against few owners.
	Client *http.Client
	// Policy routes each stateless exchange (and chooses the replica a
	// session pins its sessionful traffic to). Default RoutePrimary.
	Policy RoutingPolicy
	// HealthInterval is the background prober's cadence. 0 means
	// DefaultHealthInterval; negative disables the prober (the data
	// plane still demotes replicas that fail exchanges, but nothing
	// restores them). The prober runs only for replicated topologies —
	// a flat cluster has no routing choice for it to inform.
	HealthInterval time.Duration
	// RequestTimeout bounds each HTTP attempt. 0 means DefaultTimeout.
	RequestTimeout time.Duration
	// Retries is the number of extra attempts a replayable exchange may
	// spend on transient failures — against a sibling replica when one
	// is routable, the same replica otherwise. 0 means DefaultRetries;
	// negative disables retries entirely.
	Retries int
	// BackoffBase and BackoffCap shape the full-jitter exponential
	// backoff slept before each retry: attempt a sleeps a uniform draw
	// from (0, min(BackoffCap, BackoffBase<<(a-1))]. Zero means the
	// defaults (DefaultBackoffBase, DefaultBackoffCap); a negative
	// BackoffBase restores the immediate-retry behaviour.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerThreshold is the per-replica circuit breaker's K: after K
	// consecutive failures (data plane or health probe) the breaker
	// opens and routing avoids the replica until a half-open probe
	// exchange succeeds after a doubling, capped cooldown. 0 means
	// DefaultBreakerThreshold; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the first open interval. 0 means
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// Logger receives the client's structured recovery narration:
	// replica health transitions, session handoffs, mirror promotions.
	// nil discards it.
	Logger *slog.Logger
}

// DefaultRetries is the retry budget of a replayable exchange when the
// dial config leaves it zero: one extra attempt, the pre-replica
// behaviour.
const DefaultRetries = 1

// HTTPClient is the originator side of the HTTP backend: per-replica
// connection state over one pooled http.Client, exchanges as POSTs,
// batches fanned out with one goroutine per addressed list. The client
// is shared infrastructure — sessions opened on it run concurrently —
// and every exchange gets its own per-attempt timeout plus a transient
// retry/failover budget, with the owning list wrapped into every error.
type HTTPClient struct {
	lists [][]*replica
	hc    *http.Client
	n     int

	policy     RoutingPolicy
	reqTimeout time.Duration
	retries    int
	replicated bool

	// bk paces retries (full-jitter exponential backoff); healthEvery
	// is the prober's base cadence, doubled per consecutive probe
	// failure by probeFailed.
	bk          backoff
	healthEvery time.Duration

	// rr holds the per-list round-robin cursors of RouteRoundRobin.
	rr []atomic.Uint32

	// The background health prober's lifecycle; nil when disabled.
	probeCancel context.CancelFunc
	proberDone  chan struct{}
	closeOnce   sync.Once

	// log narrates recovery events (health transitions, handoffs,
	// promotions). Never nil; set once at dial.
	log *slog.Logger
}

// defaultHTTPClient builds the pooled client Dial uses when the caller
// passes nil. net/http's zero-value Transport keeps only 2 idle
// connections per host, so a fleet of concurrent originators hammering
// the same few owners would re-handshake TCP on nearly every exchange;
// the tuned pool keeps one warm connection per in-flight originator.
func defaultHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// NormalizeOwnerURL turns a host:port (or full URL) into the base URL of
// an owner server.
func NormalizeOwnerURL(s string) string {
	s = strings.TrimSuffix(strings.TrimSpace(s), "/")
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}

// DefaultTimeout bounds each exchange attempt of the HTTP client: an
// owner that hangs mid-query must error the run, not stall the
// originator forever. Generous, because a TPUT phase-2 response can
// carry a whole list tail.
const DefaultTimeout = 30 * time.Second

// DialOwners connects to a flat owner set — urls[i] serves list i, one
// replica per list — with default policy, timeouts and health cadence.
// The pre-topology Dial shape, kept for the single-owner callers.
func DialOwners(urls []string, hc *http.Client) (*HTTPClient, error) {
	return Dial(context.Background(), DialConfig{Topology: SingleTopology(urls), Client: hc})
}

// Dial connects to the owner processes of cfg.Topology and validates the
// cluster: every replica of list i must report list index i, the shared
// list length, and a database of exactly len(Topology) lists.
//
// Replicas that cannot be reached at dial time are tolerated — marked
// unhealthy, to be revived by the background health prober — as long as
// every list has at least one reachable replica; a list with none fails
// the dial. Replicas that answer but disagree on shape always fail the
// dial: that is misconfiguration, not an outage.
func Dial(ctx context.Context, cfg DialConfig) (*HTTPClient, error) {
	topo := cfg.Topology
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	hc := cfg.Client
	if hc == nil {
		hc = defaultHTTPClient()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	t := &HTTPClient{
		lists:      make([][]*replica, len(topo)),
		hc:         hc,
		policy:     cfg.Policy,
		reqTimeout: cfg.RequestTimeout,
		retries:    cfg.Retries,
		replicated: topo.Replicated(),
		rr:         make([]atomic.Uint32, len(topo)),
		log:        logger,
	}
	if t.reqTimeout <= 0 {
		t.reqTimeout = DefaultTimeout
	}
	switch {
	case t.retries == 0:
		t.retries = DefaultRetries
	case t.retries < 0:
		t.retries = 0
	}
	t.bk = defaultBackoff(cfg.BackoffBase, cfg.BackoffCap)
	threshold := cfg.BreakerThreshold
	if threshold == 0 {
		threshold = DefaultBreakerThreshold
	}
	for li, reps := range topo {
		t.lists[li] = make([]*replica, len(reps))
		for ri, u := range reps {
			r := &replica{list: li, index: ri, url: NormalizeOwnerURL(u)}
			r.mHealthy, r.mEwma, r.mBreaker = replicaGauges(li, ri)
			r.brk.arm(threshold, cfg.BreakerCooldown)
			t.lists[li][ri] = r
		}
	}
	if err := t.handshake(ctx); err != nil {
		return nil, err
	}
	interval := cfg.HealthInterval
	if interval == 0 {
		interval = DefaultHealthInterval
	}
	// The prober only pays off when routing has a choice to make: a flat
	// one-replica-per-list cluster is always routed to its only replica
	// whatever the verdict, and the pre-replica dial spawned no
	// background work — keep that for flat callers.
	if interval > 0 && t.replicated {
		t.startProber(interval)
	}
	return t, nil
}

// checkShape validates one replica's handshake against the dialed
// topology: it must serve the expected list of a database with the
// cluster's width and shared list length.
func (t *HTTPClient) checkShape(r *replica, st OwnerStats) error {
	if st.Index != r.list {
		return fmt.Errorf("transport: owner %d replica %d (%s) serves list %d; order the topology by list index",
			r.list, r.index, r.url, st.Index)
	}
	if st.M != len(t.lists) {
		return fmt.Errorf("transport: owner %d replica %d (%s) belongs to a database of %d lists, cluster has %d",
			r.list, r.index, r.url, st.M, len(t.lists))
	}
	if st.N != t.n {
		return fmt.Errorf("transport: owner %d replica %d (%s) has %d items, expected %d",
			r.list, r.index, r.url, st.N, t.n)
	}
	return nil
}

// handshake fetches every replica's /stats metadata in parallel and
// validates the topology against it. Replicas that answer must pass the
// shape check or the dial fails (misconfiguration); replicas that are
// unreachable are tolerated while their list has a live sibling, left
// unvalidated, and shape-checked by the health prober before they ever
// become routable.
func (t *HTTPClient) handshake(ctx context.Context) error {
	type verdict struct {
		st  OwnerStats
		dur time.Duration
		err error
	}
	verdicts := make([][]verdict, len(t.lists))
	var wg sync.WaitGroup
	for li, reps := range t.lists {
		verdicts[li] = make([]verdict, len(reps))
		for ri, r := range reps {
			wg.Add(1)
			go func(li, ri int, r *replica) {
				defer wg.Done()
				start := time.Now()
				st, err := t.replicaInfo(ctx, r)
				verdicts[li][ri] = verdict{st: st, dur: time.Since(start), err: err}
			}(li, ri, r)
		}
	}
	wg.Wait()

	// The shared list length comes from the first reachable replica;
	// everyone else must agree with it.
	for _, vs := range verdicts {
		for _, v := range vs {
			if v.err == nil {
				t.n = v.st.N
				break
			}
		}
		if t.n != 0 {
			break
		}
	}
	for li, reps := range t.lists {
		reachable := 0
		var firstErr error
		for ri, r := range reps {
			v := verdicts[li][ri]
			if v.err != nil {
				if firstErr == nil {
					firstErr = v.err
				}
				continue
			}
			if err := t.checkShape(r, v.st); err != nil {
				return err
			}
			r.validated.Store(true)
			t.noteHealth(r, true)
			r.observe(v.dur)
			reachable++
		}
		if reachable == 0 {
			return fmt.Errorf("transport: owner %d: no reachable replica: %w", li, firstErr)
		}
	}
	return nil
}

// SetRequestTimeout changes the per-attempt bound on every subsequent
// exchange (default DefaultTimeout). Set it before opening sessions.
func (t *HTTPClient) SetRequestTimeout(d time.Duration) {
	if d > 0 {
		t.reqTimeout = d
	}
}

// M returns the number of owners (lists).
func (t *HTTPClient) M() int { return len(t.lists) }

// N returns the shared list length.
func (t *HTTPClient) N() int { return t.n }

func (t *HTTPClient) checkOwner(owner int) error {
	if owner < 0 || owner >= len(t.lists) {
		return fmt.Errorf("transport: owner %d out of range [0,%d)", owner, len(t.lists))
	}
	return nil
}

// transientStatus reports whether a response status is worth another
// attempt: the owner (or an intermediary) failed, rather than rejecting
// the request.
func transientStatus(status int) bool { return status >= 500 }

// transientErr reports whether a transport-level failure is worth
// another attempt: connection resets, refused connections and
// per-attempt timeouts — but never the caller's own cancellation, and
// never failures that cannot succeed on a second identical attempt (a
// URL that does not parse, a name that authoritatively does not
// resolve).
func transientErr(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	var dns *net.DNSError
	if errors.As(err, &dns) && dns.IsNotFound {
		return false
	}
	// The parent ctx is alive, so a deadline/cancel inside the attempt
	// came from the per-attempt timeout — an owner hang, transient by
	// definition. Everything else left at this level is a network error.
	return true
}

// attempt performs one HTTP round-trip under the per-attempt timeout.
// The returned status is 0 when no response arrived.
func (t *HTTPClient) attempt(ctx context.Context, method, url string, body []byte, contentType string, decode func(io.Reader) error) (int, error) {
	actx, cancel := context.WithTimeout(ctx, t.reqTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, url, rd)
	if err != nil {
		// Request construction never touched the network; retrying the
		// same inputs is futile.
		return http.StatusBadRequest, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	// Ship the attempt's deadline budget — the smaller of the caller's
	// remaining query deadline and the per-attempt timeout — as relative
	// milliseconds, so the owner abandons work once nobody is waiting.
	if dl, ok := actx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(HeaderBudgetMs, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, remoteError(resp)
	}
	if decode == nil {
		return resp.StatusCode, nil
	}
	// A data-plane response carries its frame checksum; verify before
	// decoding so wire corruption surfaces as a typed, retryable error
	// instead of silently mangled payloads or an opaque decode failure.
	if crc := resp.Header.Get(HeaderFrameCRC); crc != "" {
		buf := getBuf()
		defer putBuf(buf)
		data, rerr := appendAll(*buf, resp.Body)
		*buf = data
		if rerr != nil {
			return resp.StatusCode, fmt.Errorf("%w: read body: %v", errCorruptFrame, rerr)
		}
		want, perr := strconv.ParseUint(crc, 16, 32)
		if perr != nil || crc32.ChecksumIEEE(data) != uint32(want) {
			return resp.StatusCode, fmt.Errorf("%w: frame checksum mismatch (%d bytes)", errCorruptFrame, len(data))
		}
		return resp.StatusCode, decode(bytes.NewReader(data))
	}
	return resp.StatusCode, decode(resp.Body)
}

// doReplica performs one control-plane exchange with a specific replica,
// body pre-encoded, retrying on the same replica up to the retry budget
// on transient failures with jittered backoff between attempts. An
// owner shed (429) is honored as backpressure: the pause is waited out
// without burning the retry budget, bounded by maxBackpressureWaits
// and the caller's deadline. Errors carry list, replica and URL.
func (t *HTTPClient) doReplica(ctx context.Context, r *replica, method, path string, body []byte, contentType string, decode func(io.Reader) error) error {
	var lastErr error
	waits := 0
	for a := 0; a <= t.retries; a++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		status, err := t.attempt(ctx, method, r.url+path, body, contentType, decode)
		if err == nil {
			return nil
		}
		lastErr = err
		if pause, shed := shedPause(err, t.bk, waits+1); shed && waits < maxBackpressureWaits {
			waits++
			mClientBackpressure.Inc()
			if sleepCtx(ctx, pause) != nil {
				break
			}
			a--
			continue
		}
		if !transientStatus(status) && (status != 0 || !transientErr(ctx, err)) &&
			!errors.Is(err, errCorruptFrame) {
			break
		}
		if a < t.retries {
			if sleepCtx(ctx, t.bk.delay(a+1)) != nil {
				break
			}
		}
	}
	return fmt.Errorf("transport: owner %d replica %d (%s): %w", r.list, r.index, r.url, lastErr)
}

// doJSON is the JSON control-plane exchange: marshal body, doReplica.
func (t *HTTPClient) doJSON(ctx context.Context, r *replica, method, path string, body any, decode func(io.Reader) error) error {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return fmt.Errorf("transport: owner %d (%s): encode request: %w", r.list, r.url, err)
		}
	}
	return t.doReplica(ctx, r, method, path, buf, ContentTypeJSON, decode)
}

// RemoteError is a non-200 reply from an owner server. It is a distinct
// type so upstream layers (the serve API) can tell an owner-side
// failure from the caller's own bad request and map it to 502 instead
// of 400.
type RemoteError struct {
	// Status is the HTTP status the owner answered with.
	Status int
	// Msg is the owner's error payload, if it sent one.
	Msg string
	// RetryAfter is the owner's backpressure hint on a 429 shed
	// response (X-Topk-Retry-After-Ms): how long to wait before
	// re-sending. Zero when the owner sent none.
	RetryAfter time.Duration
}

// Error renders the owner's message when present, the status otherwise.
func (e *RemoteError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("transport: remote: %s", e.Msg)
	}
	return fmt.Sprintf("transport: remote status %d", e.Status)
}

// remoteError lifts a non-200 reply into a RemoteError.
func remoteError(resp *http.Response) error {
	re := &RemoteError{Status: resp.StatusCode}
	if v, err := strconv.ParseInt(resp.Header.Get(HeaderRetryAfterMs), 10, 64); err == nil && v > 0 {
		re.RetryAfter = time.Duration(v) * time.Millisecond
	}
	var body httpError
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body); err == nil && body.Error != "" {
		re.Msg = body.Error
	}
	return re
}

// maxBackpressureWaits bounds how many owner sheds one exchange (or
// control-plane call) will wait out before the 429 is surfaced as an
// ordinary failure — a fuse against an owner stuck answering 429
// forever, on top of the caller's own deadline.
const maxBackpressureWaits = 16

// shedPause reports whether err is an owner shed (429 backpressure)
// and, when it is, how long to pause before re-sending: the owner's
// retry-after hint plus a jittered backoff share so a fleet of shed
// clients doesn't return in lockstep.
func shedPause(err error, bk backoff, waits int) (time.Duration, bool) {
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusTooManyRequests {
		return 0, false
	}
	return re.RetryAfter + bk.delay(waits), true
}

// replicaInfo fetches one replica's list metadata (the dial handshake),
// retried on transient failures like any control-plane exchange — a
// single connection blip must not fail a flat single-replica dial.
func (t *HTTPClient) replicaInfo(ctx context.Context, r *replica) (OwnerStats, error) {
	var st OwnerStats
	err := t.doReplica(ctx, r, http.MethodGet, "/stats", nil, "", func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&st)
	})
	if err != nil {
		return OwnerStats{}, err
	}
	return st, nil
}

// sessionListState is one session's per-list routing and accounting
// state: which replicas hold the session, the replica its sessionful
// traffic is pinned to, and — in replicated topologies — the
// client-side access ledger. Guarded by its mutex; contention is nil in
// practice because a session addresses each list from one goroutine at
// a time.
type sessionListState struct {
	mu sync.Mutex
	// open[ri] records that replica ri acknowledged /session/open — the
	// set this session may route to. A replica dropped mid-query (lost
	// session, failed pin) leaves this set for good.
	open []bool
	// acked[ri] records the open acknowledgement permanently: Close
	// releases state at every replica that ever held the session, even
	// ones dropped from routing — a live replica dropped after a
	// transient failure still holds (stale) session state worth freeing.
	acked []bool
	// pin is the replica serving this session's sessionful exchanges,
	// chosen by policy at first use; nil until then.
	pin *replica
	// mirror is the sibling replica kept in sync with the pin's session
	// state, promoted to pin when the pin dies mid-query. Invariant: a
	// non-nil mirror's state equals the pin's state as of the last
	// successful sessionful exchange (chosen while both were fresh, then
	// synced after every exchange), so promoting it never replays a
	// cursor advance. nil when the list has no sibling, or the last sync
	// failed and no replacement could be promoted.
	mirror *replica
	// failed[ri] records replicas that failed an exchange (or a mirror
	// sync) of this session — the session's recovery bookkeeping.
	failed []bool
	// ledger mirrors the accesses this session's successful exchanges
	// charged, per the owner handler semantics (see record). In a
	// replicated topology the authoritative tally would be scattered
	// across the replicas that happened to serve each exchange — and
	// partially lost with a crashed one — so Stats reports the ledger
	// instead, keeping access accounting bit-identical to a single-owner
	// run whatever routed or failed over.
	ledger ledger
}

// ledger is the client-side access mirror of one (session, list) pair.
type ledger struct {
	sorted, random, direct int64
	depth                  int
}

// record charges one successful exchange to the ledger, mirroring the
// owner handlers exactly: sorted/topk/above are sorted accesses, lookup/
// mark/fetch are random, probe is direct (unless it had nothing left to
// read). n is the list length — needed to tell whether an above-scan
// stopped on a below-threshold read (charged) or ran off the end.
func (l *ledger) record(req Request, resp Response, n int) {
	switch r := req.(type) {
	case SortedReq:
		l.sorted++
	case LookupReq:
		l.random++
	case MarkReq:
		l.random++
	case FetchReq:
		l.random += int64(len(r.Items))
	case ProbeReq:
		if pr, ok := resp.(ProbeResp); ok && !pr.Empty {
			l.direct++
		}
	case TopKReq:
		l.sorted += int64(r.K)
		l.depth = r.K
	case AboveReq:
		ar, ok := resp.(AboveResp)
		if !ok {
			return
		}
		// The owner reads entries until one falls below the threshold
		// (that read is charged too) or the list ends.
		charge := len(ar.Entries) + 1
		if rest := n - l.depth; charge > rest {
			charge = rest
		}
		l.sorted += int64(charge)
		l.depth += charge
	case BatchReq:
		br, ok := resp.(BatchResp)
		if !ok || len(br.Resps) != len(r.Reqs) {
			return
		}
		for i := range r.Reqs {
			l.record(r.Reqs[i], br.Resps[i], n)
		}
	}
}

// openTimeout caps each replica's /session/open attempt budget. The
// open fan-out waits for every replica of every list, so a single
// black-holed host must not stall query start for the full data-plane
// timeout times the retry budget: acknowledging an open is a trivial
// control-plane operation, and a replica that misses this window is
// simply excluded from the session's routing — its list's sibling
// carries the session (Close gets the same treatment via closeTimeout).
const openTimeout = 5 * time.Second

// Open starts a query session at every replica of every list, fanned out
// in parallel. Fanning the open to ALL replicas — not just the ones the
// policy would route to — is what makes mid-query failover safe: a
// sibling replica already holds the session when traffic lands on it.
// Replicas that fail the open are excluded from this session's routing;
// a list whose every replica failed aborts the open (and closes the
// partial session, best-effort).
func (t *HTTPClient) Open(ctx context.Context, tracker bestpos.Kind) (Session, error) {
	sid := NewSessionID()
	body := sessionBody{SID: sid, Tracker: uint8(tracker)}
	s := &httpSession{t: t, sid: sid, state: make([]sessionListState, len(t.lists))}
	errs := make([][]error, len(t.lists))
	// The cap only makes sense when a sibling can carry the session: a
	// flat topology keeps the full request timeout it always had — a
	// merely slow single owner must not start failing opens.
	bound := t.reqTimeout
	if t.replicated && bound > openTimeout {
		bound = openTimeout
	}
	var wg sync.WaitGroup
	for li, reps := range t.lists {
		s.state[li].open = make([]bool, len(reps))
		errs[li] = make([]error, len(reps))
		for ri, r := range reps {
			wg.Add(1)
			go func(li, ri int, r *replica) {
				defer wg.Done()
				octx, cancel := context.WithTimeout(ctx, bound)
				defer cancel()
				errs[li][ri] = t.doJSON(octx, r, http.MethodPost, "/session/open", body, nil)
			}(li, ri, r)
		}
	}
	wg.Wait()
	// Flag every acknowledged open first, so a partial-failure Close
	// reaches everything that was opened.
	for li := range t.lists {
		s.state[li].acked = make([]bool, len(errs[li]))
		for ri, err := range errs[li] {
			s.state[li].open[ri] = err == nil
			s.state[li].acked[ri] = err == nil
		}
	}
	for li := range t.lists {
		opened := 0
		var firstErr error
		for ri := range errs[li] {
			if errs[li][ri] == nil {
				opened++
			} else if firstErr == nil {
				firstErr = errs[li][ri]
			}
		}
		if opened == 0 {
			_ = s.Close()
			return nil, firstErr
		}
	}
	mClientSessOpened.Inc()
	mClientSessionsOpen.Add(1)
	s.counted = true
	return s, nil
}

// liveSID is the sentinel session parameter update exchanges travel
// under: the /rpc data plane requires a sid, but updates are feed-plane
// and the owner ignores it.
const liveSID = "live"

// updateReplica sends one update batch to one replica over the data
// plane — binary codec, frame CRC, shed backpressure and transient
// retries; updates are replayable by their per-feed sequence number, so
// re-sending is always safe.
func (t *HTTPClient) updateReplica(ctx context.Context, r *replica, req UpdateReq) (UpdateResp, error) {
	body, err := AppendRequestBinary(nil, req)
	if err != nil {
		return UpdateResp{}, fmt.Errorf("transport: owner %d: encode update: %w", r.list, err)
	}
	var out UpdateResp
	derr := t.doReplica(ctx, r, http.MethodPost, "/rpc/"+string(KindUpdate)+"?sid="+liveSID, body, ContentTypeBinary, func(rd io.Reader) error {
		data, rerr := io.ReadAll(rd)
		if rerr != nil {
			return fmt.Errorf("%w: read body: %v", errCorruptFrame, rerr)
		}
		resp, derr := DecodeResponseBinary(data)
		if derr != nil {
			return fmt.Errorf("%w: decode: %v", errCorruptFrame, derr)
		}
		ur, ok := resp.(UpdateResp)
		if !ok {
			return fmt.Errorf("%w: unexpected response %T", errCorruptFrame, resp)
		}
		out = ur
		return nil
	})
	return out, derr
}

// UpdateAll applies one feed-plane update batch at every replica of a
// list, fanned out in parallel — replicas of one list must see the same
// update stream or they stop being interchangeable. Every replica must
// acknowledge; on partial failure the error surfaces and the caller
// re-sends the same (feed, seq) batch, which the per-feed sequence
// check makes safe: replicas that already applied it acknowledge
// without re-applying. The merged ack reports whether any replica
// applied the batch fresh, the highest resulting list version, and the
// union of standing-query crossings, sorted.
func (t *HTTPClient) UpdateAll(ctx context.Context, owner int, feed string, seq uint64, updates []ScoreUpdate) (UpdateResp, error) {
	if err := t.checkOwner(owner); err != nil {
		return UpdateResp{}, err
	}
	req := UpdateReq{Feed: feed, Seq: seq, Updates: updates}
	reps := t.lists[owner]
	resps := make([]UpdateResp, len(reps))
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for ri, r := range reps {
		wg.Add(1)
		go func(ri int, r *replica) {
			defer wg.Done()
			resps[ri], errs[ri] = t.updateReplica(ctx, r, req)
		}(ri, r)
	}
	wg.Wait()
	var out UpdateResp
	seen := make(map[string]bool)
	for ri := range reps {
		if errs[ri] != nil {
			return UpdateResp{}, errs[ri]
		}
		if resps[ri].Applied {
			out.Applied = true
		}
		if resps[ri].Version > out.Version {
			out.Version = resps[ri].Version
		}
		for _, q := range resps[ri].Crossings {
			if !seen[q] {
				seen[q] = true
				out.Crossings = append(out.Crossings, q)
			}
		}
	}
	sort.Strings(out.Crossings)
	return out, nil
}

// SetFilter installs a standing-query notification filter at every
// replica of a list — control-plane fan-out, all replicas must ack, so
// a suppressed notification is a cluster-wide verdict rather than one
// replica's opinion.
func (t *HTTPClient) SetFilter(ctx context.Context, owner int, query string, slack float64, watch []list.ItemID) error {
	return t.filterAll(ctx, owner, "/filter/set", filterBody{Query: query, Slack: slack, Watch: watch})
}

// ClearFilter removes a standing-query filter at every replica of a
// list (idempotent at each).
func (t *HTTPClient) ClearFilter(ctx context.Context, owner int, query string) error {
	return t.filterAll(ctx, owner, "/filter/clear", filterBody{Query: query})
}

func (t *HTTPClient) filterAll(ctx context.Context, owner int, path string, body filterBody) error {
	if err := t.checkOwner(owner); err != nil {
		return err
	}
	reps := t.lists[owner]
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for ri, r := range reps {
		wg.Add(1)
		go func(ri int, r *replica) {
			defer wg.Done()
			errs[ri] = t.doJSON(ctx, r, http.MethodPost, path, body, nil)
		}(ri, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close stops the background health prober and releases idle
// connections. Sessions should be closed first.
func (t *HTTPClient) Close() error {
	t.closeOnce.Do(func() {
		if t.probeCancel != nil {
			t.probeCancel()
			<-t.proberDone
		}
	})
	t.hc.CloseIdleConnections()
	return nil
}

// httpSession is one query over the shared HTTP client. Elapsed
// accumulates real time the way a latency Loopback accumulates virtual
// time: a batch costs its slowest owner, not the sum.
type httpSession struct {
	t   *HTTPClient
	sid string

	mu      sync.Mutex
	elapsed time.Duration

	state []sessionListState

	// handoffs counts pin-to-mirror promotions across all lists;
	// backpressure counts owner sheds (429) this session waited out.
	handoffs     atomic.Int64
	backpressure atomic.Int64

	// rec collects per-exchange trace spans when the query is traced;
	// nil otherwise. Armed via SetSpanRecorder before the first
	// exchange (the SpanRecording contract), read without locks.
	rec *SpanRecorder

	// counted marks the session charged to the open-sessions gauge;
	// closed makes the matching decrement fire exactly once.
	counted bool
	closed  atomic.Bool
}

// ID returns the session ID.
func (s *httpSession) ID() string { return s.sid }

// SetSpanRecorder arms (or, with nil, disarms) per-exchange tracing.
func (s *httpSession) SetSpanRecorder(r *SpanRecorder) { s.rec = r }

func (s *httpSession) addElapsed(d time.Duration) {
	s.mu.Lock()
	s.elapsed += d
	s.mu.Unlock()
}

// rpcPath is the data-plane URL of one request kind for this session.
func (s *httpSession) rpcPath(kind Kind) string {
	return "/rpc/" + string(kind) + "?sid=" + s.sid
}

// routable reports this session's replica set for a list: the replicas
// that acknowledged the open and have not since lost the session. Only
// one goroutine addresses a list at a time (the Session contract), so
// the slice needs no lock between a dropOpen and the reads that follow
// it.
func (s *httpSession) routable(li int) []bool {
	return s.state[li].open
}

// dropOpen removes a replica from this session's routing — it answered
// ErrUnknownSession, so it restarted and lost the session state.
func (s *httpSession) dropOpen(li, ri int) {
	ls := &s.state[li]
	ls.mu.Lock()
	ls.open[ri] = false
	ls.mu.Unlock()
}

// pinned returns the replica this session's sessionful traffic for list
// li sticks to, choosing it by policy on first use — and a mirror
// sibling alongside it, when the list has one. Both start from
// identical fresh session state, so the mirror is synced by
// construction until the first sessionful exchange lands a delta.
func (s *httpSession) pinned(li int) *replica {
	ls := &s.state[li]
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.pin == nil {
		ls.pin = s.t.route(li, ls.open, nil)
		if ls.pin != nil {
			tried := make([]bool, len(s.t.lists[li]))
			tried[ls.pin.index] = true
			ls.mirror = s.t.route(li, ls.open, tried)
		}
	}
	return ls.pin
}

// noteFailed records a replica failing an exchange (or mirror sync) of
// this session, for the session's recovery bookkeeping.
func (s *httpSession) noteFailed(li, ri int) {
	ls := &s.state[li]
	ls.mu.Lock()
	if ls.failed == nil {
		ls.failed = make([]bool, len(s.t.lists[li]))
	}
	ls.failed[ri] = true
	ls.mu.Unlock()
}

// SessionRecovery reports the failures one session absorbed: how many
// pin-to-mirror handoffs it performed, how many distinct replicas
// failed an exchange mid-query, and how many owner sheds it waited out
// as backpressure. The dist runner harvests it into Result.Recovery;
// primary accounting is untouched by any of them.
type SessionRecovery struct {
	Handoffs       int
	FailedReplicas int
	Backpressure   int
}

// Recovery snapshots the session's recovery tallies.
func (s *httpSession) Recovery() SessionRecovery {
	rec := SessionRecovery{Handoffs: int(s.handoffs.Load()), Backpressure: int(s.backpressure.Load())}
	for li := range s.state {
		ls := &s.state[li]
		ls.mu.Lock()
		for _, f := range ls.failed {
			if f {
				rec.FailedReplicas++
			}
		}
		ls.mu.Unlock()
	}
	return rec
}

// controlBound caps a recovery control-plane call (sync, state export)
// the way openTimeout caps the open fan-out: these calls exist to keep
// a sibling promotable, so a black-holed sibling must cost a bounded
// slice of the query, not a full data-plane timeout per exchange.
func (s *httpSession) controlBound() time.Duration {
	if s.t.reqTimeout < openTimeout {
		return s.t.reqTimeout
	}
	return openTimeout
}

// appendSyncPositions collects the seen-position deltas a sessionful
// response piggybacks (ProbeResp.Pos, MarkResp.Pos, recursively through
// batches). TopK/Above deltas are depth-only and come from the ledger.
func appendSyncPositions(dst []int, resp Response) []int {
	switch r := resp.(type) {
	case ProbeResp:
		if r.Pos > 0 {
			dst = append(dst, r.Pos)
		}
	case MarkResp:
		if r.Pos > 0 {
			dst = append(dst, r.Pos)
		}
	case BatchResp:
		for _, inner := range r.Resps {
			dst = appendSyncPositions(dst, inner)
		}
	}
	return dst
}

// syncMirror forwards the session-state delta of one successful
// sessionful exchange to the list's mirror replica, synchronously —
// the mirror invariant (state equals the pin's as of the last
// successful exchange) is what makes a later handoff replay-safe, so
// the delta cannot be deferred. Marks are idempotent and the depth
// merge monotonic, so a delta the mirror already holds converges. A
// mirror that fails the sync is dropped (it may be stale now) and a
// replacement is promoted from the pin's full state, best-effort.
func (s *httpSession) syncMirror(ctx context.Context, li int, resp Response) {
	if !s.t.replicated {
		return
	}
	ls := &s.state[li]
	ls.mu.Lock()
	m := ls.mirror
	depth := ls.ledger.depth
	ls.mu.Unlock()
	if m == nil {
		return
	}
	body := syncBody{SID: s.sid, Positions: appendSyncPositions(nil, resp), Depth: depth}
	sctx, cancel := context.WithTimeout(ctx, s.controlBound())
	err := s.t.doJSON(sctx, m, http.MethodPost, "/session/sync", body, nil)
	cancel()
	if err == nil {
		return
	}
	// The mirror missed a delta: it is no longer promotable. A 404 means
	// it restarted and lost the session outright — drop it from routing
	// too. Demote its health so the promotion below does not immediately
	// re-pick the replica that just failed; the prober revives it. Then
	// try to promote a replacement from the pin's full state.
	s.noteFailed(li, m.index)
	m.noteFailure()
	s.t.noteHealth(m, false)
	s.t.tripFailure(m)
	s.t.log.Warn("mirror lost sync", "sid", s.sid, "list", li, "replica", m.index, "url", m.url, "err", err)
	var re *RemoteError
	if errors.As(err, &re) && re.Status == http.StatusNotFound {
		s.dropOpen(li, m.index)
	}
	ls.mu.Lock()
	if ls.mirror == m {
		ls.mirror = nil
	}
	ls.mu.Unlock()
	s.promoteMirror(ctx, li)
}

// promoteMirror installs a fresh synced mirror for list li: it picks a
// routable sibling of the pin, copies the pin's full session state onto
// it (seen-position ranges + depth), and installs it only when the copy
// succeeded — preserving the invariant that a non-nil mirror is always
// promotable. Best-effort: with no sibling left, or a failed copy, the
// session continues unmirrored and the pin's death surfaces the typed
// owner failure.
func (s *httpSession) promoteMirror(ctx context.Context, li int) {
	ls := &s.state[li]
	ls.mu.Lock()
	pin := ls.pin
	hasMirror := ls.mirror != nil
	open := append([]bool(nil), ls.open...)
	ls.mu.Unlock()
	if pin == nil || hasMirror {
		return
	}
	tried := make([]bool, len(s.t.lists[li]))
	tried[pin.index] = true
	cand := s.t.route(li, open, tried)
	if cand == nil || cand == pin {
		return
	}
	bctx, cancel := context.WithTimeout(ctx, s.controlBound())
	defer cancel()
	var st syncBody
	err := s.t.doJSON(bctx, pin, http.MethodGet, "/session/state?sid="+s.sid, nil, func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&st)
	})
	if err != nil {
		return
	}
	if err := s.t.doJSON(bctx, cand, http.MethodPost, "/session/sync",
		syncBody{SID: s.sid, Ranges: st.Ranges, Depth: st.Depth}, nil); err != nil {
		s.noteFailed(li, cand.index)
		cand.noteFailure()
		s.t.noteHealth(cand, false)
		s.t.tripFailure(cand)
		return
	}
	ls.mu.Lock()
	installed := false
	if ls.mirror == nil && ls.pin == pin && ls.open[cand.index] {
		ls.mirror = cand
		installed = true
	}
	ls.mu.Unlock()
	if installed {
		mClientPromotions.Inc()
		s.t.log.Info("mirror promoted", "sid", s.sid, "list", li, "replica", cand.index, "url", cand.url)
	}
}

// handoff re-pins the session for list li to its synced mirror after
// the pinned replica failed, returning the new pin — or nil when no
// synced mirror exists, in which case the caller surfaces the typed
// OwnerFailedError. The failed replica is dropped from this session's
// routing for good (its session state is stale or gone; were it to
// serve a later exchange, cursors could advance twice). Because every
// handoff permanently drops a replica, handoffs per list are bounded by
// the replica set. A fresh mirror is then promoted from the new pin's
// state, best-effort, so the session survives further deaths.
func (s *httpSession) handoff(ctx context.Context, li int, failed *replica) *replica {
	ls := &s.state[li]
	ls.mu.Lock()
	ls.open[failed.index] = false
	next := ls.mirror
	ls.mirror = nil
	if next != nil && !ls.open[next.index] {
		next = nil
	}
	if next != nil {
		ls.pin = next
	}
	ls.mu.Unlock()
	if next == nil {
		return nil
	}
	s.handoffs.Add(1)
	mClientHandoffs.Inc()
	s.t.log.Info("session handoff", "sid", s.sid, "list", li,
		"from", failed.url, "to", next.url)
	s.promoteMirror(ctx, li)
	return next
}

// recordAccess charges a successful exchange to the session's access
// ledger (replicated topologies only — flat clusters report the owner's
// own authoritative tally).
func (s *httpSession) recordAccess(li int, req Request, resp Response) {
	if !s.t.replicated {
		return
	}
	ls := &s.state[li]
	ls.mu.Lock()
	ls.ledger.record(req, resp, s.t.n)
	ls.mu.Unlock()
}

// attemptRPC performs one data-plane round-trip with one replica,
// reporting the encoded response size alongside
// the decoded message (tracing and the wire-bytes metrics want the
// on-the-wire count, which only this frame sees). Both bodies pass
// through pooled buffers; decoded messages own their memory, so nothing
// aliases a pooled slice after return.
func (s *httpSession) attemptRPC(ctx context.Context, r *replica, kind Kind, body []byte) (Response, int, int, error) {
	var out Response
	respBytes := 0
	status, err := s.t.attempt(ctx, http.MethodPost, r.url+s.rpcPath(kind), body, ContentTypeBinary, func(rd io.Reader) error {
		dec := getBuf()
		defer putBuf(dec)
		data, rerr := appendAll(*dec, rd)
		*dec = data
		if rerr != nil {
			return fmt.Errorf("%w: read body: %v", errCorruptFrame, rerr)
		}
		respBytes = len(data)
		var derr error
		if out, derr = DecodeResponseBinary(data); derr != nil {
			// The owner answered 200, so a frame that fails to decode
			// was damaged in transit: classify as corrupt, not permanent.
			return fmt.Errorf("%w: decode: %v", errCorruptFrame, derr)
		}
		return nil
	})
	return out, respBytes, status, err
}

// exchange performs one logical exchange with the owner of a list,
// routing it to a replica and absorbing transient failures:
//
//   - stateless requests go to the policy's replica and FAIL OVER to a
//     sibling on transient failure (every replica holds the session, and
//     a stateless request is by construction replayable);
//   - sessionful requests go to the session's pinned replica; replayable
//     ones (mark, topk) may be retried there, and every successful one
//     syncs its state delta to the list's mirror sibling. A pin failure
//     that persists — or any failure of a non-replayable probe/above —
//     HANDS OFF: the session re-pins to the synced mirror and resumes,
//     re-sending even the non-replayable request, which is safe because
//     the mirror's state excludes the failed exchange either way (the
//     pin never applied it, or applied it but is dropped for good so
//     its advanced cursor is never observed again). Only when no synced
//     mirror exists (flat list, or every sibling gone) does the failure
//     surface as OwnerFailedError.
func (s *httpSession) exchange(ctx context.Context, li int, req Request) (_ Response, err error) {
	kind := req.Kind()
	enc := getBuf()
	defer putBuf(enc)
	if *enc, err = AppendRequestBinary(*enc, req); err != nil {
		return nil, fmt.Errorf("transport: owner %d: encode request: %w", li, err)
	}

	sessionful := req.Sessionful()
	var target *replica
	if sessionful {
		target = s.pinned(li)
	} else {
		target = s.t.route(li, s.routable(li), nil)
	}
	if target == nil {
		return nil, fmt.Errorf("transport: owner %d: no routable replica", li)
	}

	// Exchange-level observability: one metrics charge and — when the
	// query is traced — one Span per logical exchange, fed by the
	// attempt loop below. Neither touches Net or the access ledger;
	// the paper's accounting is computed exactly as before.
	var (
		reqLen     = len(*enc)
		respBytes  = 0
		attempted  = 0
		didHandoff = false
	)
	failedOver := false
	exStart := time.Now()
	defer func() {
		observeExchangeMetrics(kind, time.Since(exStart), reqLen, respBytes, attempted, failedOver, err)
		if s.rec == nil {
			return
		}
		sp := Span{Owner: li, Replica: -1, Kind: kind, Msgs: logicalMessages(req),
			ReqBytes: reqLen, RespBytes: respBytes, Duration: time.Since(exStart),
			Attempts: attempted, FailedOver: failedOver, Handoff: didHandoff,
			Err: errString(err)}
		if target != nil {
			sp.Replica, sp.URL = target.index, target.url
		}
		s.rec.Record(sp)
	}()

	// attemptsFor is the per-target attempt budget; a handoff re-arms it
	// for the fresh pin (handoffs themselves are bounded by the replica
	// set, not this budget — each one drops a replica for good).
	attemptsFor := func() int {
		attempts := 1
		if req.Replayable() {
			attempts += s.t.retries
			if !sessionful && s.t.retries > 0 {
				// Stateless traffic may fail over: every replica holding the
				// session deserves one try before the exchange gives up, even
				// when that exceeds the flat same-replica retry budget.
				open := 0
				for _, ok := range s.routable(li) {
					if ok {
						open++
					}
				}
				if open > attempts {
					attempts = open
				}
			}
		}
		return attempts
	}
	attempts := attemptsFor()
	var tried []bool
	var lastErr error
	waits := 0
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		if attempted > 0 {
			// Jittered exponential backoff before every re-attempt (and
			// before resuming on a failed-over sibling): an immediate
			// identical re-send re-offers the load that just failed at
			// the instant it failed, which under overload or a flapping
			// network synchronizes the retriers into a storm.
			if sleepCtx(ctx, s.t.bk.delay(attempted)) != nil {
				break
			}
		}
		attempted++
		start := time.Now()
		resp, rb, status, err := s.attemptRPC(ctx, target, kind, *enc)
		if err == nil {
			respBytes = rb
			target.observe(time.Since(start))
			s.t.noteHealth(target, true)
			s.t.tripSuccess(target)
			if failedOver {
				target.failovers.Add(1)
			}
			s.recordAccess(li, req, resp)
			if sessionful {
				s.syncMirror(ctx, li, resp)
			}
			return resp, nil
		}
		lastErr = err
		// A 429 is the owner shedding load before doing any work:
		// backpressure, not failure. Wait out the owner's retry-after
		// hint (plus jitter) and re-send without burning the attempt
		// budget or the replica's health/breaker standing — a shed
		// exchange is safe to re-send whatever its kind, because the
		// owner is contractually bound to have run none of it.
		if pause, shed := shedPause(err, s.t.bk, waits+1); shed && waits < maxBackpressureWaits {
			waits++
			attempted--
			mClientBackpressure.Inc()
			s.backpressure.Add(1)
			if sleepCtx(ctx, pause) != nil {
				break
			}
			a--
			continue
		}
		// A 404 is the owner's ErrUnknownSession: the replica is alive
		// but no longer holds this session — it restarted since the
		// open. Its copy of the session state is gone, not the session:
		// a sibling replica still holds it.
		var re *RemoteError
		sessionLost := errors.As(err, &re) && re.Status == http.StatusNotFound
		transient := transientStatus(status) || (status == 0 && transientErr(ctx, err)) ||
			errors.Is(err, errCorruptFrame)
		if !sessionLost && !transient {
			// The owner rejected the request (or the caller canceled):
			// no replica will answer differently.
			return nil, fmt.Errorf("transport: owner %d (%s): %w", li, target.url, err)
		}
		if !sessionLost {
			target.noteFailure()
			s.t.noteHealth(target, false)
			s.t.tripFailure(target)
		}
		s.noteFailed(li, target.index)
		if sessionful {
			if !sessionLost && a+1 < attempts {
				continue // replayable: retry the pinned replica itself
			}
			// The pinned replica failed for good — or restarted and lost
			// the cursors. Hand the session off to the synced mirror and
			// resume there; without one, the failure poisons the session
			// for this list.
			if next := s.handoff(ctx, li, target); next != nil {
				target = next
				failedOver = true
				didHandoff = true
				attempts = attemptsFor()
				a = -1 // fresh attempt budget on the new pin
				continue
			}
			break
		}
		// Stateless: fail over to a sibling replica that holds the
		// session; with none left, re-attempt the same replica. A
		// restarted replica is dropped from this session's routing for
		// good — it would keep answering 404.
		if sessionLost {
			s.dropOpen(li, target.index)
		}
		if tried == nil {
			tried = make([]bool, len(s.t.lists[li]))
		}
		tried[target.index] = true
		if next := s.t.route(li, s.routable(li), tried); next != nil {
			failedOver = failedOver || next != target
			target = next
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		// Cancellation wins whatever failures preceded it: a canceled
		// query is not an owner failure and must not read as the
		// "rerun me" OwnerFailedError contract.
		return nil, fmt.Errorf("transport: owner %d (%s): %w", li, target.url, cerr)
	}
	if attempted == 0 || !sessionful {
		// A stateless exchange ran out of replicas to fail over to —
		// rerunning the query would pin to the same dead set, so this
		// is not the typed failure either.
		return nil, fmt.Errorf("transport: owner %d (%s): %w", li, target.url, lastErr)
	}
	return nil, &OwnerFailedError{List: li, Replica: target.index, URL: target.url, Err: lastErr}
}

// Do performs one exchange and charges its real round-trip time.
func (s *httpSession) Do(ctx context.Context, owner int, req Request) (Response, error) {
	if err := s.t.checkOwner(owner); err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := s.exchange(ctx, owner, req)
	if err != nil {
		return nil, err
	}
	s.addElapsed(time.Since(start))
	return resp, nil
}

// DoAll fans the calls out with one goroutine per addressed list, each
// list's calls in submission order, and charges the slowest list's
// serialized time. The per-list goroutines stop at the first error of
// their own list and on ctx cancellation.
func (s *httpSession) DoAll(ctx context.Context, calls []Call) ([]Response, error) {
	for _, c := range calls {
		if err := s.t.checkOwner(c.Owner); err != nil {
			return nil, err
		}
	}
	byOwner := make(map[int][]int)
	for idx, c := range calls {
		byOwner[c.Owner] = append(byOwner[c.Owner], idx)
	}
	out := make([]Response, len(calls))
	errs := make([]error, len(calls))
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		slowest time.Duration
	)
	for owner, idxs := range byOwner {
		wg.Add(1)
		go func(owner int, idxs []int) {
			defer wg.Done()
			start := time.Now()
			for _, idx := range idxs {
				if err := ctx.Err(); err != nil {
					errs[idx] = err
					return
				}
				resp, err := s.exchange(ctx, owner, calls[idx].Req)
				if err != nil {
					errs[idx] = err
					return
				}
				out[idx] = resp
			}
			mu.Lock()
			if d := time.Since(start); d > slowest {
				slowest = d
			}
			mu.Unlock()
		}(owner, idxs)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.addElapsed(slowest)
	return out, nil
}

// Stats reports an owner's bookkeeping for this session. In a flat
// topology the single replica's tally is authoritative; in a replicated
// one the exchanges were scattered across replicas by routing (and
// possibly lost with a crashed one), so the access tally and scan depth
// come from the session's client-side ledger — bit-identical to a
// single-owner run by construction — while the remaining metadata comes
// from the pinned (else first answering) replica.
func (s *httpSession) Stats(ctx context.Context, owner int) (OwnerStats, error) {
	if err := s.t.checkOwner(owner); err != nil {
		return OwnerStats{}, err
	}
	ls := &s.state[owner]
	ls.mu.Lock()
	pin := ls.pin
	led := ls.ledger
	ls.mu.Unlock()

	// Candidate order: the pinned replica knows the session's cursors;
	// after it, prefer whatever route returns, then everything open.
	var cands []*replica
	seen := make([]bool, len(s.t.lists[owner]))
	add := func(r *replica) {
		if r != nil && !seen[r.index] {
			seen[r.index] = true
			cands = append(cands, r)
		}
	}
	add(pin)
	add(s.t.route(owner, s.routable(owner), nil))
	for _, r := range s.t.lists[owner] {
		if s.routable(owner)[r.index] {
			add(r)
		}
	}

	var st OwnerStats
	var lastErr error
	got := false
	for _, r := range cands {
		err := s.t.doJSON(ctx, r, http.MethodGet, "/stats?sid="+s.sid, nil, func(body io.Reader) error {
			return json.NewDecoder(body).Decode(&st)
		})
		if err == nil {
			got = true
			break
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	if !got {
		if lastErr == nil {
			lastErr = fmt.Errorf("transport: owner %d: no routable replica", owner)
		}
		return OwnerStats{}, lastErr
	}
	if s.t.replicated {
		st.Accesses.Sorted = led.sorted
		st.Accesses.Random = led.random
		st.Accesses.Direct = led.direct
		if led.depth > st.Depth {
			st.Depth = led.depth
		}
	}
	return st, nil
}

// Elapsed returns the real time this session has spent in exchanges.
func (s *httpSession) Elapsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.elapsed
}

// closeTimeout caps the whole best-effort session teardown. Close runs
// on the cancellation path — a caller abandoning a query must get
// control back promptly even when an owner hangs — so it does not get
// the generous data-plane budget.
const closeTimeout = 2 * time.Second

// Close releases the session's owner-side state at every replica that
// holds it, best-effort and in parallel: every replica is attempted
// under a fresh short-lived control-plane context (so a canceled query
// still cleans up after itself), and a hung owner costs at most
// closeTimeout, not one reqTimeout per owner. The returned error is the
// first failure — callers tearing down after a replica crash should
// expect (and may ignore) one.
func (s *httpSession) Close() error {
	if s.closed.CompareAndSwap(false, true) && s.counted {
		mClientSessionsOpen.Add(-1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for li, reps := range s.t.lists {
		for _, r := range reps {
			if !s.state[li].acked[r.index] {
				continue
			}
			wg.Add(1)
			go func(r *replica) {
				defer wg.Done()
				err := s.t.doJSON(ctx, r, http.MethodPost, "/session/close", sessionBody{SID: s.sid}, nil)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}(r)
		}
	}
	wg.Wait()
	return firstErr
}
