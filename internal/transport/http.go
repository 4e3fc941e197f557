package transport

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"topk/internal/access"
	"topk/internal/bestpos"
	"topk/internal/list"
	"topk/internal/obs"
)

// The HTTP backend: a real owner server (one list per process) and an
// originator client. Every data-plane message carries its query session
// ID in the `sid` query parameter, so one owner serves any number of
// concurrent originators. A query costs its /rpc exchanges plus one
// /session/close per replica it contacted: there is no open round trip
// and no per-query /stats.
//
//	POST /rpc/{kind}?sid=...  one exchange; the body is a request frame
//	                     of the binary wire codec (kind "batch" carries
//	                     a coalesced round for this owner), a 200
//	                     answer is the response frame followed by the
//	                     exchange's receipt frame — the accesses it
//	                     charged, the positions it marked seen, and the
//	                     session's depth and best position after it.
//	                     Until the replica acknowledges one, the
//	                     session's exchanges add &tracker=KIND, which
//	                     opens the session there if absent; without it
//	                     an unknown sid is a 404 (restart or eviction).
//	                     A sessionful exchange adds &seq=N, its number
//	                     among the session's sessionful exchanges on
//	                     the list; one out of sequence is a 409
//	POST /session/close  control-plane: release a session's state {sid}
//	POST /session/sync   control-plane: restore a replica's copy of a
//	                     session to the originator's {sid, tracker,
//	                     ranges, depth, seq}, opening it there if
//	                     absent and replacing what it held; idempotent,
//	                     never charged
//	GET  /stats          control-plane: the owner's list metadata (the
//	                     dial handshake, which also reports the owner's
//	                     replica identity)
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
// exchanges pin each session to one replica per list, and the session
// keeps its own copy of each list's state from the receipts. Whenever
// a sessionful exchange fails, the copy is restored at a replica in one
// /session/sync — the pin first, then its siblings — and the exchange
// is re-sent there; OwnerFailedError surfaces only when no replica
// accepts it.

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
	s.mux.HandleFunc("/session/close", s.handleClose)
	s.mux.HandleFunc("/session/sync", s.handleSync)
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
// owner but its answer was damaged in flight. Transient: the client
// re-sends it, restoring a sessionful exchange's state first, which
// rolls back whatever the damaged exchange applied.
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

// writeError writes the uniform error payload. A 429 — the owner
// shedding load — carries the retry-after hint clients treat as
// backpressure.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	if status == http.StatusTooManyRequests {
		w.Header().Set(HeaderRetryAfterMs, strconv.FormatInt(DefaultRetryAfter.Milliseconds(), 10))
	}
	writeJSON(w, status, httpError{Error: fmt.Sprintf(format, args...)})
}

// writeFrame writes a data-plane response with its end-to-end frame
// checksum (HeaderFrameCRC).
func writeFrame(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
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
	writeJSON(w, http.StatusOK, s.owner.Info())
}

// statusFor maps an owner error to its HTTP status: unknown sessions
// are 404 (gone, not malformed), an exchange out of sequence is 409
// (the replica's copy of the session is out of step), an expired
// deadline budget or vanished caller is 504 (the owner abandoned the
// work, nobody's fault), an overloaded owner is 429 (backpressure, safe
// to re-send), a TPUT request over negative scores is 422 (RemoteError
// unwraps it to ErrNegativeScore), everything else a caller-fault 400.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownSession):
		return http.StatusNotFound
	case errors.Is(err, ErrOutOfSequence):
		return http.StatusConflict
	case errors.Is(err, ErrNegativeScore):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	}
	return http.StatusBadRequest
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

// sessionBody is the /session/sync and /session/close request payload.
// A sync carries the replicable state of one (session, list) pair as
// the originator holds it — the tracker kind, the seen positions
// compressed into Ranges ([lo,hi] inclusive), the scan Depth and the
// number of sessionful exchanges acknowledged, Seq; a close reads only
// SID.
type sessionBody struct {
	SID     string   `json:"sid"`
	Tracker uint8    `json:"tracker,omitempty"`
	Ranges  [][2]int `json:"ranges,omitempty"`
	Depth   int      `json:"depth,omitempty"`
	Seq     uint64   `json:"seq,omitempty"`
}

// handleSync applies a session restore (see Owner.SyncSession).
func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var body sessionBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "bad sync body: %v", err)
		return
	}
	if body.SID == "" {
		writeError(w, http.StatusBadRequest, "empty session ID")
		return
	}
	if err := s.owner.SyncSession(body.SID, bestpos.Kind(body.Tracker), body.Ranges, body.Depth, body.Seq); err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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

// rpcQuery holds the parameters of an /rpc URL.
type rpcQuery struct{ sid, tracker, seq string }

// parseRPCQuery reads the /rpc parameters out of a raw query string in
// one pass, without the map url.Values builds for every exchange. It
// reads what url.Values.Get would: the first value of a parameter wins,
// and pairs holding a semicolon or a malformed escape are skipped like
// parameters it does not know. Keys and values are unescaped only when
// they hold '%' or '+'.
func parseRPCQuery(raw string) rpcQuery {
	var q rpcQuery
	var have [3]bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := queryUnescape(k)
		if err != nil {
			continue
		}
		var i int
		var dst *string
		switch k {
		case "sid":
			i, dst = 0, &q.sid
		case "tracker":
			i, dst = 1, &q.tracker
		case "seq":
			i, dst = 2, &q.seq
		default:
			continue
		}
		if v, err = queryUnescape(v); err != nil || have[i] {
			continue
		}
		*dst, have[i] = v, true
	}
	return q
}

// queryUnescape is url.QueryUnescape, which only strings holding '%' or
// '+' need.
func queryUnescape(s string) (string, error) {
	if !strings.ContainsAny(s, "%+") {
		return s, nil
	}
	return url.QueryUnescape(s)
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
	q := parseRPCQuery(r.URL.RawQuery)
	sid := q.sid
	if sid == "" {
		writeError(w, http.StatusBadRequest, "missing sid parameter")
		return
	}
	seq, err := strconv.ParseUint(cmp.Or(q.seq, "0"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad seq parameter: %v", err)
		return
	}
	kind := Kind(strings.TrimPrefix(r.URL.Path, "/rpc/"))
	// Admission control, before the body is read or any work done: a
	// shed exchange ran nothing, which is what makes the 429 safe to
	// re-send as it is.
	if !s.owner.TryAcquire() {
		writeError(w, http.StatusTooManyRequests, "transport: %v: %s exchange shed", ErrOverloaded, kind)
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
	if v := q.tracker; v != "" {
		// The first exchange this replica sees of the session opens it.
		// A caller that already gave up creates nothing.
		tracker, err := strconv.ParseUint(v, 10, 8)
		if err == nil {
			err = ctx.Err()
		}
		if err == nil {
			err = s.owner.install(sid, bestpos.Kind(tracker), false)
		}
		if err != nil {
			writeError(w, statusFor(err), "%v", err)
			return
		}
	}
	resp, rc, err := s.owner.exchange(ctx, sid, seq, req)
	if err != nil {
		// Owner errors are malformed requests (bad position, bad item),
		// unknown sessions, exchanges out of sequence, or an abandoned
		// deadline budget — statusFor tells the client which.
		writeError(w, statusFor(err), "%v", err)
		return
	}
	out := getBuf()
	defer putBuf(out)
	if need := encodedSize(resp, rc); cap(*out) < need {
		*out = make([]byte, 0, need)
	}
	enc, err := AppendResponseBinary(*out, resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "transport: encode response: %v", err)
		return
	}
	enc = appendReceipt(enc, rc)
	*out = enc
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
	// Retries is the number of extra attempts an exchange may spend on
	// one replica after a failure. A stateless exchange spends them
	// failing over to a sibling when one is routable, and the same
	// replica otherwise; a sessionful one restores the session at its
	// pinned replica before each, then moves to the siblings. 0 means
	// DefaultRetries; negative disables retries entirely.
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
	// replica health transitions and session handoffs. nil discards it.
	Logger *slog.Logger
}

// DefaultRetries is the retry budget of an exchange when the dial
// config leaves it zero: one extra attempt, the pre-replica behaviour.
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

	// log narrates recovery events (health transitions, handoffs).
	// Never nil; set once at dial.
	log *slog.Logger
}

// defaultHTTPClient builds the pooled client Dial uses when the caller
// passes nil. net/http's zero-value Transport keeps only 2 idle
// connections per host, so a fleet of concurrent originators hammering
// the same few owners would re-handshake TCP on nearly every exchange;
// the tuned pool keeps one warm connection per in-flight originator.
// A connection idle for a second is released: a busy originator
// addresses each owner far more often than that, and an idle one holds
// no sockets or goroutines at the owners.
func defaultHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     time.Second,
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
	if interval > 0 && topo.Replicated() {
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

// maxPresize bounds how much of a response body attempt allocates up
// front on the strength of its Content-Length; a longer body still
// reads, growing the buffer as it goes.
const maxPresize = 64 << 20

// maxDrain bounds the unread remainder attempt drains before closing a
// response body: control-plane acknowledgements and error payloads are
// tiny, and a longer remainder is cheaper to drop with its connection.
const maxDrain = 64 << 10

// attempt performs one HTTP round-trip under the per-attempt timeout.
// The returned status is 0 when no response arrived. decode receives the
// whole 200 body, read once into a pooled buffer that is recycled when
// decode returns: it must copy whatever it keeps.
func (t *HTTPClient) attempt(ctx context.Context, method, url string, body []byte, contentType string, decode func(data []byte) error) (int, error) {
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
	defer func() {
		// net/http reuses a keep-alive connection only once its body was
		// read to EOF; closing it unread closes the connection, so the
		// next call to this owner would dial a new one.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrain))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, remoteError(resp)
	}
	if decode == nil {
		return resp.StatusCode, nil
	}
	buf := getBuf()
	defer putBuf(buf)
	if n := resp.ContentLength; n >= int64(cap(*buf)) && n < maxPresize {
		// One spare byte lets the read that meets EOF land without
		// growing the buffer.
		*buf = make([]byte, 0, n+1)
	}
	data, rerr := appendAll(*buf, resp.Body)
	*buf = data
	// A data-plane response carries its frame checksum; verify before
	// decoding so wire corruption surfaces as a typed, retryable error
	// instead of silently mangled payloads or an opaque decode failure.
	crc := resp.Header.Get(HeaderFrameCRC)
	if rerr != nil {
		if crc != "" {
			return resp.StatusCode, fmt.Errorf("%w: read body: %v", errCorruptFrame, rerr)
		}
		return resp.StatusCode, fmt.Errorf("transport: read body: %w", rerr)
	}
	if crc != "" {
		want, perr := strconv.ParseUint(crc, 16, 32)
		if perr != nil || crc32.ChecksumIEEE(data) != uint32(want) {
			return resp.StatusCode, fmt.Errorf("%w: frame checksum mismatch (%d bytes)", errCorruptFrame, len(data))
		}
	}
	return resp.StatusCode, decode(data)
}

// doReplica performs one control-plane exchange with a specific replica,
// body pre-encoded, retrying on the same replica up to the retry budget
// on transient failures with jittered backoff between attempts. An
// owner shed (429) is honored as backpressure: the pause is waited out
// without burning the retry budget, bounded by maxBackpressureWaits
// and the caller's deadline. Errors carry list, replica and URL.
func (t *HTTPClient) doReplica(ctx context.Context, r *replica, method, path string, body []byte, contentType string, decode func(data []byte) error) error {
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
func (t *HTTPClient) doJSON(ctx context.Context, r *replica, method, path string, body any, decode func(data []byte) error) error {
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

// Unwrap maps the status an owner answers a TPUT request over negative
// scores with back to ErrNegativeScore, so errors.Is matches the
// refusal over HTTP as it does in process.
func (e *RemoteError) Unwrap() error {
	if e.Status == http.StatusUnprocessableEntity {
		return ErrNegativeScore
	}
	return nil
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
	err := t.doReplica(ctx, r, http.MethodGet, "/stats", nil, "", func(data []byte) error {
		return json.Unmarshal(data, &st)
	})
	if err != nil {
		return OwnerStats{}, err
	}
	return st, nil
}

// sessionListState is one session's per-list routing and accounting
// state: which replicas it has reached, the replica its sessionful
// traffic is pinned to, and the merged receipts of its acknowledged
// exchanges. Guarded by its mutex; contention is nil in practice
// because a session addresses each list from one goroutine at a time.
type sessionListState struct {
	mu sync.Mutex
	// contacted[ri]: a request of the session went out to replica ri,
	// so it may hold the session and Close goes there. held[ri]: it
	// acknowledged an exchange or sync, so it holds the session and
	// exchanges stop carrying the tracker marker.
	contacted, held []bool
	// pin is the replica serving this session's sessionful exchanges,
	// chosen by policy at first use; nil until then.
	pin *replica
	// failed[ri] records replicas that failed an exchange (or a restore)
	// of this session — the session's recovery bookkeeping.
	failed []bool
	// charged sums the accesses of the session's acknowledged exchanges
	// on this list, whichever replica served them, so an exchange
	// re-sent after a lost response counts once.
	//
	// The rest is the session's copy of the list's state, taken from the
	// receipts of its acknowledged sessionful exchanges: acked counts
	// them (the next one travels as acked+1, see Owner.exchange), depth
	// and best are the pin's after the last one, and seen is a bitset
	// over positions 1..n (bit p for position p) of every position they
	// marked seen, allocated at the first receipt that marks one. A
	// restore ships exactly this copy.
	charged     access.Counts
	acked       uint64
	depth, best int
	seen        []uint64
}

// Open starts a query session without a round trip: each replica opens
// it when the first exchange (or handoff sync) of the session reaches
// it, so a query only ever touches the replicas it routes to.
func (t *HTTPClient) Open(ctx context.Context, tracker bestpos.Kind) (Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &httpSession{t: t, sid: NewSessionID(), tracker: tracker, state: make([]sessionListState, len(t.lists))}
	for li, reps := range t.lists {
		ls := &s.state[li]
		ls.contacted, ls.held = make([]bool, len(reps)), make([]bool, len(reps))
	}
	mClientSessOpened.Inc()
	mClientSessionsOpen.Add(1)
	return s, nil
}

// liveSID is the sentinel session parameter update exchanges travel
// under: the /rpc data plane requires a sid, but updates are feed-plane
// and the owner ignores it.
const liveSID = "live"

// updateReplica sends one update batch to one replica over the data
// plane — binary codec, frame CRC, shed backpressure and transient
// retries; the per-feed sequence number makes a re-sent update a no-op
// acknowledgement, so re-sending is always safe.
func (t *HTTPClient) updateReplica(ctx context.Context, r *replica, req UpdateReq) (UpdateResp, error) {
	body, err := AppendRequestBinary(nil, req)
	if err != nil {
		return UpdateResp{}, fmt.Errorf("transport: owner %d: encode update: %w", r.list, err)
	}
	var out UpdateResp
	derr := t.doReplica(ctx, r, http.MethodPost, "/rpc/"+string(KindUpdate)+"?sid="+liveSID, body, ContentTypeBinary, func(data []byte) error {
		resp, _, derr := decodeBody(data)
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
	t       *HTTPClient
	sid     string
	tracker bestpos.Kind

	mu      sync.Mutex
	elapsed time.Duration

	state []sessionListState

	// handoffs counts pin-to-sibling handoffs across all lists;
	// backpressure counts owner sheds (429) this session waited out.
	handoffs     atomic.Int64
	backpressure atomic.Int64

	// rec collects per-exchange trace spans when the query is traced;
	// nil otherwise. Armed via SetSpanRecorder before the first
	// exchange (the SpanRecording contract), read without locks.
	rec *SpanRecorder

	// closed makes the open-sessions gauge's decrement fire exactly
	// once, and refuses exchanges after Close.
	closed atomic.Bool
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

// rpcURL is the data-plane URL of one exchange of this session at
// replica r. marked adds the tracker marker that opens the session
// there; a non-zero seq numbers a sessionful exchange for the owner's
// fence.
func (s *httpSession) rpcURL(r *replica, kind Kind, marked bool, seq uint64) string {
	u := r.url + "/rpc/" + string(kind) + "?sid=" + s.sid
	if marked {
		u += "&tracker=" + strconv.Itoa(int(s.tracker))
	}
	if seq != 0 {
		u += "&seq=" + strconv.FormatUint(seq, 10)
	}
	return u
}

// contact records that a request of this session is about to reach
// replica ri of list li and reports whether it must carry the tracker
// marker: until the replica acknowledges one, it may not hold the
// session.
func (s *httpSession) contact(li, ri int) (marked bool) {
	ls := &s.state[li]
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.contacted[ri] = true
	return !ls.held[ri]
}

// pinned returns the replica this session's sessionful traffic for list
// li sticks to, choosing it by policy on first use, and the sequence
// number of the list's next sessionful exchange.
func (s *httpSession) pinned(li int) (*replica, uint64) {
	ls := &s.state[li]
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.pin == nil {
		ls.pin = s.t.route(li, nil)
	}
	return ls.pin, ls.acked + 1
}

// noteFailed records a replica failing an exchange (or a restore) of
// this session, for the session's recovery bookkeeping. A replica that
// lost the session no longer holds it: the next exchange there carries
// the tracker marker, which opens it again.
func (s *httpSession) noteFailed(li, ri int, lost bool) {
	ls := &s.state[li]
	ls.mu.Lock()
	if ls.failed == nil {
		ls.failed = make([]bool, len(s.t.lists[li]))
	}
	ls.failed[ri] = true
	ls.held[ri] = ls.held[ri] && !lost
	ls.mu.Unlock()
}

// SessionRecovery reports the failures one session absorbed: how many
// pin-to-sibling handoffs (restores that moved the pin) it performed,
// how many distinct replicas failed an exchange mid-query, and how many
// owner sheds it waited out as backpressure. The dist runner harvests
// it into Result.Recovery; primary accounting is untouched by any of
// them.
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

// syncTimeout caps each restore: a black-holed replica must cost a
// bounded slice of the query, not a full data-plane timeout times the
// retry budget, before the next replica is tried.
const syncTimeout = 5 * time.Second

// restore ships the session's copy of list li's state to replica r in
// one /session/sync, which replaces whatever r holds of the session, and
// pins the session there. Moving the pin to a sibling counts as a
// handoff. A replica that fails the restore is marked failed; one that
// cannot be reached is also demoted, so routing prefers the others,
// while one that answers with a refusal is only passed over.
func (s *httpSession) restore(ctx context.Context, li int, r *replica) error {
	ls := &s.state[li]
	ls.mu.Lock()
	body := sessionBody{SID: s.sid, Tracker: uint8(s.tracker), Ranges: seenRanges(ls.seen, s.t.n), Depth: ls.depth, Seq: ls.acked}
	ls.contacted[r.index] = true
	ls.mu.Unlock()
	sctx, cancel := context.WithTimeout(ctx, min(s.t.reqTimeout, syncTimeout))
	err := s.t.doJSON(sctx, r, http.MethodPost, "/session/sync", body, nil)
	cancel()
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		s.noteFailed(li, r.index, false)
		var re *RemoteError
		if !errors.As(err, &re) {
			r.noteFailure()
			s.t.noteHealth(r, false)
			s.t.tripFailure(r)
		}
		s.t.log.Warn("session restore refused", "sid", s.sid, "list", li, "replica", r.index, "url", r.url, "err", err)
		return err
	}
	ls.mu.Lock()
	from := ls.pin
	ls.pin = r
	ls.held[r.index] = true
	ls.mu.Unlock()
	if from != r {
		s.handoffs.Add(1)
		mClientHandoffs.Inc()
		s.t.log.Info("session handoff", "sid", s.sid, "list", li, "from", from.url, "to", r.url)
	}
	return nil
}

// acknowledge merges the receipt of an exchange replica ri acknowledged
// into the session's per-list accounting and, for a sessionful
// exchange, its copy of the session state (see sessionListState).
func (s *httpSession) acknowledge(li, ri int, rc Receipt, sessionful bool) {
	ls := &s.state[li]
	ls.mu.Lock()
	ls.held[ri] = true
	ls.charged = ls.charged.Add(rc.Accesses)
	if sessionful {
		ls.acked++
		ls.depth, ls.best = rc.Depth, rc.Best
		if len(rc.Seen) > 0 && ls.seen == nil {
			ls.seen = make([]uint64, s.t.n/64+1)
		}
		for _, p := range rc.Seen {
			if p >= 1 && p <= s.t.n {
				ls.seen[p/64] |= 1 << (p % 64)
			}
		}
	}
	ls.mu.Unlock()
}

// seenRanges compresses a seen-position bitset over 1..n into inclusive
// [lo,hi] runs, the /session/sync encoding.
func seenRanges(seen []uint64, n int) [][2]int {
	if seen == nil {
		return nil
	}
	var out [][2]int
	start := 0
	for p := 1; p <= n+1; p++ {
		set := p <= n && seen[p/64]&(1<<(p%64)) != 0
		switch {
		case set && start == 0:
			start = p
		case !set && start != 0:
			out = append(out, [2]int{start, p - 1})
			start = 0
		}
	}
	return out
}

// attemptRPC performs one data-plane round-trip with one replica,
// reporting the decoded response and receipt alongside the encoded
// body size (tracing and the wire-bytes metrics want the on-the-wire
// count, which only this frame sees); seq numbers a sessionful
// exchange (see rpcURL). Both bodies pass through pooled buffers;
// decoded messages own their memory, so nothing aliases a pooled slice
// after return.
func (s *httpSession) attemptRPC(ctx context.Context, li int, r *replica, kind Kind, body []byte, seq uint64) (Response, Receipt, int, int, error) {
	var out Response
	var rc Receipt
	respBytes := 0
	url := s.rpcURL(r, kind, s.contact(li, r.index), seq)
	status, err := s.t.attempt(ctx, http.MethodPost, url, body, ContentTypeBinary, func(data []byte) error {
		respBytes = len(data)
		var derr error
		if out, rc, derr = decodeBody(data); derr != nil {
			// The owner answered 200, so a frame that fails to decode
			// was damaged in transit: classify as corrupt, not permanent.
			return fmt.Errorf("%w: decode: %v", errCorruptFrame, derr)
		}
		return nil
	})
	return out, rc, respBytes, status, err
}

// exchange performs one logical exchange with the owner of a list,
// routing it to a replica and absorbing failures:
//
//   - a stateless request goes to the policy's replica and FAILS OVER
//     to a sibling after a failure (a sibling that does not hold the
//     session yet opens it from the marker);
//   - a sessionful request goes to the session's pinned replica, and
//     its receipt lands in the session's copy of the list's state. On a
//     transient failure, a corrupt frame, a lost session (404) or a
//     sequence refusal (409) the copy is RESTORED at the pin and the
//     request re-sent; once the pin has spent its attempts, each
//     routable sibling in policy order is restored and becomes the pin.
//     A restore replaces the replica's state with the acknowledged one
//     and the owner's sequence fence refuses every attempt but the next
//     (Owner.exchange), so whatever a failed attempt applied is rolled
//     back and no cursor advances twice. Only when no replica accepts
//     the copy does the failure surface as OwnerFailedError.
func (s *httpSession) exchange(ctx context.Context, li int, req Request) (_ Response, err error) {
	if s.closed.Load() {
		// A restore would open the closed session again at a replica.
		return nil, fmt.Errorf("transport: owner %d: %w %q: closed", li, ErrUnknownSession, s.sid)
	}
	kind := req.Kind()
	enc := getBuf()
	defer putBuf(enc)
	if *enc, err = AppendRequestBinary(*enc, req); err != nil {
		return nil, fmt.Errorf("transport: owner %d: encode request: %w", li, err)
	}

	sessionful := req.Sessionful()
	var target *replica
	var seq uint64 // 0 for a stateless exchange
	if sessionful {
		target, seq = s.pinned(li)
	} else {
		target = s.t.route(li, nil)
	}
	if target == nil {
		return nil, fmt.Errorf("transport: owner %d: no routable replica", li)
	}

	// Exchange-level observability: one metrics charge and — when the
	// query is traced — one Span per logical exchange, fed by the
	// attempt loop below. Neither touches Net or the receipt
	// accounting.
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

	// budget is the attempts a sessionful exchange may spend on each
	// pin, or a stateless one across the list: every replica deserves a
	// try before a stateless exchange gives up, even when that exceeds
	// the same-replica retry budget.
	reps := len(s.t.lists[li])
	budget := 1 + s.t.retries
	if !sessionful && s.t.retries > 0 {
		budget = max(budget, reps)
	}
	var tried []bool
	var lastErr error
	restore := false
	waits, spent := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		if spent == budget {
			if !sessionful {
				break
			}
			// The pin spent its attempts: restore the session at the
			// routable siblings in policy order; the first that accepts
			// becomes the pin.
			next := s.t.route(li, tried)
			for next != nil && ctx.Err() == nil && s.restore(ctx, li, next) != nil {
				tried[next.index] = true
				next = s.t.route(li, tried)
			}
			if next == nil || ctx.Err() != nil {
				break
			}
			target, spent, restore = next, 0, false
			failedOver, didHandoff = true, true
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
		spent++
		if restore {
			if lastErr = s.restore(ctx, li, target); lastErr != nil {
				continue
			}
			restore = false
		}
		start := time.Now()
		resp, rc, rb, status, err := s.attemptRPC(ctx, li, target, kind, *enc, seq)
		if err == nil {
			respBytes = rb
			target.observe(time.Since(start))
			s.t.noteHealth(target, true)
			s.t.tripSuccess(target)
			if failedOver {
				target.failovers.Add(1)
			}
			s.acknowledge(li, target.index, rc, sessionful)
			return resp, nil
		}
		lastErr = err
		// A 429 is the owner shedding load before doing any work:
		// backpressure, not failure. Wait out the owner's retry-after
		// hint (plus jitter) and re-send without burning the attempt
		// budget or the replica's health/breaker standing — a shed
		// exchange is safe to re-send as it is, because the owner is
		// contractually bound to have run none of it.
		if pause, shed := shedPause(err, s.t.bk, waits+1); shed && waits < maxBackpressureWaits {
			waits++
			attempted--
			spent--
			mClientBackpressure.Inc()
			s.backpressure.Add(1)
			if sleepCtx(ctx, pause) != nil {
				break
			}
			continue
		}
		// A 404 is the owner's ErrUnknownSession on an unmarked exchange:
		// the replica is alive but no longer holds the session — it
		// restarted (or evicted it). A 409 is its sequence fence: its
		// copy of the session is out of step with the session's own.
		var re *RemoteError
		lost := errors.As(err, &re) && (re.Status == http.StatusNotFound || re.Status == http.StatusConflict)
		transient := transientStatus(status) || (status == 0 && transientErr(ctx, err)) ||
			errors.Is(err, errCorruptFrame)
		if !lost && !transient {
			// The owner rejected the request (or the caller canceled):
			// no replica will answer differently.
			return nil, fmt.Errorf("transport: owner %d (%s): %w", li, target.url, err)
		}
		if !lost {
			target.noteFailure()
			s.t.noteHealth(target, false)
			s.t.tripFailure(target)
		}
		s.noteFailed(li, target.index, lost)
		if tried == nil {
			tried = make([]bool, reps)
		}
		tried[target.index] = true
		if sessionful {
			restore = true
			continue
		}
		// Stateless: fail over to a sibling; with none left, re-attempt
		// the same replica.
		if next := s.t.route(li, tried); next != nil {
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

// Stats reports an owner's bookkeeping for this session without a wire
// call: the list metadata from the dial handshake and the session's
// accesses, depth and best position merged from the receipts of its
// acknowledged exchanges — in every topology, so accounting is
// bit-identical to a single-owner run whatever routed, failed over or
// was re-sent.
func (s *httpSession) Stats(_ context.Context, owner int) (OwnerStats, error) {
	if err := s.t.checkOwner(owner); err != nil {
		return OwnerStats{}, err
	}
	ls := &s.state[owner]
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return OwnerStats{Index: owner, N: s.t.n, M: len(s.t.lists),
		Accesses: ls.charged, Depth: ls.depth, Best: ls.best}, nil
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

// Close releases the session's owner-side state at every replica it
// contacted, best-effort and in parallel: every replica is attempted
// under a fresh short-lived control-plane context (so a canceled query
// still cleans up after itself), and a hung owner costs at most
// closeTimeout, not one reqTimeout per owner. The returned error is the
// first failure — callers tearing down after a replica crash should
// expect (and may ignore) one.
func (s *httpSession) Close() error {
	if s.closed.CompareAndSwap(false, true) {
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
		ls := &s.state[li]
		ls.mu.Lock()
		for _, r := range reps {
			if !ls.contacted[r.index] {
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
		ls.mu.Unlock()
	}
	wg.Wait()
	return firstErr
}
