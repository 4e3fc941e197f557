package transport

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"topk/internal/access"
	"topk/internal/bestpos"
	"topk/internal/list"
)

// OwnerStats is the control-plane bookkeeping of one owner: what the
// originator needs to assemble a Result but that is not protocol traffic
// (see Session.Stats). MinScore is owner metadata known without a
// charged access, cf. the centralized list floors.
type OwnerStats struct {
	// Index is the list the owner serves.
	Index int `json:"index"`
	// N is the list length.
	N int `json:"n"`
	// M is the number of lists of the owner's database — every owner of
	// a cluster must agree on it.
	M int `json:"m"`
	// MinScore is the score at the last position of the list.
	MinScore float64 `json:"minScore"`
	// Replica is the owner process's replica label within its list's
	// replica set ("" when the deployment does not use replicas) —
	// advertised in the /stats handshake so originators and operators
	// can tell which of a list's interchangeable owners they reached.
	Replica string `json:"replica,omitempty"`
	// Accesses tallies the session's list accesses.
	Accesses access.Counts `json:"accesses"`
	// Best is the session's tracker's current best position.
	Best int `json:"best"`
	// Depth is the deepest sorted position the session has read.
	Depth int `json:"depth"`
	// OpenSessions and Evictions report the owner's session hygiene: how
	// many sessions are live, and how many idle ones the TTL sweep has
	// reclaimed over the owner's lifetime.
	OpenSessions int   `json:"openSessions,omitempty"`
	Evictions    int64 `json:"evictions,omitempty"`
	// Mutable reports that the owner serves an updatable list — the live
	// update plane is on; Version counts the update batches applied to it
	// so far. Both zero/absent on read-only owners. Version is also
	// piggybacked on every update ack, which is how the live coordinator
	// tells replicas of one list apart from each other's lag.
	Mutable bool   `json:"mutable,omitempty"`
	Version uint64 `json:"version,omitempty"`
}

// ErrUnknownSession reports a message carrying a session ID the owner
// holds no state for — never opened, already closed, or evicted. The
// HTTP server maps it to 404 so clients can tell it from a malformed
// request (which is never worth a retry either).
var ErrUnknownSession = errors.New("unknown session")

// MaxSessions is the default bound on concurrently open sessions per
// owner (see SetMaxSessions), so originators that crash without
// closing their sessions degrade into a clear error instead of
// unbounded owner-side state.
const MaxSessions = 4096

// DefaultMaxInflight is the default admission-control bound on
// concurrently served data-plane exchanges (see SetMaxInflight). An
// exchange beyond the bound is shed with ErrOverloaded before any work
// is done — the client treats the typed retry-after as backpressure.
const DefaultMaxInflight = 1024

// DefaultRetryAfter is the pause an overloaded owner suggests to shed
// clients. Short: shedding exists to smear a burst out over tens of
// milliseconds, not to park clients.
const DefaultRetryAfter = 25 * time.Millisecond

// ErrOverloaded reports an exchange shed by owner-side admission
// control: the owner was at its in-flight (or session) bound and
// refused the work before doing any of it. Because nothing ran, a shed
// exchange is safe to re-send whatever its kind — the HTTP server maps
// this to 429 plus a Retry-After hint and the client waits it out
// instead of counting a failure.
var ErrOverloaded = errors.New("owner overloaded")

// ErrReadOnly reports an update sent to an owner whose list is not
// mutable: it was loaded read-only (the default), or is stripe-backed —
// disk stripes stay read-only until the stripe write path exists
// (ROADMAP 3b). The HTTP server maps it to 400: re-sending the update
// cannot succeed.
var ErrReadOnly = errors.New("owner list is read-only")

// DefaultSessionTTL is the idle bound after which an owner may evict a
// session: a session untouched for this long was abandoned by an
// originator that never closed it (crash, network partition), and
// reclaiming it keeps churn from accumulating toward the MaxSessions
// hard error. Far above any inter-exchange gap of a live query.
const DefaultSessionTTL = 15 * time.Minute

// ownerSession is the owner-side state of one query session: the probe
// charging this session's accesses, the seen-position tracker of
// BPA/BPA2, and the scan cursor of TPUT. Handlers of one session are
// serialized by its mutex; distinct sessions proceed in parallel.
// lastUsed is written only under the owner's table mutex (every handler
// resolves the session through Owner.session), which is also where the
// eviction sweep reads it.
type ownerSession struct {
	mu       sync.Mutex
	pr       *access.Probe
	tr       bestpos.Tracker
	depth    int
	lastUsed time.Time
}

// Owner is the owner-side half of every backend: the message handlers of
// one list owner, shared verbatim by Loopback and the HTTP server so
// that responses — and therefore the originator's accounting —
// are identical by construction.
//
// An Owner accesses only its own list, through an access.Probe so the
// paper's access metrics fall out exactly as in the centralized
// algorithms. All protocol state is keyed by the session ID carried in
// every message: N originators may run concurrent queries against one
// owner, and only exchanges of the same session serialize (on that
// session's mutex — the owner-wide mutex guards nothing but the session
// table).
type Owner struct {
	index   int
	m       int
	n       int
	replica string         // replica label advertised in /stats
	db      *list.Database // single-list database over the owned list

	mu        sync.Mutex
	sessions  map[string]*ownerSession
	ttl       time.Duration // idle bound; <= 0 disables eviction
	nextSweep time.Time
	evictions int64
	maxSess   int // open-session bound; <= 0 means unbounded

	// Admission control: inflight tracks data-plane exchanges being
	// served right now, maxInflight bounds them (<= 0 disables). Atomics
	// so TryAcquire/Release stay off the session-table mutex.
	inflight    atomic.Int64
	maxInflight atomic.Int64
	shed        atomic.Int64

	// Live update plane (nil on read-only owners): mut is the updatable
	// list behind db, feeds the last applied sequence number per feed
	// (the idempotency ledger), filters the standing-query notification
	// filters. All guarded by liveMu — updates serialize against each
	// other and against filter installs, never against query sessions,
	// which read immutable list snapshots.
	mut     *list.Mutable
	liveMu  sync.Mutex
	feeds   map[string]uint64
	filters map[string]*ownerFilter

	// log narrates session lifecycle (open/close/evict) for operators.
	// Never nil — a discard logger until SetLogger installs a real one —
	// and write-once before serving, so handlers read it without locks.
	log *slog.Logger
}

// NewOwner returns the owner of list index of db, ready to serve query
// sessions. Idle sessions are evicted after DefaultSessionTTL; see
// SetSessionTTL.
func NewOwner(db *list.Database, index int) (*Owner, error) {
	if db == nil {
		return nil, fmt.Errorf("transport: nil database")
	}
	if index < 0 || index >= db.M() {
		return nil, fmt.Errorf("transport: list index %d out of range [0,%d)", index, db.M())
	}
	own, err := list.NewReaderDatabase(db.List(index))
	if err != nil {
		return nil, err
	}
	o := &Owner{
		index:    index,
		m:        db.M(),
		n:        db.N(),
		db:       own,
		sessions: make(map[string]*ownerSession),
		ttl:      DefaultSessionTTL,
		maxSess:  MaxSessions,
		log:      slog.New(slog.DiscardHandler),
	}
	o.maxInflight.Store(DefaultMaxInflight)
	if mut, ok := db.List(index).(*list.Mutable); ok {
		o.enableUpdates(mut)
	}
	return o, nil
}

// EnableUpdates swaps the owner's list for a mutable copy seeded with
// its current contents, turning the update plane on — the path
// cmd/topk-owner's -mutable flag takes for lists loaded from immutable
// storage. Owners built directly over a *list.Mutable are
// update-enabled from the start (NewOwner detects it). Call before
// serving traffic; in-flight sessions would otherwise keep reading the
// old list.
func (o *Owner) EnableUpdates() error {
	if o.mut != nil {
		return nil
	}
	mut, err := list.MutableFromReader(o.db.List(0))
	if err != nil {
		return fmt.Errorf("transport: owner %d: %w", o.index, err)
	}
	db, err := list.NewReaderDatabase(mut)
	if err != nil {
		return err
	}
	o.db = db
	o.enableUpdates(mut)
	return nil
}

func (o *Owner) enableUpdates(mut *list.Mutable) {
	o.mut = mut
	o.feeds = make(map[string]uint64)
	o.filters = make(map[string]*ownerFilter)
}

// ownerFilter is one standing query's notification filter at this
// owner, installed by the live coordinator (Mäcker-style monitoring:
// the owner stays silent while its local drift provably cannot change
// the global top-k). watch holds the query's current top-k members —
// any update touching one is a crossing. slack is this owner's share of
// the coordinator's gap between the k-th and (k+1)-th aggregate score;
// drift accumulates each non-member's local score movement since the
// filter was installed, and a crossing fires once an item's positive
// drift reaches the slack: a non-member can displace a member only by
// gaining at least the full gap summed across all owners, so as long as
// every owner's drift stays under its share, the ranking provably
// stands.
type ownerFilter struct {
	slack float64
	watch map[list.ItemID]struct{}
	drift map[list.ItemID]float64
}

// crossed folds a batch's deltas into the filter's drift and reports
// whether the batch may change the query's top-k: it touched a watched
// member, or some non-member's cumulative positive drift since the
// filter was installed reached this owner's slack. Zero slack (a tied
// k-th/(k+1)-th boundary) degenerates to "any positive non-member
// drift crosses" — still sound, just suppressing nothing. Drift is kept
// after a crossing, so a lost notification re-fires on the next touch
// instead of going silently stale.
func (f *ownerFilter) crossed(ups []list.Update) bool {
	hit := false
	for _, u := range ups {
		if _, ok := f.watch[u.Item]; ok {
			hit = true
			continue
		}
		d := f.drift[u.Item] + u.Delta
		f.drift[u.Item] = d
		if d > 0 && d >= f.slack {
			hit = true
		}
	}
	return hit
}

// SetFilter installs (or replaces) the notification filter of one
// standing query, resetting its drift accounting — the coordinator
// reinstalls filters after every re-evaluation, so drift always
// measures movement since the last known-good ranking. Control-plane;
// fails when the update plane is off.
func (o *Owner) SetFilter(query string, slack float64, watch []list.ItemID) error {
	if o.mut == nil {
		return fmt.Errorf("transport: owner %d: %w", o.index, ErrReadOnly)
	}
	if query == "" {
		return fmt.Errorf("transport: owner %d: empty filter query name", o.index)
	}
	if math.IsNaN(slack) || slack < 0 {
		return fmt.Errorf("transport: owner %d: filter slack %v must be >= 0", o.index, slack)
	}
	f := &ownerFilter{
		slack: slack,
		watch: make(map[list.ItemID]struct{}, len(watch)),
		drift: make(map[list.ItemID]float64),
	}
	for _, d := range watch {
		f.watch[d] = struct{}{}
	}
	o.liveMu.Lock()
	o.filters[query] = f
	o.liveMu.Unlock()
	return nil
}

// ClearFilter removes one standing query's filter. Unknown names are a
// no-op so teardown is idempotent.
func (o *Owner) ClearFilter(query string) {
	if o.mut == nil {
		return
	}
	o.liveMu.Lock()
	delete(o.filters, query)
	o.liveMu.Unlock()
}

// Filters reports how many standing-query filters are installed.
func (o *Owner) Filters() int {
	o.liveMu.Lock()
	defer o.liveMu.Unlock()
	return len(o.filters)
}

// SetLogger installs a structured logger for the owner's session
// lifecycle events (open, close, evict). nil restores the discard
// logger. Install before serving traffic, like SetSessionTTL.
func (o *Owner) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.DiscardHandler)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.log = l.With("list", o.index)
}

// SetSessionTTL changes the idle bound after which a session is evicted
// (0 or negative disables eviction). The sweep is opportunistic — it
// piggybacks on session opens and lookups, so an evicted-but-idle owner
// costs no background goroutine.
func (o *Owner) SetSessionTTL(d time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ttl = d
	o.nextSweep = time.Time{}
}

// SetMaxSessions changes the open-session bound (default MaxSessions;
// 0 or negative removes it). Opens beyond the bound fail with an
// ErrOverloaded-wrapped error the HTTP server answers 429.
func (o *Owner) SetMaxSessions(n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.maxSess = n
}

// SetMaxInflight changes the admission-control bound on concurrently
// served data-plane exchanges (default DefaultMaxInflight; 0 or
// negative removes it). Safe to call while serving.
func (o *Owner) SetMaxInflight(n int) {
	o.maxInflight.Store(int64(n))
}

// TryAcquire reserves one in-flight exchange slot, refusing when the
// owner is at its admission bound. Callers that get true must Release.
// The reservation happens before any request work — body, decode,
// handler — which is what makes a shed exchange unconditionally safe
// to re-send.
func (o *Owner) TryAcquire() bool {
	n := o.inflight.Add(1)
	if max := o.maxInflight.Load(); max > 0 && n > max {
		o.inflight.Add(-1)
		o.shed.Add(1)
		mOwnerShed.Inc()
		return false
	}
	mOwnerInflight.Set(float64(n))
	return true
}

// Release returns an in-flight exchange slot taken by TryAcquire.
func (o *Owner) Release() {
	mOwnerInflight.Set(float64(o.inflight.Add(-1)))
}

// Shed reports how many exchanges admission control has refused over
// the owner's lifetime.
func (o *Owner) Shed() int64 { return o.shed.Load() }

// SetReplicaID labels this owner process within its list's replica set
// (e.g. "a", "b" — cmd/topk-owner's -replica flag). The label is
// advertised in /stats; it is informational, identifying which of a
// list's interchangeable owners answered.
func (o *Owner) SetReplicaID(id string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.replica = id
}

// Evictions reports how many idle sessions the TTL sweep has reclaimed.
func (o *Owner) Evictions() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.evictions
}

// sweepLocked evicts sessions idle past the TTL. Called with o.mu held,
// rate-limited to once per quarter-TTL so the table scan never dominates
// the hot path. A session evicted while a handler still holds its
// pointer finishes that exchange on the orphaned state; the next
// exchange of the session gets ErrUnknownSession — exactly what a closed
// session gets.
func (o *Owner) sweepLocked(now time.Time) {
	if o.ttl <= 0 || now.Before(o.nextSweep) {
		return
	}
	o.nextSweep = now.Add(o.ttl / 4)
	for sid, s := range o.sessions {
		if idle := now.Sub(s.lastUsed); idle > o.ttl {
			delete(o.sessions, sid)
			o.evictions++
			mOwnerSessEvicted.Inc()
			mOwnerSessionsOpen.Add(-1)
			o.log.Info("session evicted", "sid", sid, "idle", idle)
		}
	}
}

// Open installs fresh protocol state for the session: a new probe
// (zeroed access tally), a fresh seen-position tracker of the given
// kind, and a zero scan cursor. Re-opening an existing session ID
// replaces its state, so a retried open is idempotent. Control-plane —
// never charged to traffic accounting.
func (o *Owner) Open(sid string, kind bestpos.Kind) error {
	if sid == "" {
		return fmt.Errorf("transport: owner %d: empty session ID", o.index)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	now := time.Now()
	o.sweepLocked(now)
	_, existed := o.sessions[sid]
	if !existed && o.maxSess > 0 && len(o.sessions) >= o.maxSess {
		return fmt.Errorf("transport: owner %d: session limit %d reached: %w", o.index, o.maxSess, ErrOverloaded)
	}
	o.sessions[sid] = &ownerSession{
		pr:       access.NewProbe(o.db),
		tr:       bestpos.New(kind, o.n),
		lastUsed: now,
	}
	if !existed {
		mOwnerSessOpened.Inc()
		mOwnerSessionsOpen.Add(1)
	}
	o.log.Debug("session opened", "sid", sid, "reopen", existed)
	return nil
}

// CloseSession releases the session's state. Unknown IDs are a no-op, so
// close is idempotent.
func (o *Owner) CloseSession(sid string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.sessions[sid]; !ok {
		return
	}
	delete(o.sessions, sid)
	mOwnerSessClosed.Inc()
	mOwnerSessionsOpen.Add(-1)
	o.log.Debug("session closed", "sid", sid)
}

// CloseAllSessions releases every open session, returning how many it
// closed — the graceful-shutdown path: after the HTTP server has
// drained, the daemon discards whatever sessions crashed or abandoned
// originators left behind rather than waiting out the TTL.
func (o *Owner) CloseAllSessions() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := len(o.sessions)
	for sid := range o.sessions {
		delete(o.sessions, sid)
		mOwnerSessClosed.Inc()
		mOwnerSessionsOpen.Add(-1)
	}
	if n > 0 {
		o.log.Info("sessions closed at shutdown", "count", n)
	}
	return n
}

// Sessions reports how many sessions are currently open.
func (o *Owner) Sessions() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.sessions)
}

// session resolves a session ID, refreshes its idle stamp, and gives the
// TTL sweep its chance to run.
func (o *Owner) session(sid string) (*ownerSession, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := time.Now()
	o.sweepLocked(now)
	s, ok := o.sessions[sid]
	if !ok {
		return nil, fmt.Errorf("transport: owner %d: %w %q", o.index, ErrUnknownSession, sid)
	}
	s.lastUsed = now
	return s, nil
}

// Info reports the owner's list metadata — the dial handshake. The
// access tallies are zero: they live per session.
func (o *Owner) Info() OwnerStats {
	o.mu.Lock()
	open, ev, rep := len(o.sessions), o.evictions, o.replica
	o.mu.Unlock()
	st := OwnerStats{
		Index:        o.index,
		N:            o.n,
		M:            o.m,
		MinScore:     o.db.List(0).At(o.n).Score,
		Replica:      rep,
		OpenSessions: open,
		Evictions:    ev,
	}
	if o.mut != nil {
		st.Mutable = true
		st.Version = o.mut.Version()
	}
	return st
}

// SessionStats reports one session's bookkeeping.
func (o *Owner) SessionStats(sid string) (OwnerStats, error) {
	s, err := o.session(sid)
	if err != nil {
		return OwnerStats{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := o.Info()
	st.Accesses = s.pr.Counts()
	st.Best = s.tr.Best()
	st.Depth = s.depth
	return st, nil
}

// SyncSession applies a session-state delta mirrored from a sibling
// replica: it marks the given positions (single positions and inclusive
// [lo,hi] ranges) seen in the session's tracker and raises the scan
// depth. Marking is idempotent and the depth merge is monotonic, so
// replaying a sync — or receiving one the pinned replica already
// applied — converges instead of corrupting state. Control-plane:
// nothing here touches the access probe, so mirrored state never
// perturbs the accounting the originator's ledger holds authoritative.
func (o *Owner) SyncSession(sid string, positions []int, ranges [][2]int, depth int) error {
	s, err := o.session(sid)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range positions {
		if p >= 1 && p <= o.n {
			s.tr.MarkSeen(p)
		}
	}
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		if lo < 1 {
			lo = 1
		}
		if hi > o.n {
			hi = o.n
		}
		for p := lo; p <= hi; p++ {
			s.tr.MarkSeen(p)
		}
	}
	if depth > s.depth {
		s.depth = depth
	}
	mOwnerSessionSyncs.Inc()
	return nil
}

// SessionState exports a session's replicable protocol state — the seen
// positions compressed into inclusive [lo,hi] ranges, plus the scan
// depth — so a freshly promoted mirror replica can be brought up to the
// pinned replica's state in one SyncSession. The access tally is
// deliberately absent: it is not replicable state (the originator's
// ledger is authoritative in replicated topologies).
func (o *Owner) SessionState(sid string) (ranges [][2]int, depth int, err error) {
	s, err := o.session(sid)
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	start := 0
	for p := 1; p <= o.n; p++ {
		switch {
		case s.tr.Seen(p):
			if start == 0 {
				start = p
			}
		case start != 0:
			ranges = append(ranges, [2]int{start, p - 1})
			start = 0
		}
	}
	if start != 0 {
		ranges = append(ranges, [2]int{start, o.n})
	}
	return ranges, s.depth, nil
}

// Handle serves one request inside the given session. Exchanges of the
// same session are serialized; exchanges of distinct sessions are not. A
// batch request executes atomically: its inner requests run in order
// under one hold of the session mutex, so no other exchange of the same
// session can interleave with a coalesced round.
func (o *Owner) Handle(sid string, req Request) (Response, error) {
	return o.HandleContext(context.Background(), sid, req)
}

// HandleContext is Handle under a caller deadline: the context carries
// the exchange's slice of the originator's remaining query deadline
// (on the HTTP server, parsed off the wire; the in-process backend passes
// their query context directly). Handlers whose work scales with the
// list — above, topk, fetch, batch — poll it and abandon the exchange
// with the context's error once the caller is dead, so an owner never
// burns a scan on a query nobody is waiting for. Work already done
// stays done and stays charged, like a batch aborting midway.
func (o *Owner) HandleContext(ctx context.Context, sid string, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r, ok := req.(UpdateReq); ok {
		// Updates are feed-plane, not query-plane: they carry no session
		// (any sid is ignored), fan out to every replica of the list, and
		// must not resolve — or create — per-session protocol state.
		return o.handleUpdate(r)
	}
	s, err := o.session(sid)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return o.dispatch(ctx, s, req)
}

// dispatch routes one request to its handler; the caller holds the
// session mutex.
func (o *Owner) dispatch(ctx context.Context, s *ownerSession, req Request) (Response, error) {
	switch r := req.(type) {
	case SortedReq:
		return o.handleSorted(s, r)
	case LookupReq:
		return o.handleLookup(s, r)
	case ProbeReq:
		return o.handleProbe(s, r)
	case MarkReq:
		return o.handleMark(s, r)
	case TopKReq:
		return o.handleTopK(ctx, s, r)
	case AboveReq:
		return o.handleAbove(ctx, s, r)
	case FetchReq:
		return o.handleFetch(ctx, s, r)
	case BatchReq:
		return o.handleBatch(ctx, s, r)
	case UpdateReq:
		// Reachable only through a batch (HandleContext intercepts bare
		// updates): the feed plane must not ride inside a query session's
		// atomic round, where a replayed batch would defeat the per-feed
		// sequence check.
		return nil, fmt.Errorf("transport: owner %d: updates travel outside query sessions", o.index)
	default:
		return nil, fmt.Errorf("transport: owner %d: unknown request %T", o.index, req)
	}
}

// pollCtx reports the context's error every strideth iteration (i
// counting from anything): the scan handlers' deadline check, cheap
// enough to sit inside per-entry loops.
func pollCtx(ctx context.Context, i int) error {
	const stride = 256
	if i%stride != 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		mOwnerDeadline.Inc()
		return err
	}
	return nil
}

// handleBatch executes a coalesced round's inner requests in order,
// atomically against the session. An inner failure aborts the batch with
// the failing index — work already done stays done (and stays charged),
// exactly as if the messages had traveled one by one and the round had
// aborted midway.
func (o *Owner) handleBatch(ctx context.Context, s *ownerSession, req BatchReq) (Response, error) {
	out := make([]Response, len(req.Reqs))
	for i, r := range req.Reqs {
		if _, ok := r.(BatchReq); ok {
			return nil, fmt.Errorf("transport: owner %d: batches must not nest", o.index)
		}
		if err := ctx.Err(); err != nil {
			mOwnerDeadline.Inc()
			return nil, fmt.Errorf("batch[%d]: %w", i, err)
		}
		resp, err := o.dispatch(ctx, s, r)
		if err != nil {
			return nil, fmt.Errorf("batch[%d]: %w", i, err)
		}
		out[i] = resp
	}
	return BatchResp{Resps: out}, nil
}

// checkPos validates a requested position before it reaches the probe,
// so malformed remote requests surface as errors, not panics.
func (o *Owner) checkPos(p int) error {
	if p < 1 || p > o.n {
		return fmt.Errorf("transport: owner %d: position %d out of range [1,%d]", o.index, p, o.n)
	}
	return nil
}

// checkItem likewise validates an item ID.
func (o *Owner) checkItem(d list.ItemID) error {
	if d < 0 || int(d) >= o.n {
		return fmt.Errorf("transport: owner %d: item %d out of range [0,%d)", o.index, d, o.n)
	}
	return nil
}

// handleSorted serves a sorted access (TA, BPA).
func (o *Owner) handleSorted(s *ownerSession, req SortedReq) (Response, error) {
	if err := o.checkPos(req.Pos); err != nil {
		return nil, err
	}
	return SortedResp{Entry: s.pr.Sorted(0, req.Pos)}, nil
}

// handleLookup serves a random access; the position is shipped only when
// requested (BPA yes, TA no).
func (o *Owner) handleLookup(s *ownerSession, req LookupReq) (Response, error) {
	if err := o.checkItem(req.Item); err != nil {
		return nil, err
	}
	sc, p := s.pr.Random(0, req.Item)
	if req.WantPos {
		return LookupResp{Score: sc, Pos: p, HasPos: true}, nil
	}
	return LookupResp{Score: sc}, nil
}

// bestState reports the session's current best-position score and
// whether the list is fully seen (BPA2 piggyback).
func (o *Owner) bestState(s *ownerSession) (bestScore float64, exhausted bool) {
	bp := s.tr.Best()
	if bp == 0 {
		// Position 1 unseen: no information yet. +Inf is the neutral
		// upper bound under any monotone scoring function.
		return math.Inf(1), false
	}
	// The score at the best position was seen within this session;
	// reading it locally is not a new access (paper Section 4.1).
	return o.db.List(0).At(bp).Score, bp >= o.n
}

// handleProbe serves BPA2's direct access to the first unseen position.
func (o *Owner) handleProbe(s *ownerSession, _ ProbeReq) (Response, error) {
	p := s.tr.Best() + 1
	if p > o.n {
		// Defensive: the originator tracks exhaustion and stops probing;
		// answer with the piggyback only.
		best, _ := o.bestState(s)
		return ProbeResp{BestScore: best, Exhausted: true, Empty: true}, nil
	}
	e := s.pr.Direct(0, p)
	s.tr.MarkSeen(p)
	best, exhausted := o.bestState(s)
	return ProbeResp{Entry: e, BestScore: best, Exhausted: exhausted, Pos: p}, nil
}

// handleMark serves BPA2's random access: the owner resolves the item,
// records its position in the session's tracker, and returns score plus
// piggyback. The item's position stays at the owner.
func (o *Owner) handleMark(s *ownerSession, req MarkReq) (Response, error) {
	if err := o.checkItem(req.Item); err != nil {
		return nil, err
	}
	sc, p := s.pr.Random(0, req.Item)
	s.tr.MarkSeen(p)
	best, exhausted := o.bestState(s)
	return MarkResp{Score: sc, BestScore: best, Exhausted: exhausted, Pos: p}, nil
}

// handleTopK serves TPUT phase 1: the owner reads its K best entries.
func (o *Owner) handleTopK(ctx context.Context, s *ownerSession, req TopKReq) (Response, error) {
	if err := o.checkPos(req.K); err != nil {
		return nil, err
	}
	out := make([]list.Entry, req.K)
	for p := 1; p <= req.K; p++ {
		if err := pollCtx(ctx, p); err != nil {
			return nil, err
		}
		out[p-1] = s.pr.Sorted(0, p)
	}
	s.depth = req.K
	return TopKResp{Entries: out}, nil
}

// scoreSeeker is the optional fast path of the above scan: stripe-backed
// lists resolve the first position whose score falls strictly below a
// threshold by fence-pointer binary search, without loading a single
// block (see internal/store/stripe and ROADMAP 3c).
type scoreSeeker interface {
	SeekScore(t float64) int
}

// handleAbove serves TPUT phase 2: the owner continues its scan past the
// already-sent prefix and returns every entry with score >= T. The read
// that discovers the first score below T is charged — it was performed.
// The deadline poll sits inside the loop because this is the one
// handler whose work can span a whole list tail.
//
// On seek-capable lists the cutoff — the position of that charged
// terminating read — is known up front from the fence index, which
// bounds the scan without touching a block past it and sizes the reply
// exactly. Every read the plain loop would perform still happens, in
// the same order, through the same probe, so the accounting is
// identical by construction (the stripe parity suite pins this).
func (o *Owner) handleAbove(ctx context.Context, s *ownerSession, req AboveReq) (Response, error) {
	if sk, ok := o.db.List(0).(scoreSeeker); ok {
		cut := sk.SeekScore(req.T) // first position with score < T; n+1 when none
		start := s.depth + 1
		end := cut
		if end > o.n {
			end = o.n
		}
		if end < start && start <= o.n {
			// The whole tail is below T: the plain loop still performs
			// (and charges) the one read that discovers it.
			end = start
		}
		var out []list.Entry
		if last := min(cut-1, o.n); last >= start {
			out = make([]list.Entry, 0, last-start+1)
		}
		for p := start; p <= end; p++ {
			if err := pollCtx(ctx, p); err != nil {
				return nil, err
			}
			e := s.pr.Sorted(0, p)
			s.depth = p
			if p < cut {
				out = append(out, e)
			}
		}
		return AboveResp{Entries: out}, nil
	}
	var out []list.Entry
	for p := s.depth + 1; p <= o.n; p++ {
		if err := pollCtx(ctx, p); err != nil {
			return nil, err
		}
		e := s.pr.Sorted(0, p)
		s.depth = p
		if e.Score < req.T {
			break
		}
		out = append(out, e)
	}
	return AboveResp{Entries: out}, nil
}

// handleUpdate applies one feed-plane update batch. After the per-feed
// sequence check — a batch at or below the feed's last applied sequence
// is acknowledged without being re-applied, the idempotency that makes
// client retries and backpressure re-sends safe — the deltas are
// applied atomically to the mutable list, and every standing-query
// filter decides whether the batch is a potential top-k crossing worth
// notifying the coordinator about. Crossing names are sorted so wire
// frames are deterministic.
func (o *Owner) handleUpdate(req UpdateReq) (Response, error) {
	if o.mut == nil {
		return nil, fmt.Errorf("transport: owner %d: %w", o.index, ErrReadOnly)
	}
	if req.Feed == "" {
		return nil, fmt.Errorf("transport: owner %d: update without a feed name", o.index)
	}
	ups := make([]list.Update, len(req.Updates))
	for i, u := range req.Updates {
		ups[i] = list.Update{Item: u.Item, Delta: u.Delta}
	}
	o.liveMu.Lock()
	defer o.liveMu.Unlock()
	if last, ok := o.feeds[req.Feed]; ok && req.Seq <= last {
		return UpdateResp{Applied: false, Version: o.mut.Version()}, nil
	}
	version, err := o.mut.Apply(ups)
	if err != nil {
		return nil, fmt.Errorf("transport: owner %d: %w", o.index, err)
	}
	o.feeds[req.Feed] = req.Seq
	var crossings []string
	for name, f := range o.filters {
		if f.crossed(ups) {
			crossings = append(crossings, name)
		}
	}
	sort.Strings(crossings)
	return UpdateResp{Applied: true, Version: version, Crossings: crossings}, nil
}

// handleFetch serves TPUT phase 3: exact scores for the listed items.
func (o *Owner) handleFetch(ctx context.Context, s *ownerSession, req FetchReq) (Response, error) {
	out := make([]float64, len(req.Items))
	for j, d := range req.Items {
		if err := pollCtx(ctx, j); err != nil {
			return nil, err
		}
		if err := o.checkItem(d); err != nil {
			return nil, err
		}
		out[j], _ = s.pr.Random(0, d)
	}
	return FetchResp{Scores: out}, nil
}
