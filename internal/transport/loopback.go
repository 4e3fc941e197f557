package transport

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"topk/internal/bestpos"
	"topk/internal/list"
)

// Latency models one request/response round-trip with an owner. It sees
// the response too, so models can price payload size. It must be
// deterministic: the simulated wall-clock is part of reproducible
// experiment output.
type Latency func(owner int, req Request, resp Response) time.Duration

// ConstantLatency charges every exchange the same round-trip time.
func ConstantLatency(rtt time.Duration) Latency {
	return func(int, Request, Response) time.Duration { return rtt }
}

// PerOwnerLatency charges each owner its own round-trip time —
// heterogeneous links (e.g. one remote datacenter among local owners).
func PerOwnerLatency(rtt []time.Duration) Latency {
	return func(owner int, _ Request, _ Response) time.Duration { return rtt[owner] }
}

// LinkLatency charges a fixed round-trip time plus a per-scalar transfer
// cost, so batched responses (TPUT's entry lists) pay for their size.
func LinkLatency(rtt, perScalar time.Duration) Latency {
	return func(_ int, req Request, resp Response) time.Duration {
		return rtt + time.Duration(req.RequestScalars()+resp.ResponseScalars())*perScalar
	}
}

// Loopback is the in-process backend: every exchange is a direct method
// call on the owner, served inline in call order. Deterministic and
// allocation-light — the default for simulation, tests and the DHT
// overlay pricing. Sessions make it safe to drive several queries over
// one Loopback concurrently, though each session is itself sequential.
//
// With a latency model (NewLatencyLoopback) each session also runs a
// virtual clock that prices the owners as if they served a round
// concurrently: a lone exchange costs its modeled round-trip, and a
// DoAll batch costs the maximum over owners of each owner's summed
// exchange costs, never the sum over all owners. The clock is a pure
// function of (owner, request, response), so sweeping 1ms..50ms links
// costs no real sleeping and no goroutines.
type Loopback struct {
	owners []*Owner
	n      int
	lat    Latency // nil: no virtual clock (Elapsed stays zero)
}

// NewLoopback builds one in-process owner per list of db, without a
// latency model: sessions report zero Elapsed.
func NewLoopback(db *list.Database) (*Loopback, error) {
	return NewLatencyLoopback(db, nil)
}

// NewLatencyLoopback is NewLoopback with a virtual clock priced by lat
// (see Loopback). A nil lat behaves exactly like NewLoopback.
func NewLatencyLoopback(db *list.Database, lat Latency) (*Loopback, error) {
	if db == nil {
		return nil, fmt.Errorf("transport: nil database")
	}
	t := &Loopback{owners: make([]*Owner, db.M()), n: db.N(), lat: lat}
	for i := range t.owners {
		o, err := NewOwner(db, i)
		if err != nil {
			return nil, err
		}
		t.owners[i] = o
	}
	return t, nil
}

// M returns the number of owners.
func (t *Loopback) M() int { return len(t.owners) }

// N returns the shared list length.
func (t *Loopback) N() int { return t.n }

// checkOwner validates an owner index.
func (t *Loopback) checkOwner(owner int) error {
	if owner < 0 || owner >= len(t.owners) {
		return fmt.Errorf("transport: owner %d out of range [0,%d)", owner, len(t.owners))
	}
	return nil
}

// Open starts a query session at every owner.
func (t *Loopback) Open(ctx context.Context, tracker bestpos.Kind) (Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sid := NewSessionID()
	for _, o := range t.owners {
		if err := o.Open(sid, tracker); err != nil {
			t.closeSession(sid) // roll back the owners already opened
			return nil, err
		}
	}
	return &loopbackSession{t: t, sid: sid, seq: make([]uint64, len(t.owners))}, nil
}

// closeSession releases a session at every owner (idempotent per owner).
func (t *Loopback) closeSession(sid string) {
	for _, o := range t.owners {
		o.CloseSession(sid)
	}
}

// Close is a no-op: loopback owners hold no external resources.
func (t *Loopback) Close() error { return nil }

// loopbackSession serves one query's exchanges inline.
type loopbackSession struct {
	t   *Loopback
	sid string

	// elapsed is the virtual clock in nanoseconds (latency model only).
	elapsed atomic.Int64

	// seq[i] counts the sessionful exchanges owner i applied; the next
	// passes the owner's sequence fence as seq[i]+1, as over HTTP.
	seq []uint64

	// rec collects per-exchange trace spans when armed (SpanRecording).
	rec *SpanRecorder
}

// ID returns the session ID.
func (s *loopbackSession) ID() string { return s.sid }

// SetSpanRecorder arms (or, with nil, disarms) per-exchange tracing.
func (s *loopbackSession) SetSpanRecorder(r *SpanRecorder) { s.rec = r }

// serve runs one exchange inline and prices it: the latency model's
// cost, or zero without one. A canceled ctx aborts before the owner is
// touched. Traced spans carry the modeled cost under a latency model and
// the real handler time otherwise.
func (s *loopbackSession) serve(ctx context.Context, owner int, req Request) (Response, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if err := s.t.checkOwner(owner); err != nil {
		return nil, 0, err
	}
	var seq uint64
	if req.Sessionful() {
		seq = s.seq[owner] + 1
	}
	var start time.Time
	if s.rec != nil {
		start = time.Now()
	}
	resp, _, err := s.t.owners[owner].exchange(ctx, s.sid, seq, req)
	if err == nil && seq != 0 {
		s.seq[owner] = seq
	}
	var cost time.Duration
	if err == nil && s.t.lat != nil {
		cost = s.t.lat(owner, req, resp)
	}
	if s.rec != nil {
		d := cost
		if s.t.lat == nil {
			d = time.Since(start)
		}
		// In-process: no replica, no serialization — replica -1, zero bytes.
		s.rec.Record(Span{Owner: owner, Replica: -1, URL: "loopback", Kind: req.Kind(),
			Msgs: logicalMessages(req), Duration: d, Attempts: 1, Err: errString(err)})
	}
	return resp, cost, err
}

// Do performs one exchange; the virtual clock advances by its cost.
func (s *loopbackSession) Do(ctx context.Context, owner int, req Request) (Response, error) {
	resp, cost, err := s.serve(ctx, owner, req)
	if err != nil {
		return nil, err
	}
	s.elapsed.Add(int64(cost))
	return resp, nil
}

// DoAll serves the calls sequentially in order. The virtual clock
// advances by the slowest owner's summed cost — the batch is as slow as
// its busiest owner, not as the sum of all owners — and only when the
// whole batch succeeded.
func (s *loopbackSession) DoAll(ctx context.Context, calls []Call) ([]Response, error) {
	out := make([]Response, len(calls))
	var perOwner map[int]time.Duration
	if s.t.lat != nil {
		perOwner = make(map[int]time.Duration)
	}
	for i, c := range calls {
		resp, cost, err := s.serve(ctx, c.Owner, c.Req)
		if err != nil {
			return nil, err
		}
		out[i] = resp
		if perOwner != nil {
			perOwner[c.Owner] += cost
		}
	}
	var slowest time.Duration
	for _, d := range perOwner {
		slowest = max(slowest, d)
	}
	s.elapsed.Add(int64(slowest))
	return out, nil
}

// Stats reports an owner's bookkeeping for this session.
func (s *loopbackSession) Stats(ctx context.Context, owner int) (OwnerStats, error) {
	if err := ctx.Err(); err != nil {
		return OwnerStats{}, err
	}
	if err := s.t.checkOwner(owner); err != nil {
		return OwnerStats{}, err
	}
	return s.t.owners[owner].SessionStats(s.sid)
}

// Elapsed returns the session's virtual clock: zero without a latency
// model, since loopback delivery is instantaneous.
func (s *loopbackSession) Elapsed() time.Duration { return time.Duration(s.elapsed.Load()) }

// Close releases the session's owner-side state.
func (s *loopbackSession) Close() error {
	s.t.closeSession(s.sid)
	return nil
}
