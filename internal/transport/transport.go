// Package transport carries the distributed top-k protocols' messages
// between the query originator and the list owner nodes. It factors the
// paper's Section 5 setting into two halves:
//
//   - the message vocabulary (sorted, lookup, probe, mark, topk, above,
//     fetch — one response type per request type) and the owner-side
//     handlers serving it (Owner), shared by every backend;
//   - the Transport interface, the originator's view of the network,
//     with two interchangeable backends.
//
// # Sessions
//
// Every query execution runs inside a Session: Transport.Open generates
// a unique query/session ID keyed to fresh owner-side protocol state
// (seen-position tracker, access tally, scan cursor) and returns the
// originator's handle. Loopback installs the state at every owner up
// front; the HTTP backend sends nothing at Open, and a replica installs
// it when the session's first exchange reaches it. The ID travels with
// every message, so one owner — and one shared Transport — serves any
// number of concurrent originators without their state interleaving;
// sessions only serialize against themselves. Session.Close releases the
// owner-side state.
//
// Every exchange takes a context.Context: cancellation and deadlines are
// honored between (and, on the HTTP backend, during) exchanges, so an
// originator can abandon an in-flight query at per-access granularity.
//
// # Backends
//
//   - Loopback: deterministic in-process delivery, requests served
//     inline in call order — the simulation backend and bit-exact
//     reference behaviour. NewLatencyLoopback adds an injectable latency
//     model and a per-session virtual clock on which a DoAll batch costs
//     the max, not the sum, of its owners' round-trips — the effect that
//     makes fewer-rounds designs (BPA2, TPUT) measurable.
//   - HTTP: a real owner server (one list per process, binary wire
//     codec) and an originator client, the backing of cmd/topk-owner and
//     topk-query's -owners cluster mode: replica topologies with routing,
//     failover and session handoff, per-attempt timeouts, jittered
//     retries, circuit breakers and owner backpressure.
//
// Protocol answers, traffic accounting and access counts are identical
// across backends by construction: the owner handlers are the same code,
// and the payload charged per message is a pure function of the message
// content (Request.RequestScalars, Response.ResponseScalars). Only
// Elapsed — the wall-clock measure — is backend-specific.
package transport

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync/atomic"
	"time"

	"topk/internal/bestpos"
)

// Call addresses one request to one owner, for batched delivery.
type Call struct {
	Owner int
	Req   Request
}

// Transport is the originator's view of the owner nodes. A Transport is
// shared infrastructure: any number of query sessions may be open on it
// concurrently, each with independent owner-side state.
type Transport interface {
	// M returns the number of owners (lists).
	M() int
	// N returns the shared list length.
	N() int
	// Open starts a new query session: a fresh seen-position tracker of
	// the given kind, a zeroed access tally and scan cursor at every
	// owner, all keyed by a new unique session ID — installed up front
	// or by the session's first exchange with each owner, as the backend
	// chooses. Control-plane: not charged to traffic accounting.
	Open(ctx context.Context, tracker bestpos.Kind) (Session, error)
	// Close releases backend resources. Open sessions become unusable.
	Close() error
}

// Session is one query execution's private channel to the owners.
// Implementations must serve calls addressed to the same owner in
// submission order (the owner-side protocol state of BPA2 and TPUT
// depends on it); calls to distinct owners are independent and may
// proceed in parallel. A Session is driven by one query execution at a
// time; distinct sessions of the same Transport are fully independent.
type Session interface {
	// ID returns the session's unique identifier — the key of the
	// owner-side state, carried in every message.
	ID() string
	// Do performs one request/response exchange with an owner. A
	// canceled or expired ctx aborts with ctx.Err().
	Do(ctx context.Context, owner int, req Request) (Response, error)
	// DoAll performs the calls — concurrently where the backend supports
	// it — and returns the responses in call order. It fails on the
	// first error (including ctx cancellation), after all in-flight
	// dispatch has drained; no goroutines are leaked.
	DoAll(ctx context.Context, calls []Call) ([]Response, error)
	// Stats reports an owner's bookkeeping for this session (accesses,
	// tracker best position, scan depth, list metadata). Control-plane:
	// not charged; the HTTP session answers from the receipts it holds,
	// without a wire call.
	Stats(ctx context.Context, owner int) (OwnerStats, error)
	// Elapsed returns the session's cumulative wall-clock measure: the
	// latency model's virtual time on Loopback (zero without a model),
	// real time spent in exchanges on HTTP.
	Elapsed() time.Duration
	// Close releases the session's owner-side state. Idempotent,
	// best-effort: owners evict the state even if the originator never
	// calls it only when the process ends.
	Close() error
}

// sessionCounter disambiguates session IDs generated in the same
// process (the random prefix already makes cross-process collisions
// negligible).
var sessionCounter atomic.Uint64

// NewSessionID returns a unique query/session ID: 8 random bytes plus a
// process-local counter, so concurrent originators — in one process or
// many — never collide.
func NewSessionID() string {
	var b [8]byte
	_, _ = rand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b[:]) + "-" + strconv.FormatUint(sessionCounter.Add(1), 16)
}
