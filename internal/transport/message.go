package transport

import (
	"fmt"

	"topk/internal/list"
)

// Kind names a request type. It doubles as the wire tag of the HTTP
// backend: a request of kind k travels as a POST to /rpc/k.
type Kind string

const (
	KindSorted Kind = "sorted"
	KindLookup Kind = "lookup"
	KindProbe  Kind = "probe"
	KindMark   Kind = "mark"
	KindTopK   Kind = "topk"
	KindAbove  Kind = "above"
	KindFetch  Kind = "fetch"
	KindBatch  Kind = "batch"
	KindUpdate Kind = "update"
)

// Request is one originator-to-owner message. RequestScalars is the
// number of variable-length scalar values the request carries beyond its
// fixed-size header fields — only batched requests (fetch item lists)
// carry any; single positions, item IDs and thresholds are header-sized.
//
// Sessionful reports whether serving the request reads or writes
// per-session owner-side protocol state beyond the access tally: the
// seen-position tracker (probe, mark) or the scan-depth cursor (topk,
// above). Replicas of a list serve the same data but do NOT share
// session state, so sessionful traffic sticks to one replica per list —
// the replica-aware HTTP client pins it, and only stateless requests
// (sorted, lookup, fetch) fail over between replicas mid-query.
//
// Every request may be re-sent after a failure under one rule: a
// stateless one as it is, a sessionful one after the session's state
// is restored at the replica (see Owner.SyncSession), which rolls back
// whatever the failed attempt applied. Accounting is unaffected either
// way: every topology reports each acknowledged exchange once, from the
// receipt its owner returned (see Receipt), never the attempt whose
// response was lost.
type Request interface {
	Kind() Kind
	RequestScalars() int
	Sessionful() bool
}

// Response is one owner-to-originator message. ResponseScalars is the
// number of scalar values (items, scores, positions) it carries; the
// protocols charge it to their payload accounting, so it must be a pure
// function of the response content — identical across backends.
type Response interface {
	ResponseScalars() int
}

// SortedReq asks an owner for the entry at sorted position Pos (TA, BPA).
type SortedReq struct {
	Pos int
}

func (SortedReq) Kind() Kind          { return KindSorted }
func (SortedReq) RequestScalars() int { return 0 }

// Sessionful: NO — a positional read touches no session cursor.
func (SortedReq) Sessionful() bool { return false }

// SortedResp returns the entry; the position is implied by the request.
type SortedResp struct {
	Entry list.Entry
}

// ResponseScalars: item and score.
func (SortedResp) ResponseScalars() int { return 2 }

// LookupReq asks an owner for a random-access lookup of Item. WantPos
// requests the item's position too (BPA ships positions, TA does not).
type LookupReq struct {
	Item    list.ItemID
	WantPos bool
}

func (LookupReq) Kind() Kind          { return KindLookup }
func (LookupReq) RequestScalars() int { return 0 }

// Sessionful: NO — a lookup touches no session cursor.
func (LookupReq) Sessionful() bool { return false }

// LookupResp returns the local score, plus the position iff requested
// (HasPos mirrors the request's WantPos, so the charged payload is a
// function of the response alone).
type LookupResp struct {
	Score  float64
	Pos    int
	HasPos bool
}

// ResponseScalars: the score, plus the position when shipped.
func (r LookupResp) ResponseScalars() int {
	if r.HasPos {
		return 2
	}
	return 1
}

// ProbeReq asks a BPA2 owner to read its first unseen position.
type ProbeReq struct{}

func (ProbeReq) Kind() Kind          { return KindProbe }
func (ProbeReq) RequestScalars() int { return 0 }

// Sessionful: YES — the probe cursor lives on one replica.
func (ProbeReq) Sessionful() bool { return true }

// ProbeResp returns the probed entry plus the owner's piggybacked
// best-position state.
type ProbeResp struct {
	Entry list.Entry
	// BestScore is the score at the owner's current best position
	// (+Inf before the owner has seen position 1).
	BestScore float64
	// Exhausted reports that every position of the list has been seen;
	// the originator stops probing this owner.
	Exhausted bool
	// Empty reports that the owner had nothing left to probe and the
	// response carries the piggyback only (defensive: the originator
	// tracks exhaustion and normally never probes an exhausted owner).
	Empty bool
}

// ResponseScalars: item, score and best-position score — or only the
// piggyback when there was nothing to probe.
func (r ProbeResp) ResponseScalars() int {
	if r.Empty {
		return 1
	}
	return 3
}

// MarkReq asks a BPA2 owner to resolve Item and record its position in
// the owner-side tracker.
type MarkReq struct {
	Item list.ItemID
}

func (MarkReq) Kind() Kind          { return KindMark }
func (MarkReq) RequestScalars() int { return 0 }

// Sessionful: YES — the mark lands in one replica's tracker, which the
// session's future probes depend on.
func (MarkReq) Sessionful() bool { return true }

// MarkResp returns the local score plus the piggybacked best-position
// state. The item's position stays at the owner.
type MarkResp struct {
	Score     float64
	BestScore float64
	Exhausted bool
}

// ResponseScalars: score and best-position score.
func (MarkResp) ResponseScalars() int { return 2 }

// TopKReq asks an owner for its K highest entries (TPUT phase 1).
type TopKReq struct {
	K int
}

func (TopKReq) Kind() Kind          { return KindTopK }
func (TopKReq) RequestScalars() int { return 0 }

// Sessionful: YES — it sets the scan depth the session's above-scan
// continues from, on one replica.
func (TopKReq) Sessionful() bool { return true }

// TopKResp returns the owner's top-K entries in list order.
type TopKResp struct {
	Entries []list.Entry
}

// ResponseScalars: item and score per entry.
func (r TopKResp) ResponseScalars() int { return 2 * len(r.Entries) }

// AboveReq asks an owner for every entry below its already-sent prefix
// with score at least T (TPUT phase 2).
type AboveReq struct {
	T float64
}

func (AboveReq) Kind() Kind          { return KindAbove }
func (AboveReq) RequestScalars() int { return 0 }

// Sessionful: YES — the depth cursor lives on one replica.
func (AboveReq) Sessionful() bool { return true }

// AboveResp returns the matching entries in list order.
type AboveResp struct {
	Entries []list.Entry
}

// ResponseScalars: item and score per entry.
func (r AboveResp) ResponseScalars() int { return 2 * len(r.Entries) }

// FetchReq asks an owner for the exact local scores of Items (TPUT
// phase 3). The item batch is variable-length, so it is charged as
// request payload.
type FetchReq struct {
	Items []list.ItemID
}

func (FetchReq) Kind() Kind            { return KindFetch }
func (r FetchReq) RequestScalars() int { return len(r.Items) }

// Sessionful: NO — exact-score lookups touch no session cursor.
func (FetchReq) Sessionful() bool { return false }

// FetchResp returns the scores in request order.
type FetchResp struct {
	Scores []float64
}

// ResponseScalars: one score per requested item.
func (r FetchResp) ResponseScalars() int { return len(r.Scores) }

// ScoreUpdate is one (item, delta) local-score change carried by an
// update message.
type ScoreUpdate struct {
	Item  list.ItemID
	Delta float64
}

// UpdateReq applies a batch of score updates to the owner's list — the
// live subsystem's ingestion message. Feed names the update stream and
// Seq is the feed's monotone sequence number: an owner remembers the
// highest Seq it applied per feed and acknowledges (without reapplying)
// anything at or below it, so retries and backpressure re-sends are
// idempotent by construction. The update batch is variable-length and is
// charged as request payload.
type UpdateReq struct {
	Feed    string
	Seq     uint64
	Updates []ScoreUpdate
}

func (UpdateReq) Kind() Kind { return KindUpdate }

// RequestScalars: item and delta per update.
func (r UpdateReq) RequestScalars() int { return 2 * len(r.Updates) }

// Sessionful: NO — updates target the owner's list (feed-plane state
// shared by every query), not any query session's cursor. They fan out
// to every replica of a list rather than pinning to one.
func (UpdateReq) Sessionful() bool { return false }

// UpdateResp acknowledges an update batch. Version is the owner's
// per-list version after the batch (piggybacked so coordinators can
// detect staleness without a second exchange); Applied is false when the
// batch was a duplicate the sequence number suppressed. Crossings names
// the standing queries whose installed filter thresholds the batch
// crossed — the Mäcker-style notification signal: an empty Crossings
// means the owner certifies the batch cannot have changed those queries'
// global top-k.
type UpdateResp struct {
	Applied   bool
	Version   uint64
	Crossings []string
}

// ResponseScalars: the version scalar plus one crossing flag per
// notified query.
func (r UpdateResp) ResponseScalars() int { return 1 + len(r.Crossings) }

// BatchReq coalesces several independent logical requests for one owner
// into a single wire exchange — the round-coalescing that collapses a
// protocol round's per-owner fan-out (TA/BPA's m-1 lookups per owner)
// into one POST per owner on the HTTP backend, and into one priced
// exchange under a latency Loopback's virtual clock. The owner
// executes the inner requests in order, atomically against one session
// (the session mutex is held across the whole batch), and answers with a
// BatchResp whose responses are in request order.
//
// A batch is a wire vehicle, not a protocol message: traffic accounting
// (Net.Messages, Net.Payload, Net.PerOwner) is charged from the logical
// inner messages by the originator, so coalescing cannot perturb the
// paper's cost metrics. Batches must not nest.
type BatchReq struct {
	Reqs []Request
}

func (BatchReq) Kind() Kind { return KindBatch }

// RequestScalars: the sum over the inner requests — a latency model that
// prices payload sees exactly the scalars that travel.
func (b BatchReq) RequestScalars() int {
	n := 0
	for _, r := range b.Reqs {
		n += r.RequestScalars()
	}
	return n
}

// Sessionful: when any inner request is — a batch carrying one
// cursor-touching member must travel to the session's pinned replica.
func (b BatchReq) Sessionful() bool {
	for _, r := range b.Reqs {
		if r.Sessionful() {
			return true
		}
	}
	return false
}

// BatchResp carries the inner responses in request order.
type BatchResp struct {
	Resps []Response
}

// ResponseScalars: the sum over the inner responses.
func (b BatchResp) ResponseScalars() int {
	n := 0
	for _, r := range b.Resps {
		n += r.ResponseScalars()
	}
	return n
}

// responseKind maps a response to the kind of the request it answers —
// the tag the binary codec frames it under.
func responseKind(resp Response) (Kind, error) {
	switch resp.(type) {
	case SortedResp:
		return KindSorted, nil
	case LookupResp:
		return KindLookup, nil
	case ProbeResp:
		return KindProbe, nil
	case MarkResp:
		return KindMark, nil
	case TopKResp:
		return KindTopK, nil
	case AboveResp:
		return KindAbove, nil
	case FetchResp:
		return KindFetch, nil
	case UpdateResp:
		return KindUpdate, nil
	case BatchResp:
		return KindBatch, nil
	default:
		return "", fmt.Errorf("transport: unknown response type %T", resp)
	}
}
