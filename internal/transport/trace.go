package transport

import (
	"sync"
	"time"
)

// Span is one wire exchange as a traced query saw it: which owner and
// replica served it, what traveled, how long it took, and whether the
// recovery machinery (retries, failover, handoff) had to step in. The
// dist runner stamps the protocol round; the transport backends fill
// in everything else at the point where the exchange actually runs —
// the only place that knows the chosen replica and the wire bytes.
type Span struct {
	// Seq is the record order (0-based). Within a fanned-out round the
	// completion order is scheduling-dependent; Seq reflects it.
	Seq int `json:"seq"`
	// Round is the protocol round the exchange belongs to, 1-based,
	// as counted by Net.Rounds. 0 for exchanges outside any round.
	Round int `json:"round"`
	// Owner is the list index addressed.
	Owner int `json:"owner"`
	// Replica is the replica index within the list's replica set that
	// answered; -1 for the in-process backend, which has no replicas.
	Replica int `json:"replica"`
	// URL is the answering replica's base URL; "loopback" for the
	// in-process backend.
	URL string `json:"url"`
	// Kind is the wire message kind ("batch" for a coalesced round).
	Kind Kind `json:"kind"`
	// Msgs is the logical message count: the batch length for a
	// coalesced exchange, 1 otherwise. Summed over a query's spans it
	// reconciles with Net.Messages.
	Msgs int `json:"msgs"`
	// ReqBytes and RespBytes are the encoded wire sizes; zero on the
	// in-process backend, which never serializes.
	ReqBytes  int `json:"req_bytes"`
	RespBytes int `json:"resp_bytes"`
	// Duration is the exchange's cost: real round-trip time (including
	// retries and failover) on HTTP, the latency model's virtual cost on
	// a latency Loopback, real handler time on a plain one.
	Duration time.Duration `json:"duration"`
	// Attempts is the number of wire attempts spent (1 = clean).
	Attempts int `json:"attempts"`
	// FailedOver marks an exchange answered by a different replica
	// than first targeted; Handoff marks a sessionful exchange that
	// re-pinned the session to its synced mirror mid-flight.
	FailedOver bool `json:"failed_over,omitempty"`
	Handoff    bool `json:"handoff,omitempty"`
	// Err is the terminal error of a failed exchange, "" on success.
	Err string `json:"err,omitempty"`
}

// SpanRecorder collects the spans of one traced query. Safe for
// concurrent use: DoAll fan-outs record from one goroutine per list.
// The round is stamped by whoever drives the protocol (the dist
// runner) via SetRound; recording sites never know it.
type SpanRecorder struct {
	mu    sync.Mutex
	round int
	spans []Span
}

// NewSpanRecorder returns an empty recorder.
func NewSpanRecorder() *SpanRecorder { return &SpanRecorder{} }

// SetRound stamps subsequent spans with protocol round n.
func (r *SpanRecorder) SetRound(n int) {
	r.mu.Lock()
	r.round = n
	r.mu.Unlock()
}

// Record appends one span, assigning its Seq and the current round.
func (r *SpanRecorder) Record(sp Span) {
	r.mu.Lock()
	sp.Seq = len(r.spans)
	sp.Round = r.round
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// Spans returns the recorded spans in record order. The returned slice
// is a copy; the recorder may keep recording.
func (r *SpanRecorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SpanRecording is the optional Session capability the dist runner
// uses to arm tracing: a session that implements it records one Span
// per wire exchange into the given recorder (nil disarms). Both
// backends implement it. Arm before the first exchange — the field is
// read without synchronization on the data plane.
type SpanRecording interface {
	SetSpanRecorder(*SpanRecorder)
}

// logicalMessages is a request's logical message count: the batch
// length for a coalesced round, 1 otherwise — the unit Net.Messages
// charges.
func logicalMessages(req Request) int {
	if b, ok := req.(BatchReq); ok {
		return len(b.Reqs)
	}
	return 1
}

// errString renders an exchange error for a Span.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
