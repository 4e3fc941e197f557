// Package dist implements the distributed top-k protocols of the paper's
// Section 5 ("BPA in a distributed system") together with baselines from
// the literature: the Threshold Algorithm run over the network (Fagin,
// Lotem, Naor, "Optimal Aggregation Algorithms for Middleware") and the
// Three Phase Uniform Threshold algorithm TPUT (Cao & Wang, PODC 2004),
// plus TPUT's adaptive-threshold refinement TPUTA.
//
// The setting is the paper's: each of the m sorted lists lives at its own
// owner node, and a query originator exchanges explicit request/response
// messages with the owners — it never touches a list directly. The
// message vocabulary and the owner nodes live in internal/transport; the
// protocols here drive any transport.Transport, so the same originator
// code runs over the deterministic in-process backend (Loopback, with an
// optional latency model whose virtual clock prices each round's owners
// as serving concurrently) and real HTTP owners.
// Every list access goes through an access.Probe at the owner (so the
// paper's access metrics fall out by construction), and every message
// and every response scalar is tallied in Result.Net — what travels, or
// would travel, over the network. Answers, Net and access accounting are
// identical across backends; only Result.Elapsed (the wall-clock measure)
// is backend-specific.
//
// Every run executes inside its own transport session, so any number of
// originators can drive queries over one shared Transport concurrently
// without their owner-side state interleaving. The *Over drivers take a
// context.Context, checked before every exchange: a canceled or expired
// ctx aborts the run with ctx.Err() at per-access granularity and
// releases the owner-side session.
//
// The protocols:
//
//   - TA: every sorted and random access becomes one request/response
//     exchange, i.e. two messages per access.
//   - BPA: like TA, but lookup responses also ship the position of the
//     item in the owner's list, and the originator maintains the best
//     position of every list — the design Section 5 improves on, with
//     the position payload as its distributed overhead.
//   - BPA2: the paper's Section 5 protocol. Each owner manages its own
//     seen positions and, on request, probes its first unseen position
//     directly; the originator keeps only the answer set Y and the m
//     best-position scores, which every response piggybacks. Seen
//     positions never travel.
//   - TPUT: three fixed phases (top-k fetch, uniform-threshold scan,
//     candidate resolution). Requires Sum scoring over non-negative
//     scores; the other protocols take any monotone scoring function.
//   - TPUTA: TPUT with the phase-2 threshold split adaptively across
//     the lists using the phase-1 boundary scores instead of uniformly.
//
// All protocols return the exact top-k answers; they differ in message
// count, payload, access profile and round count.
package dist

import (
	"context"
	"fmt"
	"math"
	"time"

	"topk/internal/access"
	"topk/internal/bestpos"
	"topk/internal/list"
	"topk/internal/rank"
	"topk/internal/score"
	"topk/internal/transport"
)

// inf is the neutral "no information" best-position score: an upper
// bound under any monotone scoring function.
var inf = math.Inf(1)

// Options configures a distributed top-k execution.
type Options struct {
	// K is the number of answers requested; 1 <= K <= n.
	K int
	// Scoring is the monotone overall-score function f. TPUT and TPUTA
	// require score.Sum.
	Scoring score.Func
	// Tracker selects the best-position structure used by BPA (at the
	// originator) and BPA2 (at the list owners). The zero value is the
	// bit array, matching the paper's evaluation.
	Tracker bestpos.Kind
	// Trace records one transport.Span per wire exchange into
	// Result.Trace: round, owner, replica, kind, logical messages,
	// bytes, duration and the recovery annotations. Off by default —
	// tracing allocates per exchange, and the paper's accounting (Net,
	// Accesses) is identical either way.
	Trace bool
}

// validate mirrors core's Options.validate for the distributed setting;
// n is the shared list length reported by the transport.
func (o Options) validate(n int) error {
	if o.Scoring == nil {
		return fmt.Errorf("dist: nil scoring function")
	}
	if o.K < 1 || o.K > n {
		return fmt.Errorf("dist: k=%d out of range [1,%d]", o.K, n)
	}
	return nil
}

// Net tallies the network traffic of a run.
type Net struct {
	// Messages counts point-to-point logical messages; a request/response
	// exchange is two. Every message travels between the originator and
	// one owner, so Messages is always the sum of PerOwner. Coalescing
	// several logical messages into one wire exchange (see Exchanges)
	// never changes this tally — it is the paper's cost metric.
	Messages int64
	// Payload counts the scalar values (items, scores, positions)
	// carried in responses, plus variable-length request batches (TPUT's
	// phase-3 item lists). Fixed-size request fields — a position, an
	// item ID, a threshold — are priced as message headers, not payload.
	Payload int64
	// Rounds counts protocol rounds: sorted-access depths for TA/BPA,
	// probe rounds for BPA2, and the three phases for TPUT/TPUTA.
	Rounds int
	// Exchanges counts wire request/response round-trips after per-round
	// coalescing: a protocol round's fan-out to one owner travels as one
	// batched exchange however many logical messages it carries, so
	// Exchanges is what a latency-bound deployment actually pays.
	// Identical across backends: the coalescing happens at the
	// originator, before any backend sees the calls.
	Exchanges int64
	// PerOwner[i] counts the logical messages exchanged with the owner of
	// list i, in both directions. internal/dht prices each owner's
	// traffic by its overlay routing distance.
	PerOwner []int64
}

// Result reports the answers and the execution profile of one
// distributed run.
type Result struct {
	// Items are the top-k answers ordered best-first (score desc, then
	// item ID asc) with exact overall scores.
	Items []rank.ScoredItem
	// StopPosition is the sorted-access depth at which the protocol
	// stopped (TA, BPA) or the deepest position scanned by any owner
	// (TPUT, TPUTA). For BPA2 it is 0: BPA2 performs no sorted accesses.
	StopPosition int
	// BestPositions holds the final best position of every list for
	// BPA/BPA2, nil for the other protocols.
	BestPositions []int
	// Threshold is the final stopping threshold: δ for TA, λ for
	// BPA/BPA2, the phase-two bound τ2 for TPUT/TPUTA.
	Threshold float64
	// Accesses tallies the list accesses the owners performed, exactly
	// as the centralized algorithms count them.
	Accesses access.Counts
	// Net is the network profile. It is identical whichever transport
	// backend carried the run.
	Net Net
	// Recovery reports the failures this run absorbed. All-zero on an
	// undisturbed run — and, by design, the ONLY Result field recovery
	// touches: a query that survived replica deaths via handoff or
	// restart reports Items, Accesses and Net bit-identical to an
	// undisturbed run, with the disturbance accounted here.
	Recovery Recovery
	// Elapsed is the transport's wall-clock measure of the run: zero
	// over a plain Loopback, simulated time under a latency Loopback,
	// real time over HTTP. The one backend-specific Result field.
	Elapsed time.Duration
	// Trace holds one span per wire exchange when the run was traced
	// (Options.Trace); nil otherwise. Like Elapsed it is descriptive,
	// not normative: replica choice, byte counts and durations are
	// backend- and schedule-dependent, while span count and logical
	// message totals reconcile with Net.Exchanges and Net.Messages.
	Trace []transport.Span
}

// Recovery tallies the failures a distributed run absorbed without
// failing the query: whole-protocol reruns spent by the restart driver
// (RunWithRestart), pinned-replica handoffs the transport performed
// mid-protocol, and how many distinct replicas failed underneath the
// run. Separate from the primary accounting on purpose — the paper's
// cost metrics (Accesses, Net) describe the protocol, not the outages
// it outlived.
type Recovery struct {
	// Restarts counts full protocol reruns the restart policy spent
	// before the run completed.
	Restarts int
	// Handoffs counts pin-to-sibling session handoffs inside the
	// completing run.
	Handoffs int
	// FailedReplicas counts distinct replicas that failed mid-run,
	// including ones failed attempts of a restarted query pinned to.
	FailedReplicas int
	// Backpressure counts exchanges the owners shed with a typed
	// retry-after answer that the client absorbed by waiting and
	// re-sending — admission-control friction, not failure.
	Backpressure int
}

// network tallies the traffic the runner's exchanges generate.
type network struct {
	net Net
}

func newNetwork(m int) *network {
	return &network{net: Net{PerOwner: make([]int64, m)}}
}

// request charges one originator-to-owner message carrying the given
// number of scalar values beyond its fixed-size fields.
func (nw *network) request(owner int, scalars int) {
	nw.net.Messages++
	nw.net.PerOwner[owner]++
	nw.net.Payload += int64(scalars)
}

// respond charges one owner-to-originator message carrying the given
// number of scalar values.
func (nw *network) respond(owner int, scalars int) {
	nw.net.Messages++
	nw.net.PerOwner[owner]++
	nw.net.Payload += int64(scalars)
}

// runner is the originator's execution state: the query's private
// transport session, the traffic accounting, the scoring function and
// the answer set. Every exchange goes through do/doAll so that a request
// and its response are charged exactly once, with payload derived from
// the messages themselves — the accounting cannot drift between
// backends. The context is checked before (and, backend permitting,
// during) every exchange.
//
// doAll is also where round coalescing happens: the logical calls of one
// fan-out are grouped per owner, and every owner addressed more than
// once receives a single transport.BatchReq carrying its share of the
// fan-out — one wire exchange per owner per fan-out, whatever the
// protocol's chattiness. Accounting stays per logical message, so
// coalescing is invisible to Net.Messages/Payload/PerOwner by
// construction.
type runner struct {
	ctx  context.Context
	sess transport.Session
	nw   *network
	f    score.Func
	y    *rank.Set
	m, n int

	// Per-round coalescing scratch, reused across rounds so the hot path
	// does not reallocate its grouping state per fan-out.
	ownerIdx  [][]int          // call indices per owner this round
	wireCalls []transport.Call // coalesced calls actually dispatched

	// rec collects per-exchange trace spans when Options.Trace armed a
	// SpanRecording-capable session; nil otherwise. The runner stamps
	// the protocol round before every dispatch — the drivers increment
	// Rounds, the transport fills in everything else.
	rec *transport.SpanRecorder
}

// newRunner validates the options against the transport's dimensions and
// opens a fresh owner-side session for this query. Callers must pair it
// with a deferred close.
func newRunner(ctx context.Context, t transport.Transport, opts Options) (*runner, error) {
	if t == nil {
		return nil, fmt.Errorf("dist: nil transport")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.validate(t.N()); err != nil {
		return nil, err
	}
	sess, err := t.Open(ctx, opts.Tracker)
	if err != nil {
		return nil, fmt.Errorf("dist: open session: %w", err)
	}
	var rec *transport.SpanRecorder
	if opts.Trace {
		if sr, ok := sess.(transport.SpanRecording); ok {
			rec = transport.NewSpanRecorder()
			sr.SetSpanRecorder(rec)
		}
	}
	return &runner{
		ctx:      ctx,
		sess:     sess,
		nw:       newNetwork(t.M()),
		f:        opts.Scoring,
		y:        rank.NewSet(opts.K),
		m:        t.M(),
		n:        t.N(),
		ownerIdx: make([][]int, t.M()),
		rec:      rec,
	}, nil
}

// close releases the owner-side session, best-effort: it runs on every
// exit path, including cancellation, so owners never accumulate state
// from abandoned queries.
func (r *runner) close() { _ = r.sess.Close() }

// do performs one exchange and charges both directions.
func (r *runner) do(owner int, req transport.Request) (transport.Response, error) {
	if r.rec != nil {
		r.rec.SetRound(r.nw.net.Rounds)
	}
	r.nw.request(owner, req.RequestScalars())
	r.nw.net.Exchanges++
	resp, err := r.sess.Do(r.ctx, owner, req)
	if err != nil {
		return nil, fmt.Errorf("dist: %s exchange with owner %d: %w", req.Kind(), owner, err)
	}
	r.nw.respond(owner, resp.ResponseScalars())
	return resp, nil
}

// doAll performs one round's fan-out — in parallel where the backend
// supports it — and charges every logical request and response. Calls
// addressed to the same owner are coalesced into a single batched wire
// exchange for that owner (executed atomically, in submission order), so
// a k-message round costs one round-trip per owner instead of k; calls
// to distinct owners overlap as before. The returned responses are the
// logical ones, in call order — drivers never see the batch envelope.
func (r *runner) doAll(calls []transport.Call) ([]transport.Response, error) {
	if r.rec != nil {
		r.rec.SetRound(r.nw.net.Rounds)
	}
	for _, c := range calls {
		r.nw.request(c.Owner, c.Req.RequestScalars())
	}
	wire, grouped := r.coalesce(calls)
	r.nw.net.Exchanges += int64(len(wire))
	resps, err := r.sess.DoAll(r.ctx, wire)
	if err != nil {
		return nil, fmt.Errorf("dist: batched exchange: %w", err)
	}
	if grouped {
		if resps, err = r.uncoalesce(calls, wire, resps); err != nil {
			return nil, err
		}
	}
	for i, resp := range resps {
		r.nw.respond(calls[i].Owner, resp.ResponseScalars())
	}
	return resps, nil
}

// coalesce groups a round's calls per owner: owners addressed once keep
// their bare message, owners addressed k>1 times get one BatchReq of
// their k requests. Returns the wire calls (aliasing the runner's
// scratch, valid until the next round) and whether any batching
// happened.
func (r *runner) coalesce(calls []transport.Call) ([]transport.Call, bool) {
	for i := range r.ownerIdx {
		r.ownerIdx[i] = r.ownerIdx[i][:0]
	}
	multi := false
	for idx, c := range calls {
		r.ownerIdx[c.Owner] = append(r.ownerIdx[c.Owner], idx)
		multi = multi || len(r.ownerIdx[c.Owner]) > 1
	}
	if !multi {
		return calls, false
	}
	r.wireCalls = r.wireCalls[:0]
	for owner, idxs := range r.ownerIdx {
		switch len(idxs) {
		case 0:
		case 1:
			r.wireCalls = append(r.wireCalls, calls[idxs[0]])
		default:
			reqs := make([]transport.Request, len(idxs))
			for j, idx := range idxs {
				reqs[j] = calls[idx].Req
			}
			r.wireCalls = append(r.wireCalls, transport.Call{Owner: owner, Req: transport.BatchReq{Reqs: reqs}})
		}
	}
	return r.wireCalls, true
}

// uncoalesce maps the wire responses back onto the logical call order,
// unwrapping each owner's BatchResp into its per-request responses.
func (r *runner) uncoalesce(calls, wire []transport.Call, resps []transport.Response) ([]transport.Response, error) {
	out := make([]transport.Response, len(calls))
	for w, c := range wire {
		idxs := r.ownerIdx[c.Owner]
		if len(idxs) == 1 {
			out[idxs[0]] = resps[w]
			continue
		}
		br, err := as[transport.BatchResp](resps[w])
		if err != nil {
			return nil, err
		}
		if len(br.Resps) != len(idxs) {
			return nil, fmt.Errorf("dist: owner %d answered %d of %d batched requests", c.Owner, len(br.Resps), len(idxs))
		}
		for j, idx := range idxs {
			out[idx] = br.Resps[j]
		}
	}
	return out, nil
}

// as narrows a transport response to its concrete type, turning a
// misbehaving backend into an error instead of a panic.
func as[T transport.Response](resp transport.Response) (T, error) {
	v, ok := resp.(T)
	if !ok {
		return v, fmt.Errorf("dist: backend returned %T, want %T", resp, v)
	}
	return v, nil
}

// stats gathers the owners' uncharged bookkeeping for this session —
// over HTTP the session answers from its receipts, without a wire call.
func (r *runner) stats() ([]transport.OwnerStats, error) {
	out := make([]transport.OwnerStats, r.m)
	for i := range out {
		st, err := r.sess.Stats(r.ctx, i)
		if err != nil {
			return nil, fmt.Errorf("dist: stats of owner %d: %w", i, err)
		}
		out[i] = st
	}
	return out, nil
}

// finish gathers the owners' stats and assembles the common Result
// fields from them.
func (r *runner) finish(res *Result) (*Result, error) {
	sts, err := r.stats()
	if err != nil {
		return nil, err
	}
	return r.assemble(res, sts), nil
}

// assemble fills the common Result fields from one gather of the
// owners' stats.
func (r *runner) assemble(res *Result, sts []transport.OwnerStats) *Result {
	res.Items = r.y.Slice()
	for _, st := range sts {
		res.Accesses = res.Accesses.Add(st.Accesses)
	}
	res.Net = r.nw.net
	// Harvest the transport session's recovery tallies (handoffs, failed
	// replicas) when the backend keeps them — the HTTP session does; the
	// in-process backends have nothing to fail and report nothing.
	if rr, ok := r.sess.(interface {
		Recovery() transport.SessionRecovery
	}); ok {
		rec := rr.Recovery()
		res.Recovery.Handoffs = rec.Handoffs
		res.Recovery.FailedReplicas = rec.FailedReplicas
		res.Recovery.Backpressure = rec.Backpressure
	}
	res.Elapsed = r.sess.Elapsed()
	if r.rec != nil {
		res.Trace = r.rec.Spans()
	}
	return res
}

// loopback builds the deterministic in-process transport the db-level
// entry points (TA, BPA, BPA2, TPUT, TPUTA) run over.
func loopback(db *list.Database) (transport.Transport, error) {
	if db == nil {
		return nil, fmt.Errorf("dist: nil database")
	}
	return transport.NewLoopback(db)
}
